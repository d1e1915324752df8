#pragma once
// Runtime-dispatched parity kernels.
//
// Every byte of parity math in the system funnels through two primitives:
// XOR (dst ^= src) and the GF(256) multiply-accumulate (dst ^= c*src).
// This header gives each primitive a small family of implementations —
// kernel *tiers* — selected once at process start by CPU feature
// detection, overridable for tests and benchmarks:
//
//   Scalar  — byte-at-a-time loops; the always-available equivalence
//             reference, the portable path, and the SIMD tiers' tails.
//   Avx2    — 32-byte vector XOR and the ISA-L-style PSHUFB nibble-table
//             GF(256) multiply (two 16-entry tables per coefficient).
//             Compiled with a function-level target attribute and chosen
//             only when the CPU reports AVX2.
//   Neon    — aarch64 twin of Avx2 (vqtbl1q_u8 nibble tables); compiled
//             only on aarch64 builds.
//
// All tiers are bit-exact for every input (tests/kernel_conformance_test
// proves each tier against Scalar on random and adversarial cases), so
// tier choice can never change committed checkpoints or parity — only
// wall-clock speed. `parity::xor_into` and `gf256::mul_add` route through
// the active kernel, so callers (capture XOR, parity folds, RDP encode,
// recovery rebuilds) inherit SIMD without changes.
//
// Selection: the best supported tier, resolved once at first use;
// set_active_tier() overrides at runtime (tests/benches).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vdc::parity {

/// Values are stable: the `parity.kernel.tier` gauge reports them.
enum class KernelTier : int {
  Scalar = 0,
  Avx2 = 2,
  Neon = 3,
};

/// One tier's primitive set. Function pointers, not virtuals: the fold
/// hot path calls through them once per contiguous range.
struct KernelOps {
  KernelTier tier = KernelTier::Scalar;
  const char* name = "scalar";
  void (*xor_into)(std::byte* dst, const std::byte* src, std::size_t n) =
      nullptr;
  void (*gf256_mul_add)(std::uint8_t c, const std::uint8_t* src,
                        std::uint8_t* dst, std::size_t n) = nullptr;
};

/// Tiers usable on this machine, in ascending speed order. Scalar is
/// always present; Avx2/Neon appear when the CPU + build support them.
const std::vector<KernelTier>& supported_tiers();

/// True when `tier` is in supported_tiers().
bool tier_supported(KernelTier tier);

/// The ops table for a supported tier (throws on an unsupported one).
const KernelOps& kernel_for(KernelTier tier);

/// The process-wide active kernel: the best supported tier. Resolved
/// once, then stable until set_active_tier().
const KernelOps& active_kernel();

/// Force the active tier (tests/benchmarks). Throws on unsupported.
void set_active_tier(KernelTier tier);

/// "scalar" / "avx2" / "neon".
const char* tier_name(KernelTier tier);

}  // namespace vdc::parity
