#pragma once
// XOR primitives — the inner loop of diskless checkpointing.
//
// The paper's Section V-B performance argument leans on "an in-memory XOR
// operation is orders-of-magnitude faster than a disk write of the same
// size"; bench/xor_vs_disk measures exactly this routine. xor_into routes
// through the runtime-dispatched kernel tiers (parity/kernels.hpp):
// AVX2/NEON when the CPU supports them, scalar as the always-available
// reference — all bit-exact, any buffer size.

#include <cstddef>
#include <span>

namespace vdc::parity {

/// dst ^= src, element-wise. Sizes must match.
void xor_into(std::span<std::byte> dst, std::span<const std::byte> src);

/// True if every byte is zero (used to verify parity identities).
bool all_zero(std::span<const std::byte> data);

}  // namespace vdc::parity
