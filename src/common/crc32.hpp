#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used to seal checkpoint wire frames: recovery and migration move
// checkpoint images between nodes, and a frame whose CRC disagrees must be
// rejected rather than silently decoded into a corrupt VM.
//
// One function, two kernels, chosen once by CPU feature the way the parity
// kernels are. On x86-64 with PCLMULQDQ, spans of 64 bytes or more fold
// four 128-bit lanes at a time by carry-less multiplication and reduce
// with Barrett's method (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009). The slice-by-8
// table runs the tail under 16 bytes, spans under 64 bytes and every CPU
// without the instruction. Both compute the same function of the bytes
// (tests/wire_test.cpp holds them to a bit-at-a-time oracle), so the
// kernel choice never changes a frame. Throughput favours few long calls:
// validate a stream once per contiguous span, not once per field.

#include <cstdint>
#include <span>

namespace vdc {

/// CRC-32 of `data`, optionally continuing from a previous value (pass the
/// prior result to checksum data in chunks).
std::uint32_t crc32(std::span<const std::byte> data,
                    std::uint32_t seed = 0);

}  // namespace vdc
