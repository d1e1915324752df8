#pragma once
// Stripe block types shared by the erasure codec and its callers.
//
// A checkpoint RAID group is a stripe of k data blocks (VM checkpoint
// images) and m parity blocks. The one codec is parity::ReedSolomonCodec:
// RS(k,1) is the paper's single XOR parity (RAID-5) and RS(k,m >= 2) covers
// the multi-erasure extension the paper cites (via Wang et al., RDP).

#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace vdc::parity {

using Block = std::vector<std::byte>;
using BlockView = std::span<const std::byte>;

/// Pad `block` with zeros to `size` (checkpoints in one group may differ in
/// size; parity is computed over the zero-padded common size).
inline Block padded_copy(BlockView block, std::size_t size) {
  VDC_ASSERT(block.size() <= size);
  Block out(size, std::byte{0});
  std::copy(block.begin(), block.end(), out.begin());
  return out;
}

}  // namespace vdc::parity
