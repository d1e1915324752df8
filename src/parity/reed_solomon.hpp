#pragma once
// Systematic Reed-Solomon erasure code over GF(256) with a scaled Cauchy
// generator — arbitrary fault tolerance m for a checkpoint group.
//
// The paper's scheme is m = 1 (XOR) and it cites RDP for m = 2; this codec
// generalises the "more advanced codes" direction of Section II-B.2 to any
// m: the stripe survives ANY m simultaneous block losses. It is the only
// erasure code in the system: RS(k,1) is RAID-5 and RS(k,2) takes RDP's
// double-erasure role. The generator's parity rows start from a Cauchy
// matrix C[j][i] = 1/(x_j + y_i) with distinct x_j, y_i, so every square
// submatrix is invertible and the code is MDS by construction (also
// verified exhaustively in the tests). Rows and columns are then scaled so
// that row 0 and column 0 are all ones:
//
//   A[j][i] = C[j][i] * C[0][0] / (C[j][0] * C[0][i])
//
// Scaling by nonzero factors keeps every square submatrix nonsingular, so
// the code stays MDS. Row 0 being all ones makes parity block 0 the plain
// XOR of the members, so RS(k,1) IS the paper's RAID-5 parity, byte for
// byte, and a coefficient of 1 dispatches to the XOR kernel.
//
// Decode: only the erased data rows of the inverse are built. For e lost
// data blocks, the first e surviving parity rows J give an e x e system
// A[J][lost]; inverting it yields each lost block as k mul_adds over the
// survivors (k XORs for a one-erasure RAID-5 rebuild). Lost parity rows
// are re-encoded from the completed data.

#include <cstdint>
#include <optional>

#include "parity/codec.hpp"

namespace vdc::parity {

class ReedSolomonCodec {
 public:
  /// k data blocks, m parity blocks; k + m <= 256 unless m == 1 (XOR parity
  /// has no width limit).
  ReedSolomonCodec(std::size_t k, std::size_t m);

  std::size_t parity_blocks() const { return m_; }

  /// The m parity blocks of exactly k equal-sized data blocks.
  std::vector<Block> encode(std::span<const BlockView> data) const;
  /// Rebuild erased entries in place. `blocks` holds k data blocks followed
  /// by m parity blocks; erased positions are nullopt. Throws DataLossError
  /// when more than m blocks are erased.
  void reconstruct(std::vector<std::optional<Block>>& blocks) const;

  /// Generator coefficient of parity row j, data column i (1 on row 0 and
  /// column 0).
  std::uint8_t coefficient(std::size_t j, std::size_t i) const {
    VDC_ASSERT(j < m_ && i < k_);
    return generator_[j * k_ + i];
  }

 private:
  std::size_t k_;
  std::size_t m_;
  std::vector<std::uint8_t> generator_;  // m x k, row-major
};

}  // namespace vdc::parity
