#include "parity/reed_solomon.hpp"

#include <vector>

#include "parity/gf256.hpp"

namespace vdc::parity {

namespace {

const std::uint8_t* bytes_of(BlockView b) {
  return reinterpret_cast<const std::uint8_t*>(b.data());
}

std::uint8_t* bytes_of(Block& b) {
  return reinterpret_cast<std::uint8_t*>(b.data());
}

/// Gauss-Jordan inverse of the n x n row-major matrix `a` over GF(256).
std::vector<std::uint8_t> invert(std::vector<std::uint8_t> a, std::size_t n) {
  std::vector<std::uint8_t> inv(n * n, 0);
  for (std::size_t r = 0; r < n; ++r) inv[r * n + r] = 1;
  const auto swap_rows = [n](std::vector<std::uint8_t>& m, std::size_t x,
                             std::size_t y) {
    for (std::size_t c = 0; c < n; ++c) std::swap(m[x * n + c], m[y * n + c]);
  };
  for (std::size_t col = 0; col < n; ++col) {
    // Pivot: every square submatrix of the generator is nonsingular, so a
    // nonzero pivot exists.
    std::size_t pivot = col;
    while (pivot < n && a[pivot * n + col] == 0) ++pivot;
    VDC_ASSERT_MSG(pivot < n, "RS generator submatrix is singular");
    swap_rows(a, pivot, col);
    swap_rows(inv, pivot, col);
    const std::uint8_t d = gf256::inv(a[col * n + col]);
    for (std::size_t c = 0; c < n; ++c) {
      a[col * n + c] = gf256::mul(a[col * n + c], d);
      inv[col * n + c] = gf256::mul(inv[col * n + c], d);
    }
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint8_t f = a[r * n + col];
      if (r == col || f == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        a[r * n + c] ^= gf256::mul(f, a[col * n + c]);
        inv[r * n + c] ^= gf256::mul(f, inv[col * n + c]);
      }
    }
  }
  return inv;
}

}  // namespace

ReedSolomonCodec::ReedSolomonCodec(std::size_t k, std::size_t m)
    : k_(k), m_(m) {
  VDC_REQUIRE(k >= 1, "RS needs at least one data block");
  VDC_REQUIRE(m >= 1, "RS needs at least one parity block");
  if (m == 1) {
    // The scaled generator's only row is all ones: RAID-5 XOR parity, which
    // needs no distinct field points and so has no width limit.
    generator_.assign(k, 1);
    return;
  }
  VDC_REQUIRE(k + m <= 256, "RS over GF(256) supports k + m <= 256");
  // Cauchy: x_j = j, y_i = m + i — all distinct, so x_j + y_i != 0.
  const auto cauchy = [m](std::size_t j, std::size_t i) {
    return gf256::inv(static_cast<std::uint8_t>(j ^ (m + i)));
  };
  generator_.resize(m * k);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t i = 0; i < k; ++i)
      generator_[j * k + i] = gf256::div(
          gf256::mul(cauchy(j, i), cauchy(0, 0)),
          gf256::mul(cauchy(j, 0), cauchy(0, i)));
}

std::vector<Block> ReedSolomonCodec::encode(
    std::span<const BlockView> data) const {
  VDC_REQUIRE(data.size() == k_, "encode: wrong number of data blocks");
  const std::size_t size = data.front().size();
  for (const auto& d : data)
    VDC_REQUIRE(d.size() == size, "encode: block size mismatch");

  std::vector<Block> parity(m_, Block(size, std::byte{0}));
  for (std::size_t j = 0; j < m_; ++j)
    for (std::size_t i = 0; i < k_; ++i)
      gf256::mul_add(coefficient(j, i), bytes_of(data[i]),
                     bytes_of(parity[j]), size);
  return parity;
}

void ReedSolomonCodec::reconstruct(
    std::vector<std::optional<Block>>& blocks) const {
  VDC_REQUIRE(blocks.size() == k_ + m_, "reconstruct: wrong stripe width");

  std::vector<std::size_t> lost_data, lost_parity, spare_parity;
  std::size_t size = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!blocks[i]) {
      (i < k_ ? lost_data : lost_parity).push_back(i);
      continue;
    }
    if (size == 0) size = blocks[i]->size();
    VDC_REQUIRE(blocks[i]->size() == size, "reconstruct: block size mismatch");
    if (i >= k_) spare_parity.push_back(i - k_);
  }
  if (lost_data.empty() && lost_parity.empty()) return;
  if (lost_data.size() + lost_parity.size() > m_)
    throw DataLossError("RS cannot correct more erasures than parity rows");
  VDC_REQUIRE(size > 0, "reconstruct: no surviving block to size from");

  // Erased data rows of the inverse. The first e surviving parity rows J
  // give P_J = A[J][lost] d_lost + A[J][kept] d_kept, so with
  // R = inv(A[J][lost]) each lost block is
  //   d_lost[a] = sum_b R[a][b] P_J[b]
  //             + sum_{i kept} (sum_b R[a][b] A[J_b][i]) d_i
  const std::size_t e = lost_data.size();
  if (e > 0) {
    std::vector<std::uint8_t> sub(e * e);
    for (std::size_t b = 0; b < e; ++b)
      for (std::size_t a = 0; a < e; ++a)
        sub[b * e + a] = coefficient(spare_parity[b], lost_data[a]);
    const std::vector<std::uint8_t> r = invert(std::move(sub), e);
    std::vector<Block> rebuilt(e, Block(size, std::byte{0}));
    for (std::size_t a = 0; a < e; ++a) {
      std::uint8_t* dst = bytes_of(rebuilt[a]);
      for (std::size_t b = 0; b < e; ++b)
        gf256::mul_add(r[a * e + b], bytes_of(*blocks[k_ + spare_parity[b]]),
                       dst, size);
      for (std::size_t i = 0; i < k_; ++i) {
        if (!blocks[i]) continue;
        std::uint8_t c = 0;
        for (std::size_t b = 0; b < e; ++b)
          c ^= gf256::mul(r[a * e + b], coefficient(spare_parity[b], i));
        gf256::mul_add(c, bytes_of(*blocks[i]), dst, size);
      }
    }
    for (std::size_t a = 0; a < e; ++a)
      blocks[lost_data[a]] = std::move(rebuilt[a]);
  }

  // Lost parity rows: re-encode from the now complete data.
  for (std::size_t slot : lost_parity) {
    Block out(size, std::byte{0});
    for (std::size_t i = 0; i < k_; ++i)
      gf256::mul_add(coefficient(slot - k_, i), bytes_of(*blocks[i]),
                     bytes_of(out), size);
    blocks[slot] = std::move(out);
  }
}

}  // namespace vdc::parity
