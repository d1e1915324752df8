#pragma once
// Parity-delta folding: route a member's x = old^new byte range to the
// holder-block ranges it updates, per erasure scheme.
//
// Reed-Solomon (RAID-5 is RS(k,1)) is per-byte linear with an identity byte
// map, so a member range folds into the same range of every holder, scaled
// by the generator coefficient (1 for RAID-5). RDP is also per-byte linear
// but permutes bytes across the row/diagonal parity cells;
// for_each_update_range splits a member range into the destination
// segments. Because every scheme is
// per-byte linear, folding a range in arbitrary sub-range order (e.g. as
// literal runs arrive from the wire) yields byte-identical parity.
//
// Extracted from the DVDC protocol so the streaming ingest plane and its
// tests/benchmarks can fold without dragging in the coordinator.

#include <cstdint>
#include <memory>
#include <span>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "parity/codec.hpp"
#include "parity/rdp.hpp"
#include "parity/reed_solomon.hpp"

namespace vdc::parity {

class DeltaFolder {
 public:
  static DeltaFolder rs(std::size_t k, std::size_t m, Bytes block_size) {
    return DeltaFolder(Scheme::Rs, k, m, block_size);
  }
  static DeltaFolder rdp(std::size_t k, Bytes block_size) {
    return DeltaFolder(Scheme::Rdp, k, 0, block_size);
  }

  /// fn(dst_off, src_off, len, coeff): the pieces of member `mi`'s delta
  /// over [offset, offset+length) that land in holder `hi`'s block.
  template <typename Fn>
  void for_each_range(std::size_t hi, std::size_t mi, std::size_t offset,
                      std::size_t length, Fn&& fn) const {
    switch (scheme_) {
      case Scheme::Rs:
        fn(offset, std::size_t{0}, length, rs_->coefficient(hi, mi));
        return;
      case Scheme::Rdp:
        rdp_->for_each_update_range(
            mi, offset, length, block_size_,
            [&](std::size_t parity, std::size_t dst, std::size_t src,
                std::size_t len) {
              if (parity == hi) fn(dst, src, len, std::uint8_t{1});
            });
        return;
    }
    throw InvariantError("unknown parity scheme");
  }

  /// Fold `data` (old^new of member `mi` at `offset`) into holder `hi`'s
  /// block; returns the destination bytes written.
  Bytes fold(std::size_t hi, std::size_t mi, std::size_t offset,
             std::span<const std::byte> data, Block& block) const;

 private:
  enum class Scheme { Rs, Rdp };

  DeltaFolder(Scheme scheme, std::size_t k, std::size_t rs_m,
              Bytes block_size);

  Scheme scheme_;
  Bytes block_size_;
  std::shared_ptr<const ReedSolomonCodec> rs_;
  std::shared_ptr<const RdpCodec> rdp_;
};

}  // namespace vdc::parity
