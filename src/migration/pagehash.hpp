#pragma once
// Page-hash deduplicated migration — the paper's stated future work:
//
//   "we are currently looking at the benefits of using page hashes to
//    speed up live migration when similar VMs reside at the host
//    destination."  (Section VII)
//
// The destination advertises a hash index over the pages of every VM it
// already hosts; the source ships only the pages whose hash is absent and
// a per-page hash manifest for the rest. Matched pages are copied locally
// at the destination. Because a 64-bit hash can collide, matches are
// verified against the actual bytes (hash-and-verify); collisions are
// counted and shipped like misses, so the migrated image is always
// byte-exact.

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "migration/precopy.hpp"
#include "net/fabric.hpp"
#include "vm/machine.hpp"

namespace vdc::migration {

/// FNV-1a 64-bit over a page's bytes.
std::uint64_t page_hash(std::span<const std::byte> page);

/// Hash index over the resident pages of a destination host.
class PageHashIndex {
 public:
  /// Index every page of `image`. First content wins per hash value.
  void add_image(const vm::MemoryImage& image);

  /// Index all VMs hosted by `hypervisor`.
  void add_host(const vm::Hypervisor& hypervisor);

  /// Content for a hash, or empty span if unknown.
  std::span<const std::byte> lookup(std::uint64_t hash) const;

  std::size_t distinct_pages() const { return pages_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::byte>> pages_;
};

struct DedupStats {
  std::size_t pages_total = 0;
  std::size_t pages_matched = 0;   // found at the destination (verified)
  std::size_t hash_collisions = 0; // hash matched, bytes did not
  Bytes bytes_sent = 0;            // manifest + missed pages
  Bytes bytes_saved = 0;           // matched pages not shipped
  SimTime total_time = 0.0;
};

/// Stop-and-copy migration with page-hash dedup against the destination's
/// resident VMs. (The same manifest trick composes with pre-copy rounds;
/// stop-and-copy keeps the accounting legible for the ablation bench.)
/// Like StopAndCopyMigrator, it may be destroyed before `done` runs.
class DedupMigrator {
 public:
  using DoneCallback = std::function<void(const DedupStats&)>;

  DedupMigrator(simkit::Simulator& sim, net::Fabric& fabric)
      : sim_(sim), fabric_(fabric) {}

  /// Migrate `id` from src to dst, deduplicating against every VM already
  /// hosted on dst.
  void migrate(vm::VmId id, vm::Hypervisor& src, net::HostId src_host,
               vm::Hypervisor& dst, net::HostId dst_host, DoneCallback done);

 private:
  simkit::Simulator& sim_;
  net::Fabric& fabric_;
};

}  // namespace vdc::migration
