#include "migration/pagehash.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace vdc::migration {

std::uint64_t page_hash(std::span<const std::byte> page) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : page) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

void PageHashIndex::add_image(const vm::MemoryImage& image) {
  for (vm::PageIndex p = 0; p < image.page_count(); ++p) {
    auto view = image.page(p);
    pages_.emplace(page_hash(view),
                   std::vector<std::byte>(view.begin(), view.end()));
  }
}

void PageHashIndex::add_host(const vm::Hypervisor& hypervisor) {
  for (vm::VmId id : hypervisor.vm_ids())
    add_image(hypervisor.get(id).image());
}

std::span<const std::byte> PageHashIndex::lookup(std::uint64_t hash) const {
  auto it = pages_.find(hash);
  if (it == pages_.end()) return {};
  return {it->second.data(), it->second.size()};
}

void DedupMigrator::migrate(vm::VmId id, vm::Hypervisor& src,
                            net::HostId src_host, vm::Hypervisor& dst,
                            net::HostId dst_host, DoneCallback done) {
  VDC_REQUIRE(src.hosts(id), "migrate: VM not on source node");
  const SimTime start = sim_.now();
  auto& machine = src.get(id);
  machine.pause();
  const auto& image = machine.image();

  // Destination side: index its resident pages.
  PageHashIndex index;
  index.add_host(dst);

  // Source side: classify every page.
  auto stats = std::make_shared<DedupStats>();
  stats->pages_total = image.page_count();
  const Bytes page_size = image.page_size();
  constexpr Bytes kManifestEntry = 8;  // one 64-bit hash per page

  for (vm::PageIndex p = 0; p < image.page_count(); ++p) {
    auto view = image.page(p);
    const auto resident = index.lookup(page_hash(view));
    if (!resident.empty()) {
      if (std::equal(view.begin(), view.end(), resident.begin(),
                     resident.end())) {
        ++stats->pages_matched;
        stats->bytes_saved += page_size;
        continue;
      }
      ++stats->hash_collisions;  // verified mismatch: ship it
    }
    stats->bytes_sent += page_size;
  }
  stats->bytes_sent += kManifestEntry * stats->pages_total;

  fabric_.transfer(
      src_host, dst_host, stats->bytes_sent,
      [this, id, &src, &dst, start, stats, done = std::move(done)]() mutable {
        sim_.after(kSwitchOverhead, [this, id, &src, &dst, start, stats,
                                      done = std::move(done)]() mutable {
          // Content moves exactly (matched pages were byte-verified).
          auto machine = src.evict(id);
          machine->resume();
          dst.adopt(std::move(machine));
          stats->total_time = sim_.now() - start;
          if (done) done(*stats);
        });
      });
}

}  // namespace vdc::migration
