// Tests for page-hash deduplicated migration (the paper's Section VII
// future-work feature).

#include <gtest/gtest.h>

#include "migration/pagehash.hpp"
#include "vm/workload.hpp"

namespace vdc::migration {
namespace {

struct Rig {
  simkit::Simulator sim;
  net::Fabric fabric{sim, 0.0};
  net::HostId host_a, host_b;
  vm::Hypervisor hv_a{Rng(1)}, hv_b{Rng(1)};  // same seed: identical boots

  Rig() {
    host_a = fabric.add_host(mib_per_s(100));
    host_b = fabric.add_host(mib_per_s(100));
  }
};

TEST(PageHash, DeterministicAndSensitive) {
  std::vector<std::byte> page(4096, std::byte{0x11});
  const auto h1 = page_hash(page);
  EXPECT_EQ(page_hash(page), h1);
  page[100] = std::byte{0x12};
  EXPECT_NE(page_hash(page), h1);
}

TEST(PageHashIndex, LookupFindsIndexedPages) {
  vm::MemoryImage image(64, 8);
  Rng rng(3);
  image.fill_random(rng);
  PageHashIndex index;
  index.add_image(image);
  EXPECT_LE(index.distinct_pages(), 8u);
  for (vm::PageIndex p = 0; p < 8; ++p) {
    auto view = image.page(p);
    auto found = index.lookup(page_hash(view));
    ASSERT_FALSE(found.empty());
    EXPECT_TRUE(std::equal(view.begin(), view.end(), found.begin()));
  }
  EXPECT_TRUE(index.lookup(0xdeadbeef).empty());
}

TEST(DedupMigrator, IdenticalResidentVmShipsAlmostNothing) {
  Rig rig;
  // Identical Rng seeds for both hypervisors: vm 1 on A and vm 2 on B boot
  // with identical images (a clone pool).
  rig.hv_a.create_vm(1, "a", kib(4), 128, std::make_unique<vm::IdleWorkload>());
  rig.hv_b.create_vm(2, "b", kib(4), 128, std::make_unique<vm::IdleWorkload>());
  ASSERT_EQ(rig.hv_a.get(1).image().flatten(),
            rig.hv_b.get(2).image().flatten());

  DedupMigrator migrator(rig.sim, rig.fabric);
  DedupStats stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const DedupStats& s) { stats = s; });
  rig.sim.run();
  EXPECT_EQ(stats.pages_matched, 128u);
  EXPECT_EQ(stats.hash_collisions, 0u);
  // Only the manifest crosses the wire.
  EXPECT_EQ(stats.bytes_sent, 128u * 8u);
  EXPECT_EQ(stats.bytes_saved, 128u * kib(4));
  EXPECT_TRUE(rig.hv_b.hosts(1));
}

TEST(DedupMigrator, EmptyDestinationShipsEverything) {
  Rig rig;
  rig.hv_a.create_vm(1, "a", kib(4), 64, std::make_unique<vm::IdleWorkload>());
  DedupStats stats;
  {
    // The migrator may go before its migration lands.
    DedupMigrator migrator(rig.sim, rig.fabric);
    migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                     [&](const DedupStats& s) { stats = s; });
  }
  rig.sim.run();
  EXPECT_EQ(stats.pages_matched, 0u);
  EXPECT_EQ(stats.bytes_sent, 64u * kib(4) + 64u * 8u);
  EXPECT_GT(stats.total_time, kSwitchOverhead);
}

TEST(DedupMigrator, DivergedCloneShipsOnlyTheDiff) {
  Rig rig;
  rig.hv_a.create_vm(1, "a", kib(4), 128, std::make_unique<vm::IdleWorkload>());
  rig.hv_b.create_vm(2, "b", kib(4), 128, std::make_unique<vm::IdleWorkload>());
  // Diverge 32 of 128 pages on the source.
  auto& img = rig.hv_a.get(1).image();
  for (vm::PageIndex p = 0; p < 32; ++p) {
    std::vector<std::byte> w(16, std::byte{0x99});
    img.write(p, 0, w);
  }
  DedupMigrator migrator(rig.sim, rig.fabric);
  DedupStats stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const DedupStats& s) { stats = s; });
  rig.sim.run();
  EXPECT_EQ(stats.pages_matched, 96u);
  EXPECT_EQ(stats.bytes_sent, 32u * kib(4) + 128u * 8u);
}

TEST(DedupMigrator, MigratedContentIsExact) {
  Rig rig;
  rig.hv_a.create_vm(1, "a", kib(4), 64, std::make_unique<vm::IdleWorkload>());
  rig.hv_b.create_vm(2, "b", kib(4), 64, std::make_unique<vm::IdleWorkload>());
  auto& img = rig.hv_a.get(1).image();
  std::vector<std::byte> w(8, std::byte{0x42});
  img.write(10, 0, w);
  const auto content = img.flatten();

  DedupMigrator migrator(rig.sim, rig.fabric);
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [](const DedupStats&) {});
  rig.sim.run();
  EXPECT_EQ(rig.hv_b.get(1).image().flatten(), content);
  EXPECT_EQ(rig.hv_b.get(1).state(), vm::VmState::Running);
}

TEST(DedupMigrator, FasterThanPlainTransferForClones) {
  // Timing check: a fully matched image crosses the (slow) wire as a
  // manifest only.
  Rig rig;
  rig.fabric.network().set_capacity(rig.fabric.tx_port(rig.host_a),
                                    mib_per_s(1));
  rig.hv_a.create_vm(1, "a", kib(4), 256, std::make_unique<vm::IdleWorkload>());
  rig.hv_b.create_vm(2, "b", kib(4), 256, std::make_unique<vm::IdleWorkload>());
  DedupMigrator migrator(rig.sim, rig.fabric);
  DedupStats stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const DedupStats& s) { stats = s; });
  rig.sim.run();
  // 1 MiB at 1 MiB/s would be ~1 s; the 2 KiB manifest takes ~2 ms.
  EXPECT_LT(stats.total_time, 0.1);
}

}  // namespace
}  // namespace vdc::migration
