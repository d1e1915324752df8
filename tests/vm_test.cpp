// Tests for memory images (dirty tracking, write extents), guest
// workloads, virtual machines and the hypervisor.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <utility>

#include "vm/machine.hpp"
#include "vm/memory_image.hpp"
#include "vm/workload.hpp"

namespace vdc::vm {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

TEST(MemoryImage, StartsCleanAndZeroed) {
  MemoryImage img(16, 4);
  EXPECT_EQ(img.size_bytes(), 64u);
  EXPECT_EQ(img.dirty_count(), 0u);
  for (std::size_t p = 0; p < 4; ++p)
    for (std::byte b : img.page(p)) EXPECT_EQ(b, std::byte{0});
}

TEST(MemoryImage, WriteMarksDirtyOnce) {
  MemoryImage img(16, 4);
  const auto data = bytes_of({1, 2, 3});
  img.write(2, 5, data);
  EXPECT_TRUE(img.is_dirty(2));
  EXPECT_FALSE(img.is_dirty(0));
  EXPECT_EQ(img.dirty_count(), 1u);
  img.write(2, 0, data);  // same page again
  EXPECT_EQ(img.dirty_count(), 1u);
  EXPECT_EQ(img.dirty_pages(), (std::vector<PageIndex>{2}));
  EXPECT_EQ(static_cast<int>(img.page(2)[5]), 1);
  EXPECT_EQ(static_cast<int>(img.page(2)[7]), 3);
}

TEST(MemoryImage, ClearDirtyResets) {
  MemoryImage img(16, 4);
  img.write(1, 0, bytes_of({9}));
  img.clear_dirty();
  EXPECT_EQ(img.dirty_count(), 0u);
  EXPECT_FALSE(img.is_dirty(1));
  // Content survives.
  EXPECT_EQ(static_cast<int>(img.page(1)[0]), 9);
}

TEST(MemoryImage, OutOfBoundsWriteThrows) {
  MemoryImage img(16, 4);
  EXPECT_THROW(img.write(4, 0, bytes_of({1})), InvariantError);
  std::vector<std::byte> big(17);
  EXPECT_THROW(img.write(0, 0, big), InvariantError);
  EXPECT_THROW(img.write(0, 10, bytes_of({1, 2, 3, 4, 5, 6, 7})),
               InvariantError);
}

TEST(MemoryImage, FillRandomIsDeterministic) {
  MemoryImage a(64, 8), b(64, 8);
  Rng ra(42), rb(42);
  a.fill_random(ra);
  b.fill_random(rb);
  EXPECT_EQ(a.flatten(), b.flatten());
  EXPECT_EQ(a.dirty_count(), 8u);
}

TEST(MemoryImage, RestoreReplacesContent) {
  MemoryImage img(16, 2);
  img.write(0, 0, bytes_of({1}));
  std::vector<std::byte> replacement(32, std::byte{7});
  img.restore(replacement);
  EXPECT_EQ(img.flatten(), replacement);
  EXPECT_EQ(img.dirty_count(), 2u);  // restore marks everything dirty
  EXPECT_THROW(img.restore(std::vector<std::byte>(31)), ConfigError);
}

// The dirty log against a map model: page -> extent [lo, hi) of write()
// ranges since the page became dirty, the full page once any wholesale
// path marked it, and the full page for clean pages. Zero-length writes
// dirty a page with an empty extent, and widen an existing one.
TEST(MemoryImage, DirtyExtentMatchesReferenceModel) {
  constexpr Bytes kPage = 64;
  constexpr std::size_t kPages = 12;
  using Extent = std::pair<std::size_t, std::size_t>;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MemoryImage img(kPage, kPages);
    std::map<PageIndex, Extent> model;
    std::uint64_t generation = 0;
    Rng rng(seed);
    const auto dirty_all = [&] {
      for (PageIndex p = 0; p < kPages; ++p) model[p] = {0, kPage};
    };
    for (int step = 0; step < 400; ++step) {
      const auto op = rng.uniform_u64(100);
      if (op < 55) {
        const PageIndex p = rng.uniform_u64(kPages);
        const std::size_t off = rng.uniform_u64(kPage + 1);
        const std::size_t len =
            rng.chance(0.2) ? 0 : rng.uniform_u64(kPage - off + 1);
        img.write(p, off, std::vector<std::byte>(len, std::byte{0x5A}));
        auto [it, fresh] = model.try_emplace(p, Extent{off, off + len});
        if (!fresh)
          it->second = {std::min(it->second.first, off),
                        std::max(it->second.second, off + len)};
      } else if (op < 67) {
        const PageIndex p = rng.uniform_u64(kPages);
        img.mark_dirty(p);
        model[p] = {0, kPage};
      } else if (op < 70) {
        img.mark_all_dirty();
        dirty_all();
      } else if (op < 72) {
        img.restore(std::vector<std::byte>(kPage * kPages, std::byte{3}));
        dirty_all();
      } else if (op < 80) {
        const std::size_t off = rng.uniform_u64(kPage * kPages + 1);
        const std::size_t len = rng.uniform_u64(kPage * kPages - off + 1);
        img.restore_range(off, std::vector<std::byte>(len, std::byte{9}));
        if (len > 0)
          for (PageIndex p = off / kPage; p <= (off + len - 1) / kPage; ++p)
            model[p] = {0, kPage};
      } else if (op < 82) {
        img.fill_random(rng);
        dirty_all();
      } else {
        img.clear_dirty();
        model.clear();
        ++generation;
      }

      ASSERT_EQ(img.dirty_count(), model.size()) << "seed " << seed;
      ASSERT_EQ(img.dirty_generation(), generation) << "seed " << seed;
      std::vector<PageIndex> pages;
      for (const auto& [p, extent] : model) pages.push_back(p);
      ASSERT_EQ(img.dirty_pages(), pages) << "seed " << seed;
      for (PageIndex p = 0; p < kPages; ++p) {
        const auto it = model.find(p);
        ASSERT_EQ(img.is_dirty(p), it != model.end());
        const Extent want = it == model.end() ? Extent{0, kPage} : it->second;
        ASSERT_EQ(img.dirty_extent(p), want)
            << "seed " << seed << ", step " << step << ", page " << p;
      }
    }
  }
}

TEST(Workload, UniformHitsTargetRate) {
  MemoryImage img(64, 100);
  Rng rng(1);
  UniformWorkload w(100.0);  // writes/sec
  w.advance(img, 2.0, rng);
  // 200 writes over 100 pages: most pages dirty, content changed.
  EXPECT_GT(img.dirty_count(), 50u);
}

TEST(Workload, FractionalRateAccumulates) {
  MemoryImage img(64, 10);
  Rng rng(2);
  UniformWorkload w(0.5);
  for (int i = 0; i < 10; ++i) w.advance(img, 1.0, rng);  // 5 writes total
  EXPECT_GE(img.dirty_count(), 1u);
  EXPECT_LE(img.dirty_count(), 5u);
}

TEST(Workload, HotColdConcentratesWrites) {
  MemoryImage img(64, 1000);
  Rng rng(3);
  HotColdWorkload w(1000.0, /*hot_fraction=*/0.1, /*hot_probability=*/0.9);
  w.advance(img, 5.0, rng);  // 5000 writes
  // Count dirty pages inside and outside the hot set (first 100 pages).
  std::size_t hot = 0, cold = 0;
  for (PageIndex p = 0; p < 1000; ++p) {
    if (!img.is_dirty(p)) continue;
    (p < 100 ? hot : cold) += 1;
  }
  EXPECT_EQ(hot, 100u);  // hot set saturates
  EXPECT_LT(cold, 450u); // ~500 cold writes over 900 pages
}

TEST(Workload, SequentialWalksInOrder) {
  MemoryImage img(64, 10);
  Rng rng(4);
  SequentialWorkload w(1.0);
  w.advance(img, 3.0, rng);
  EXPECT_EQ(img.dirty_pages(), (std::vector<PageIndex>{0, 1, 2}));
  w.advance(img, 9.0, rng);  // wraps past page 9
  EXPECT_EQ(img.dirty_count(), 10u);
}

TEST(Workload, IdleWritesNothing) {
  MemoryImage img(64, 10);
  Rng rng(5);
  IdleWorkload w;
  w.advance(img, 100.0, rng);
  EXPECT_EQ(img.dirty_count(), 0u);
}

TEST(Workload, InvalidParamsRejected) {
  EXPECT_THROW(UniformWorkload(-1.0), ConfigError);
  EXPECT_THROW(HotColdWorkload(1.0, 0.0, 0.5), ConfigError);
  EXPECT_THROW(HotColdWorkload(1.0, 0.5, 1.5), ConfigError);
}

TEST(VirtualMachine, AdvanceOnlyWhileRunning) {
  VirtualMachine machine(1, "vm1", 64, 10,
                         std::make_unique<UniformWorkload>(10.0));
  Rng rng(6);
  machine.advance(1.0, rng);
  EXPECT_DOUBLE_EQ(machine.cpu_time(), 1.0);
  machine.pause();
  machine.advance(1.0, rng);
  EXPECT_DOUBLE_EQ(machine.cpu_time(), 1.0);  // paused: no progress
  machine.resume();
  machine.advance(0.5, rng);
  EXPECT_DOUBLE_EQ(machine.cpu_time(), 1.5);
}

TEST(VirtualMachine, FailedVmRejectsTransitions) {
  VirtualMachine machine(1, "vm1", 64, 10,
                         std::make_unique<IdleWorkload>());
  machine.mark_failed();
  EXPECT_THROW(machine.pause(), InvariantError);
  EXPECT_THROW(machine.resume(), InvariantError);
}

TEST(Hypervisor, CreateBootsWithRandomImage) {
  Hypervisor hv(Rng(7));
  auto& machine =
      hv.create_vm(1, "a", 64, 10, std::make_unique<IdleWorkload>());
  EXPECT_EQ(hv.vm_count(), 1u);
  EXPECT_EQ(machine.image().dirty_count(), 0u);  // booted clean
  // Booted content is non-trivial.
  bool nonzero = false;
  for (std::byte b : machine.image().page(0))
    if (b != std::byte{0}) nonzero = true;
  EXPECT_TRUE(nonzero);
  EXPECT_THROW(
      hv.create_vm(1, "dup", 64, 10, std::make_unique<IdleWorkload>()),
      ConfigError);
}

TEST(Hypervisor, EvictAdoptMovesOwnership) {
  Hypervisor a(Rng(8)), b(Rng(9));
  a.create_vm(1, "a", 64, 4, std::make_unique<IdleWorkload>());
  const auto content = a.get(1).image().flatten();
  auto machine = a.evict(1);
  EXPECT_EQ(a.vm_count(), 0u);
  EXPECT_THROW(a.get(1), ConfigError);
  b.adopt(std::move(machine));
  EXPECT_TRUE(b.hosts(1));
  EXPECT_EQ(b.get(1).image().flatten(), content);
}

TEST(Hypervisor, PauseResumeAll) {
  Hypervisor hv(Rng(10));
  hv.create_vm(1, "a", 64, 4, std::make_unique<IdleWorkload>());
  hv.create_vm(2, "b", 64, 4, std::make_unique<IdleWorkload>());
  hv.pause_all();
  EXPECT_EQ(hv.get(1).state(), VmState::Paused);
  EXPECT_EQ(hv.get(2).state(), VmState::Paused);
  hv.resume_all();
  EXPECT_EQ(hv.get(1).state(), VmState::Running);
}

TEST(Hypervisor, VmIdsSorted) {
  Hypervisor hv(Rng(11));
  hv.create_vm(5, "a", 64, 2, std::make_unique<IdleWorkload>());
  hv.create_vm(1, "b", 64, 2, std::make_unique<IdleWorkload>());
  hv.create_vm(3, "c", 64, 2, std::make_unique<IdleWorkload>());
  EXPECT_EQ(hv.vm_ids(), (std::vector<VmId>{1, 3, 5}));
}

}  // namespace
}  // namespace vdc::vm
