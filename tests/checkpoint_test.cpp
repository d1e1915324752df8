// Tests for the checkpoint substrate: the RLE encoder (round-tripped
// through the reference decoder) and the in-memory store, whose resident
// byte counts are held after every operation of random put / erase /
// gc_before / drop_vm sequences to a from-scratch count of the distinct
// buffers its live entries reference. The wire frame and its decoder are
// covered by stream_ingest_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "checkpoint/rle.hpp"
#include "checkpoint/store.hpp"
#include "common/rng.hpp"
#include "fuzz_seeds.hpp"
#include "rle_reference.hpp"

namespace vdc::checkpoint {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

TEST(Rle, EmptyRoundtrip) {
  const auto enc = rle_encode({});
  EXPECT_TRUE(rle_decode(enc, 0).empty());
}

TEST(Rle, AllZerosCompressHard) {
  std::vector<std::byte> zeros(4096, std::byte{0});
  const auto enc = rle_encode(zeros);
  EXPECT_LT(enc.size(), 8u);
  EXPECT_EQ(rle_decode(enc, zeros.size()), zeros);
}

TEST(Rle, AllLiteralsRoundtrip) {
  Rng rng(1);
  // Random bytes: many will be nonzero; roundtrip must be exact.
  const auto data = random_bytes(rng, 1000);
  const auto enc = rle_encode(data);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, SparseDataCompresses) {
  std::vector<std::byte> data(4096, std::byte{0});
  for (std::size_t i = 100; i < 164; ++i) data[i] = std::byte{0xab};
  const auto enc = rle_encode(data);
  EXPECT_LT(enc.size(), 100u);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, ShortZeroRunsFoldIntoLiterals) {
  // 0x01 00 00 01 pattern: zero runs of 2 should not fragment records.
  std::vector<std::byte> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back(std::byte{1});
    data.push_back(std::byte{0});
    data.push_back(std::byte{0});
  }
  const auto enc = rle_encode(data);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, RoundtripPropertySweep) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    // Mixed zero/literal segments of random lengths.
    std::vector<std::byte> data;
    const int segments = 1 + static_cast<int>(rng.uniform_u64(8));
    for (int s = 0; s < segments; ++s) {
      const std::size_t len = rng.uniform_u64(200);
      if (rng.chance(0.5)) {
        data.insert(data.end(), len, std::byte{0});
      } else {
        auto lit = random_bytes(rng, len);
        data.insert(data.end(), lit.begin(), lit.end());
      }
    }
    const auto enc = rle_encode(data);
    ASSERT_EQ(rle_decode(enc, data.size()), data) << "trial " << trial;
  }
}

TEST(Store, PutFindLatest) {
  CheckpointStore store;
  Rng rng(11);
  Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 3;
  cp.payload = random_bytes(rng, 64);
  store.put(cp);
  EXPECT_NE(store.find(1, 3), nullptr);
  EXPECT_EQ(store.find(1, 2), nullptr);
  EXPECT_EQ(store.find(2, 3), nullptr);
  EXPECT_EQ(store.latest_epoch(1), 3u);
  EXPECT_FALSE(store.latest_epoch(2).has_value());
  EXPECT_EQ(store.total_bytes(), 64u);
}

TEST(Store, PutReplacesSameEpoch) {
  CheckpointStore store;
  Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 1;
  cp.payload.assign(100, std::byte{1});
  store.put(cp);
  cp.payload.assign(50, std::byte{2});
  store.put(cp);
  EXPECT_EQ(store.total_bytes(), 50u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(Store, GcDropsOldEpochs) {
  CheckpointStore store;
  for (Epoch e = 1; e <= 4; ++e) {
    Checkpoint cp;
    cp.vm = 7;
    cp.epoch = e;
    cp.payload.assign(10, std::byte{0});
    store.put(std::move(cp));
  }
  store.gc_before(3);
  EXPECT_EQ(store.find(7, 1), nullptr);
  EXPECT_EQ(store.find(7, 2), nullptr);
  EXPECT_NE(store.find(7, 3), nullptr);
  EXPECT_NE(store.find(7, 4), nullptr);
  EXPECT_EQ(store.total_bytes(), 20u);
}

TEST(Store, EraseAndDrop) {
  CheckpointStore store;
  Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 1;
  cp.payload.assign(10, std::byte{0});
  store.put(cp);
  cp.epoch = 2;
  store.put(cp);
  store.erase(1, 1);
  EXPECT_EQ(store.find(1, 1), nullptr);
  EXPECT_EQ(store.total_bytes(), 10u);
  store.erase(1, 99);  // no-op
  store.drop_vm(1);
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_EQ(store.entry_count(), 0u);
}

TEST(Store, SharedPagesCountOnceInResidentBytes) {
  CheckpointStore store;
  Rng rng(12);
  Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 1;
  cp.page_size = 16;
  cp.payload = random_bytes(rng, 64);
  store.put(cp);
  const StoredCheckpoint* prev = store.find(1, 1);
  ASSERT_NE(prev, nullptr);
  ASSERT_EQ(prev->pages.size(), 4u);

  // Epoch 2 rewrites one page and shares the other three with epoch 1.
  StoredCheckpoint next;
  next.vm = 1;
  next.epoch = 2;
  next.page_size = 16;
  next.pages = prev->pages;
  const auto fresh = random_bytes(rng, 16);
  next.pages[2] = {make_page(fresh), nullptr, 0};
  store.put(std::move(next));

  EXPECT_EQ(store.entry_count(), 2u);
  EXPECT_EQ(store.total_bytes(), 64u + 16u);  // shared pages count once
  const StoredCheckpoint* e2 = store.find(1, 2);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->size_bytes(), 64u);           // logical size is unshared
  store.erase(1, 1);
  EXPECT_EQ(store.total_bytes(), 64u);  // epoch 2 keeps every page alive
  auto flat = e2->payload();
  EXPECT_EQ(flat.size(), 64u);
  EXPECT_TRUE(std::equal(flat.begin() + 32, flat.begin() + 48,
                         fresh.begin()));
}

// --- Store accounting oracle ------------------------------------------------

// The test's model of a store: the logical payload of every live entry.
using Model = std::map<std::pair<vm::VmId, Epoch>, std::vector<std::byte>>;

// Contents and resident bytes against a from-scratch count: every distinct
// base and patch buffer a live entry references, each counted once.
void expect_matches_model(const CheckpointStore& store, const Model& model,
                          const std::string& where) {
  ASSERT_EQ(store.entry_count(), model.size()) << where;
  std::set<const PageBuffer*> bases, patches;
  for (const auto& [key, flat] : model) {
    const StoredCheckpoint* cp = store.find(key.first, key.second);
    ASSERT_NE(cp, nullptr) << where;
    ASSERT_TRUE(cp->payload_equals(flat)) << where;
    for (const PageSlot& slot : cp->pages) {
      bases.insert(slot.base.get());
      if (slot.patch) patches.insert(slot.patch.get());
    }
  }
  Bytes base_bytes = 0, patch_bytes = 0;
  for (const PageBuffer* b : bases) base_bytes += b->size();
  for (const PageBuffer* b : patches) patch_bytes += b->size();
  ASSERT_EQ(store.patch_bytes(), patch_bytes) << where;
  ASSERT_EQ(store.total_bytes(), base_bytes + patch_bytes) << where;
}

// Random sequences over three VMs of the operations a node's store sees:
// fresh puts (recovery, full exchange) whose lengths vary, so one VM's
// epochs differ in page count and may end in a partial page, puts derived
// from a live epoch the way capture derives them (shared slots, patches
// widened to one span, full-page writes promoted to a fresh base),
// same-epoch replaces, aborts (erase), commits (gc_before) and dropped
// VMs. Deriving from any live epoch, not only the latest, makes a buffer's
// epochs non-contiguous.
TEST(Store, ResidentBytesMatchFromScratchCountAfterEveryOperation) {
  constexpr Bytes kPageSize = 16;
  constexpr std::size_t kPagesPerVm[] = {4, 5, 6};
  const int seeds = fuzz_seed_count(8);
  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(0x570Eu + static_cast<std::uint64_t>(seed));
    CheckpointStore store;
    Model model;
    for (int step = 0; step < 600; ++step) {
      const auto vm = static_cast<vm::VmId>(1 + rng.uniform_u64(3));
      const std::size_t pages = kPagesPerVm[vm - 1];
      const Epoch epoch = 1 + rng.uniform_u64(6);
      std::vector<std::pair<vm::VmId, Epoch>> live_of_vm;
      for (const auto& [key, flat] : model)
        if (key.first == vm) live_of_vm.push_back(key);
      std::string op;
      switch (rng.uniform_u64(8)) {
        case 0: {  // fresh put
          op = "fresh put";
          Checkpoint cp;
          cp.vm = vm;
          cp.epoch = epoch;
          cp.page_size = kPageSize;
          const std::size_t tail =
              rng.chance(0.3) ? 1 + rng.uniform_u64(kPageSize - 1) : 0;
          cp.payload = random_bytes(
              rng, (pages - 1 + rng.uniform_u64(3)) * kPageSize + tail);
          model[{vm, epoch}] = cp.payload;
          store.put(std::move(cp));
          break;
        }
        case 1:
        case 2:
        case 3: {  // derived put, as capture builds it
          if (live_of_vm.empty()) continue;
          op = "derived put";
          const auto from = live_of_vm[rng.uniform_u64(live_of_vm.size())];
          const StoredCheckpoint* prev = store.find(from.first, from.second);
          StoredCheckpoint next;
          next.vm = vm;
          next.epoch = epoch;
          next.page_size = kPageSize;
          next.pages = prev->pages;
          std::vector<std::byte> flat = model[from];
          for (std::size_t p = 0; p < next.pages.size(); ++p) {
            if (!rng.chance(0.4)) continue;  // shared as is
            PageSlot& slot = next.pages[p];
            const std::size_t size = slot.base->size();  // last may be short
            std::size_t lo = rng.uniform_u64(size);
            std::size_t hi = lo + 1 + rng.uniform_u64(size - lo);
            if (rng.chance(0.2)) {  // a full-page write
              lo = 0;
              hi = size;
            }
            for (std::size_t i = lo; i < hi; ++i)
              flat[p * kPageSize + i] = static_cast<std::byte>(rng.next());
            const std::span<const std::byte> cur(flat.data() + p * kPageSize,
                                                 size);
            if (slot.patch) {
              lo = std::min<std::size_t>(lo, slot.patch_offset);
              hi = std::max<std::size_t>(
                  hi, slot.patch_offset + slot.patch->size());
            }
            if (hi - lo == size) {
              slot = {make_page(cur), nullptr, 0};
            } else {
              slot.patch = make_page(cur.subspan(lo, hi - lo));
              slot.patch_offset = static_cast<std::uint32_t>(lo);
            }
          }
          model[{vm, epoch}] = std::move(flat);
          store.put(std::move(next));
          break;
        }
        case 4:
        case 5:  // abort of an epoch, present or not
          op = "erase";
          store.erase(vm, epoch);
          model.erase({vm, epoch});
          break;
        case 6:  // commit
          op = "gc_before";
          store.gc_before(epoch);
          std::erase_if(model, [&](const auto& kv) {
            return kv.first.second < epoch;
          });
          break;
        default:
          if (!rng.chance(0.2)) continue;
          op = "drop_vm";
          store.drop_vm(vm);
          std::erase_if(model,
                        [&](const auto& kv) { return kv.first.first == vm; });
      }
      expect_matches_model(store, model,
                           "seed " + std::to_string(seed) + ", step " +
                               std::to_string(step) + ", " + op + " vm " +
                               std::to_string(vm) + " epoch " +
                               std::to_string(epoch));
      if (HasFatalFailure()) return;
    }
  }
}

// A buffer joins one store at a time: a put that references a buffer
// resident in another store fails before it changes anything, and once
// the buffer has left that store (erase, or the store's end) it may join
// another.
TEST(Store, ABufferJoinsOneStoreAtATime) {
  Rng rng(13);
  Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 1;
  cp.page_size = 16;
  cp.payload = random_bytes(rng, 64);

  CheckpointStore a, b;
  a.put(cp);
  const StoredCheckpoint held = *a.find(1, 1);  // shares a's four buffers
  StoredCheckpoint attempt = held;
  EXPECT_THROW(b.put(std::move(attempt)), ConfigError);
  EXPECT_EQ(b.entry_count(), 0u);
  EXPECT_EQ(b.total_bytes(), 0u);
  EXPECT_EQ(a.total_bytes(), 64u);

  a.erase(1, 1);
  EXPECT_EQ(a.total_bytes(), 0u);
  StoredCheckpoint moved = held;
  b.put(std::move(moved));
  EXPECT_EQ(b.total_bytes(), 64u);

  StoredCheckpoint outlives;
  {
    CheckpointStore c;
    c.put(cp);
    outlives = *c.find(1, 1);
  }
  CheckpointStore d;
  d.put(std::move(outlives));
  EXPECT_EQ(d.total_bytes(), 64u);
  EXPECT_EQ(b.total_bytes(), 64u);
}

}  // namespace
}  // namespace vdc::checkpoint
