// Tests for the checkpoint substrate: the RLE encoder (round-tripped
// through the reference decoder) and the in-memory store. The wire frame
// and its decoder are covered by stream_ingest_test.

#include <gtest/gtest.h>

#include "checkpoint/rle.hpp"
#include "checkpoint/store.hpp"
#include "common/rng.hpp"
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
  next.pages[2] = std::make_shared<const std::vector<std::byte>>(
      fresh.begin(), fresh.end());
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

}  // namespace
}  // namespace vdc::checkpoint
