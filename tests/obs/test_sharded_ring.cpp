#include "obs/sharded_ring.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

namespace obs = harmony::obs;

namespace {

constexpr std::size_t kShards = obs::ShardedRing<int>::kShards;

// One thread records into one shard, so it keeps capacity / kShards records.
TEST(ShardedRing, SplitsCapacityWithAtLeastOneSlotPerShard) {
  obs::ShardedRing<int> ring(kShards * 10);
  EXPECT_EQ(ring.capacity(), kShards * 10);
  for (int i = 0; i < 12; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 10u);
  obs::ShardedRing<int> tiny(1);
  EXPECT_EQ(tiny.capacity(), kShards);
  tiny.push(1);
  tiny.push(2);
  EXPECT_EQ(tiny.snapshot(), (std::vector<int>{2}));
  EXPECT_EQ(tiny.dropped(), 1u);
}

TEST(ShardedRing, FullShardOverwritesOldestAndCountsIt) {
  obs::ShardedRing<int> ring(kShards * 4);  // 4 per shard; one thread uses one
  for (int i = 0; i < 11; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{7, 8, 9, 10}));  // oldest first
}

TEST(ShardedRing, ClearKeepsTheDroppedCount) {
  obs::ShardedRing<int> ring(kShards * 2);
  for (int i = 0; i < 5; ++i) ring.push(i);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.dropped(), 3u);
  ring.push(42);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{42}));
  EXPECT_EQ(ring.dropped(), 3u);
}

// A thread keeps its slot for life, so its records land in one shard of
// every ring.
TEST(ShardedRing, ThreadKeepsOneSlotForLife) {
  const std::size_t mine = obs::ring_thread_slot();
  EXPECT_EQ(obs::ring_thread_slot(), mine);
  std::size_t other = mine;
  std::thread([&other] { other = obs::ring_thread_slot(); }).join();
  EXPECT_NE(other, mine);

  obs::ShardedRing<int> a(kShards * 3);
  obs::ShardedRing<int> b(kShards * 3);
  for (int i = 0; i < 5; ++i) {
    a.push(i);
    b.push(i);
  }
  EXPECT_EQ(a.dropped(), 2u);
  EXPECT_EQ(b.dropped(), 2u);
}

// kShards concurrent pushers, each filling exactly its shard: nothing may be
// overwritten, whatever the threads' ids are.
TEST(ShardedRing, OnePusherPerShardFillsTheWholeCapacity) {
  constexpr int kPerShard = 512;
  obs::ShardedRing<int> ring(kShards * kPerShard);
  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (std::size_t t = 0; t < kShards; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < kPerShard; ++i) ring.push(static_cast<int>(t) * kPerShard + i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ring.size(), ring.capacity());
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.snapshot().size(), ring.capacity());
}

// Readers snapshot while writers overwrite: every snapshot stays within
// the bound (and TSan sees every access under a shard lock).
TEST(ShardedRing, SnapshotsWhileWritersWrap) {
  obs::ShardedRing<int> ring(kShards * 16);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&ring] {
      for (int i = 0; i < 5000; ++i) ring.push(i);
    });
  }
  for (int r = 0; r < 50; ++r) EXPECT_LE(ring.snapshot().size(), ring.capacity());
  for (auto& th : writers) th.join();
  EXPECT_EQ(ring.size() + ring.dropped(), 4u * 5000u);
}

}  // namespace
