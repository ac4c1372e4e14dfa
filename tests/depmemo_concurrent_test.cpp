#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dependence/testsuite.h"

namespace ps::dep {
namespace {

// The memo is a sharded content-addressed cache: every key renders every
// input of its test, so an entry is never stale and nothing is invalidated.
// These tests hammer the sharded table from many threads.

LevelResult marked(long long tag) {
  LevelResult r;
  r.answer = DepAnswer::NoDependence;
  r.distance = tag;
  return r;
}

TEST(DepMemoConcurrent, ConcurrentInsertsOfOverlappingKeysAllVisible) {
  DepMemo memo;
  constexpr int kThreads = 8;
  constexpr int kKeys = 256;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        memo.insert(MemoKey("key" + std::to_string(k)), marked(k));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(memo.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    auto hit = memo.lookup(MemoKey("key" + std::to_string(k)));
    ASSERT_TRUE(hit.has_value()) << k;
    EXPECT_EQ(hit->answer, DepAnswer::NoDependence);
    EXPECT_EQ(hit->distance, k);
  }
}

TEST(DepMemoConcurrent, GrowthPreservesEveryDistinctKey) {
  DepMemo memo;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 512;  // forces several rehashes per shard
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        memo.insert(MemoKey("g" + std::to_string(t) + "_" + std::to_string(i)),
                    marked(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(memo.size(),
            static_cast<std::size_t>(kThreads) * kKeysPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const MemoKey key("g" + std::to_string(t) + "_" + std::to_string(i));
      ASSERT_TRUE(memo.lookup(key).has_value())
          << key.text << " lost during concurrent growth";
    }
  }
  EXPECT_EQ(memo.exportEntries().size(), memo.size());
}

TEST(DepMemoConcurrent, ShardingSpreadsKeys) {
  // Not a correctness requirement, but if every key landed in one shard the
  // striped locking would be pointless; guard against a degenerate hash.
  EXPECT_GE(DepMemo::shardCount(), 8u);
}

}  // namespace
}  // namespace ps::dep
