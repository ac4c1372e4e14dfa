#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dependence/testsuite.h"

namespace ps::dep {
namespace {

// The memo's generation protocol: a client captures g = generation() when a
// build starts, tags every insert with g, and a lookup tagged g only sees
// entries stamped g. These tests hammer that contract from many threads
// while invalidateAll() bumps the generation mid-flight.

LevelResult stamped(std::uint64_t gen) {
  LevelResult r;
  r.answer = DepAnswer::NoDependence;
  // Encode the writer's captured generation in the payload so a reader can
  // detect a cross-generation leak: seeing distance != its own captured
  // generation would mean a stale entry survived an invalidation.
  r.distance = static_cast<long long>(gen);
  return r;
}

TEST(DepMemoConcurrent, NoStaleHitsAcrossGenerations) {
  DepMemo memo;
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;  // overlapping keys, 2 shards' worth of contention
  constexpr int kItersPerThread = 4000;
  std::atomic<bool> stop{false};
  std::atomic<long long> staleHits{0};
  std::atomic<long long> hits{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::string key = "k" + std::to_string((i * 7 + t) % kKeys);
        // Capture-once, exactly as DependenceTester does at construction.
        const std::uint64_t gen = memo.generation();
        if (auto hit = memo.lookup(key, gen)) {
          ++hits;
          if (hit->distance != static_cast<long long>(gen)) ++staleHits;
        } else {
          memo.insert(key, stamped(gen), gen);
        }
      }
    });
  }
  // A dedicated invalidator bumps the generation continuously while the
  // workers read and write.
  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      memo.invalidateAll();
      std::this_thread::yield();
    }
  });

  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  invalidator.join();

  EXPECT_EQ(staleHits.load(), 0)
      << "a lookup returned an entry inserted under a different generation";
  // With only 32 keys and 32k probes, plenty of lookups must have hit
  // within a generation window — otherwise the test exercised nothing.
  EXPECT_GT(hits.load(), 0);
}

TEST(DepMemoConcurrent, ConcurrentInsertsOfOverlappingKeysAllVisible) {
  DepMemo memo;
  constexpr int kThreads = 8;
  constexpr int kKeys = 256;
  const std::uint64_t gen = memo.generation();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        memo.insert("key" + std::to_string(k), stamped(gen), gen);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(memo.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    auto hit = memo.lookup("key" + std::to_string(k), gen);
    ASSERT_TRUE(hit.has_value()) << k;
    EXPECT_EQ(hit->answer, DepAnswer::NoDependence);
    EXPECT_EQ(hit->distance, static_cast<long long>(gen));
  }
}

TEST(DepMemoConcurrent, InvalidateAllHidesEveryEarlierEntry) {
  DepMemo memo;
  const std::uint64_t g0 = memo.generation();
  for (int k = 0; k < 64; ++k) {
    memo.insert("key" + std::to_string(k), stamped(g0), g0);
  }
  memo.invalidateAll();
  const std::uint64_t g1 = memo.generation();
  ASSERT_NE(g0, g1);
  for (int k = 0; k < 64; ++k) {
    EXPECT_FALSE(memo.lookup("key" + std::to_string(k), g1).has_value()) << k;
    // The old generation's view is still intact for a client that captured
    // g0 before the bump — exactly why mid-build invalidation is safe.
    EXPECT_TRUE(memo.lookup("key" + std::to_string(k), g0).has_value()) << k;
  }
}

// invalidateView storms while readers/writers run the capture-once protocol:
// each round-trip captures (floor, gen) exactly as DependenceTester does,
// inserts stamped entries, and checks every hit's stamp lies in its window.
// A stale hit (stamp outside [floor, gen]) is the bug the epoch windows
// exist to prevent.
TEST(DepMemoConcurrent, InvalidateViewStormMidLookupZeroStaleHits) {
  DepMemo memo;
  constexpr int kWorkers = 6;
  constexpr int kKeys = 64;
  constexpr int kIters = 3000;
  std::vector<DepMemo::ViewId> views;
  views.push_back(0);
  for (int i = 1; i < kWorkers; ++i) views.push_back(memo.createView());
  std::atomic<long long> staleHits{0};
  std::atomic<long long> hits{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      const DepMemo::ViewId view = views[w];
      for (int i = 0; i < kIters; ++i) {
        // Capture once, like DependenceTester's constructor.
        const std::uint64_t floor = memo.floorOf(view);
        const std::uint64_t gen = memo.generation();
        const MemoKey key("k" + std::to_string((w * kIters + i) % kKeys));
        if (std::optional<LevelResult> hit = memo.lookup(key, floor, gen)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          const auto stamp = static_cast<std::uint64_t>(*hit->distance);
          if (stamp < floor || stamp > gen) {
            staleHits.fetch_add(1, std::memory_order_relaxed);
          }
        }
        memo.insert(key, stamped(gen), gen);
        if (i % 64 == 0) memo.invalidateView(view);
      }
    });
  }
  // A dedicated invalidator keeps epochs moving while lookups are in flight.
  threads.emplace_back([&] {
    int v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      memo.invalidateView(views[v++ % views.size()]);
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWorkers; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(staleHits.load(std::memory_order_relaxed), 0);
  EXPECT_GT(hits.load(std::memory_order_relaxed), 0);
  EXPECT_LE(memo.size(), static_cast<std::size_t>(kKeys));
}

TEST(DepMemoConcurrent, GrowthPreservesEveryDistinctKey) {
  DepMemo memo;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 512;  // forces several rehashes per shard
  const std::uint64_t gen = memo.generation();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        memo.insert(MemoKey("g" + std::to_string(t) + "_" + std::to_string(i)),
                    stamped(gen), gen);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(memo.size(),
            static_cast<std::size_t>(kThreads) * kKeysPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const MemoKey key("g" + std::to_string(t) + "_" + std::to_string(i));
      ASSERT_TRUE(memo.lookup(key, gen).has_value())
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
