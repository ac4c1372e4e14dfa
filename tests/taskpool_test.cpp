#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "support/taskpool.h"

namespace ps::support {
namespace {

TEST(TaskPool, ExternalSubmissionStormRunsEveryTask) {
  TaskPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 2000;
  std::atomic<long long> ran{0};
  WaitGroup wg;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.submit(wg, [&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait(wg);
  EXPECT_EQ(ran.load(std::memory_order_relaxed),
            static_cast<long long>(kSubmitters) * kTasksEach);
  EXPECT_EQ(pool.tasksExecuted(),
            static_cast<std::uint64_t>(kSubmitters) * kTasksEach);
}

TEST(TaskPool, NestedFanOutFromWorkerTasks) {
  TaskPool pool(4);
  constexpr int kOuter = 64;
  constexpr int kInner = 32;
  std::atomic<long long> ran{0};
  std::vector<std::function<void()>> outer;
  outer.reserve(kOuter);
  for (int i = 0; i < kOuter; ++i) {
    outer.emplace_back([&pool, &ran] {
      // Worker-side submits land in the worker's own queue and must be
      // waitable from inside a task without deadlock.
      WaitGroup inner;
      for (int j = 0; j < kInner; ++j) {
        pool.submit(inner, [&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
      pool.wait(inner);
    });
  }
  pool.runAll(std::move(outer));
  EXPECT_EQ(ran.load(std::memory_order_relaxed),
            static_cast<long long>(kOuter) * kInner);
}

TEST(TaskPool, IdleStatsExposeStealTelemetry) {
  TaskPool pool(4);
  std::atomic<long long> ran{0};
  std::vector<std::function<void()>> thunks;
  for (int i = 0; i < 256; ++i) {
    thunks.emplace_back([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.runAll(std::move(thunks));
  const std::vector<TaskPool::IdleStats> rows = pool.idleStats();
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(pool.threadCount()) + 1);
  std::uint64_t attempts = 0, fails = 0;
  for (const auto& r : rows) {
    attempts += r.stealAttempts;
    fails += r.stealFails;
  }
  // Every fail is one of the attempts.
  EXPECT_LE(fails, attempts);
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 256);
}

// The determinism anchor: a 1-thread pool runs tasks in submission order.
TEST(TaskPool, SingleThreadPoolIsAlwaysSequential) {
  TaskPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> thunks;
  for (int i = 0; i < 16; ++i) {
    thunks.emplace_back([&order, i] { order.push_back(i); });
  }
  pool.runAll(std::move(thunks));
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

// The order tests below run a 2-worker pool whose main thread blocks on a
// promise rather than in pool.wait, so it never helps: which thread runs a
// task, and when, is decided by the workers' queue discipline alone.

/// Subtask indices in the order they ran, with the thread that ran each.
struct RunLog {
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::thread::id> threads;

  void record(int i) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  }
};

TEST(TaskPool, OwnerRunsItsNewestSubtaskFirst) {
  constexpr int kSubtasks = 8;
  TaskPool pool(2);
  std::atomic<bool> blockerRunning{false};
  std::atomic<bool> releaseBlocker{false};
  std::promise<std::thread::id> spawnerDone;
  RunLog log;
  WaitGroup outer;
  // One worker is held here until the other worker's fan-out has finished.
  pool.submit(outer, [&] {
    blockerRunning.store(true, std::memory_order_release);
    while (!releaseBlocker.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  pool.submit(outer, [&] {
    while (!blockerRunning.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    WaitGroup inner;
    for (int i = 0; i < kSubtasks; ++i) {
      pool.submit(inner, [&log, i] { log.record(i); });
    }
    pool.wait(inner);
    spawnerDone.set_value(std::this_thread::get_id());
  });
  const std::thread::id spawner = spawnerDone.get_future().get();
  releaseBlocker.store(true, std::memory_order_release);
  pool.wait(outer);

  ASSERT_EQ(log.order.size(), static_cast<std::size_t>(kSubtasks));
  for (int k = 0; k < kSubtasks; ++k) {
    EXPECT_EQ(log.order[static_cast<std::size_t>(k)], kSubtasks - 1 - k);
    EXPECT_EQ(log.threads[static_cast<std::size_t>(k)], spawner);
  }
}

TEST(TaskPool, ThiefTakesTheOldestTaskFirst) {
  constexpr int kSubtasks = 8;
  TaskPool pool(2);
  std::atomic<int> done{0};
  std::promise<std::thread::id> spawnerDone;
  RunLog log;
  WaitGroup outer;
  WaitGroup inner;
  pool.submit(outer, [&] {
    for (int i = 0; i < kSubtasks; ++i) {
      pool.submit(inner, [&log, &done, i] {
        log.record(i);
        done.fetch_add(1, std::memory_order_acq_rel);
      });
    }
    // Spin without helping: only the other worker can run the subtasks.
    while (done.load(std::memory_order_acquire) < kSubtasks) {
      std::this_thread::yield();
    }
    spawnerDone.set_value(std::this_thread::get_id());
  });
  const std::thread::id spawner = spawnerDone.get_future().get();
  pool.wait(outer);
  pool.wait(inner);

  ASSERT_EQ(log.order.size(), static_cast<std::size_t>(kSubtasks));
  for (int k = 0; k < kSubtasks; ++k) {
    EXPECT_EQ(log.order[static_cast<std::size_t>(k)], k);
    EXPECT_NE(log.threads[static_cast<std::size_t>(k)], spawner);
  }
}

}  // namespace
}  // namespace ps::support
