#ifndef PS_SUPPORT_TASKPOOL_H
#define PS_SUPPORT_TASKPOOL_H

// Parallel analysis engine primitives.
//
// Two layers, bottom up:
//
//  - TaskPool: a fixed-size pool of workers, one mutex-guarded deque each.
//    Scheduling is owner-first, the order of a work-stealing deque: a
//    worker's submissions go onto its own deque and it runs its newest task
//    first; thieves and external waiters take a deque's oldest task.
//    Waiting threads *help*: they execute queued tasks instead of blocking,
//    so tasks may safely spawn subtasks into the same pool and wait for them
//    (per-nest fan-out inside a per-procedure task).
//
//  - TaskGraph: a small DAG runner with per-node dependency counts, used to
//    sequence interprocedural summary tasks callee-before-caller and to gate
//    per-procedure analysis on summary completion.
//
// Determinism contract: a pool constructed with nThreads == 1 spawns no
// worker threads at all. submit() enqueues into a single FIFO and wait()
// drains it on the calling thread, so execution order equals submission
// order exactly. That makes the 1-thread parallel path bit-identical to the
// sequential path — the property Session::analyzeParallel(1) relies on.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ps::support {

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

/// Tracks completion of a batch of tasks. pending() reaches zero when every
/// task submitted against this group has finished; the first exception
/// thrown by a member task is captured and rethrown from TaskPool::wait.
class WaitGroup {
 public:
  [[nodiscard]] long pending() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class TaskPool;
  std::atomic<long> pending_{0};
  std::mutex mu_;
  std::exception_ptr error_;
};

class TaskPool {
 public:
  /// nThreads == 0 picks std::thread::hardware_concurrency().
  /// nThreads == 1 spawns no threads: everything runs inline, FIFO, on the
  /// thread that calls wait()/runAll() — the deterministic reference path.
  explicit TaskPool(int nThreads = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] int threadCount() const { return threadCount_; }
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tasksExecuted() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Steal-latency telemetry for one executor: how long it sat idle (no
  /// runnable or stealable task anywhere).
  ///
  /// stealAttempts/stealFails make contention visible alongside idleness:
  /// an attempt is one probe of a victim's queue; a fail is a probe that
  /// found the victim empty. A high fail/attempt ratio with low idle time
  /// means executors are spinning over each other's queues rather than
  /// parking.
  struct IdleStats {
    std::uint64_t idleNanos = 0;
    std::uint64_t stealAttempts = 0;
    std::uint64_t stealFails = 0;

    /// Counter difference vs an earlier snapshot of the same row.
    [[nodiscard]] IdleStats since(const IdleStats& start) const;
  };

  /// One row per worker (0..threadCount()-1) plus a final row aggregating
  /// external waiters (threads blocked in wait() that are not pool
  /// workers — e.g. the session thread driving runAll). Counters are
  /// cumulative over the pool's lifetime; callers diff snapshots.
  [[nodiscard]] std::vector<IdleStats> idleStats() const;

  /// Enqueue a task accounted against `wg`.
  void submit(WaitGroup& wg, std::function<void()> fn);

  /// Block until every task in `wg` has completed, helping to execute
  /// queued tasks meanwhile. Rethrows the first captured task exception.
  void wait(WaitGroup& wg);

  /// Convenience: submit all thunks against a fresh group and wait.
  void runAll(std::vector<std::function<void()>> thunks);

 private:
  struct Task {
    std::function<void()> fn;
    WaitGroup* wg = nullptr;
  };

  /// One locked deque per worker: the owner works at the back, everyone
  /// else takes from the front.
  struct Queue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// Per-executor steal counters, written on the hot path with relaxed
  /// atomics (the idle_ rows live under idleMu_ and are only touched when
  /// parking). Padded so two executors never share a line.
  struct alignas(64) StealRow {
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> fails{0};
  };

  void workerLoop(int slot);
  bool tryRunOne(int preferredSlot);
  void runTask(Task&& task);
  /// Requires idleMu_ held (both call sites already own it for the condvar).
  void recordIdle(std::size_t row, std::uint64_t nanos);
  /// True when the calling thread is this pool's worker for `slot`.
  [[nodiscard]] bool isOwner(int slot) const;
  /// The owner's own row, or the shared external-waiter row.
  [[nodiscard]] std::size_t telemetryRow(int slot) const;

  int threadCount_ = 1;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<StealRow>> stealRows_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> nextQueue_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  mutable std::mutex idleMu_;
  std::condition_variable idleCv_;
  std::vector<IdleStats> idle_;  // workers + 1 external row; under idleMu_
};

// ---------------------------------------------------------------------------
// TaskGraph
// ---------------------------------------------------------------------------

/// DAG of tasks with dependency counts. Nodes whose pending count is zero
/// are submitted in insertion order; when a node finishes it decrements its
/// successors and submits any that become ready. run() drives the whole
/// graph on a pool and returns when every node has executed.
class TaskGraph {
 public:
  std::size_t add(std::function<void()> fn);
  /// `after` will not start until `before` has finished. Duplicate edges
  /// are deduplicated. Must be called before run().
  void addEdge(std::size_t before, std::size_t after);
  /// Executes the graph; throws if a cycle leaves nodes unrunnable or if a
  /// node throws. Single-use: a TaskGraph cannot be run twice.
  void run(TaskPool& pool);
  /// Executes every node on the calling thread in insertion order; throws
  /// if an edge points backwards (insertion order must be topological).
  void runInOrder();

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    std::function<void()> fn;
    /// Unfinished predecessors plus one "start" token that run() removes.
    /// Whoever drops the count to zero submits the node — exactly once,
    /// even when predecessors finish while run() is still seeding roots.
    std::atomic<int> pending{1};
    std::vector<std::size_t> out;
  };

  void submitNode(TaskPool& pool, WaitGroup& wg, std::size_t index);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<std::size_t> executedNodes_{0};
};

}  // namespace ps::support

#endif  // PS_SUPPORT_TASKPOOL_H
