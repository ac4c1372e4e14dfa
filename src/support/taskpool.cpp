#include "support/taskpool.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace ps::support {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align == 0) align = 1;
  for (;;) {
    if (!chunks_.empty()) {
      Chunk& c = chunks_[current_];
      auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
      std::uintptr_t aligned = (base + c.used + (align - 1)) & ~(std::uintptr_t(align) - 1);
      std::size_t offset = static_cast<std::size_t>(aligned - base);
      if (offset + bytes <= c.size) {
        c.used = offset + bytes;
        totalAllocated_ += bytes;
        return reinterpret_cast<void*>(aligned);
      }
      if (current_ + 1 < chunks_.size()) {
        ++current_;
        chunks_[current_].used = 0;
        continue;
      }
    }
    std::size_t size = std::max(chunkBytes_, bytes + align);
    chunks_.push_back(Chunk{std::make_unique<char[]>(size), size, 0});
    current_ = chunks_.size() - 1;
  }
}

void Arena::rewind(Mark m) {
  if (chunks_.empty()) return;
  current_ = std::min(m.chunk, chunks_.size() - 1);
  chunks_[current_].used = std::min(m.used, chunks_[current_].size);
}

std::size_t Arena::capacity() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

Arena& threadArena() {
  thread_local Arena arena;
  return arena;
}

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

namespace {

/// Which pool (if any) the current thread is a worker of, and its queue
/// slot. Helping threads that are not workers carry slot -1 and steal.
struct WorkerIdentity {
  const TaskPool* pool = nullptr;
  int slot = -1;
};
thread_local WorkerIdentity tlsWorker;

}  // namespace

TaskPool::IdleStats TaskPool::IdleStats::since(const IdleStats& start) const {
  return {idleNanos - start.idleNanos, stealAttempts - start.stealAttempts,
          stealFails - start.stealFails};
}

TaskPool::TaskPool(int nThreads) {
  if (nThreads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    nThreads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  threadCount_ = nThreads;
  idle_.resize(static_cast<std::size_t>(threadCount_) + 1);
  stealRows_.reserve(static_cast<std::size_t>(threadCount_) + 1);
  for (int i = 0; i <= threadCount_; ++i) {
    stealRows_.push_back(std::make_unique<StealRow>());
  }
  queues_.reserve(static_cast<std::size_t>(threadCount_));
  for (int i = 0; i < threadCount_; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  // Deterministic reference path: one FIFO, no workers; wait() drains the
  // queue inline in exact submission order.
  if (threadCount_ == 1) return;
  workers_.reserve(static_cast<std::size_t>(threadCount_));
  for (int i = 0; i < threadCount_; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_release);
  idleCv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool TaskPool::isOwner(int slot) const {
  return slot >= 0 && tlsWorker.pool == this && tlsWorker.slot == slot;
}

std::size_t TaskPool::telemetryRow(int slot) const {
  return isOwner(slot) ? static_cast<std::size_t>(slot)
                       : static_cast<std::size_t>(threadCount_);
}

void TaskPool::submit(WaitGroup& wg, std::function<void()> fn) {
  wg.pending_.fetch_add(1, std::memory_order_acq_rel);
  // A worker's subtask goes onto its own queue; any other caller (including
  // the 1-thread pool's, which has no workers) spreads round-robin.
  const std::size_t slot =
      tlsWorker.pool == this
          ? static_cast<std::size_t>(tlsWorker.slot)
          : nextQueue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lk(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(Task{std::move(fn), &wg});
  }
  idleCv_.notify_one();
}

void TaskPool::runTask(Task&& task) {
  WaitGroup* wg = task.wg;
  try {
    task.fn();
  } catch (...) {
    std::lock_guard<std::mutex> lk(wg->mu_);
    if (!wg->error_) wg->error_ = std::current_exception();
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  wg->pending_.fetch_sub(1, std::memory_order_acq_rel);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) idleCv_.notify_all();
}

bool TaskPool::tryRunOne(int preferredSlot) {
  const bool owner = isOwner(preferredSlot);
  Task task;
  bool have = false;
  if (preferredSlot >= 0) {
    // A worker runs its newest task first: the subtask it just spawned, so
    // one procedure's fan-out finishes before its worker starts another
    // procedure. The 1-thread pool's caller is no worker and drains
    // oldest-first, so execution order equals submission order.
    Queue& q = *queues_[static_cast<std::size_t>(preferredSlot)];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      if (owner) {
        task = std::move(q.tasks.back());
        q.tasks.pop_back();
      } else {
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
      }
      have = true;
    }
  }
  if (!have) {
    StealRow& counters = *stealRows_[telemetryRow(preferredSlot)];
    std::size_t n = queues_.size();
    std::size_t start = preferredSlot >= 0
                            ? (static_cast<std::size_t>(preferredSlot) + 1) % n
                            : 0;
    for (std::size_t i = 0; i < n && !have; ++i) {
      std::size_t v = (start + i) % n;
      if (preferredSlot >= 0 && v == static_cast<std::size_t>(preferredSlot)) continue;
      counters.attempts.fetch_add(1, std::memory_order_relaxed);
      Queue& q = *queues_[v];
      std::lock_guard<std::mutex> lk(q.mu);
      if (!q.tasks.empty()) {
        // Steal the oldest task: the victim works at the back, so the two
        // meet only on its last task.
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
        have = true;
        steals_.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters.fails.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!have) return false;
  runTask(std::move(task));
  return true;
}

void TaskPool::recordIdle(std::size_t row, std::uint64_t nanos) {
  idle_[row].idleNanos += nanos;
}

std::vector<TaskPool::IdleStats> TaskPool::idleStats() const {
  std::vector<IdleStats> rows;
  {
    std::lock_guard<std::mutex> lk(idleMu_);
    rows = idle_;
  }
  for (std::size_t i = 0; i < rows.size() && i < stealRows_.size(); ++i) {
    rows[i].stealAttempts =
        stealRows_[i]->attempts.load(std::memory_order_relaxed);
    rows[i].stealFails = stealRows_[i]->fails.load(std::memory_order_relaxed);
  }
  return rows;
}

void TaskPool::workerLoop(int slot) {
  tlsWorker = WorkerIdentity{this, slot};
  while (!stop_.load(std::memory_order_acquire)) {
    if (tryRunOne(slot)) continue;
    // Park. Announce first, then re-check once: a submitter either observes
    // the announcement (and notifies) or this re-check observes its task —
    // the seq_cst pair closes the classic missed-wakeup window. The timed
    // wait stays as a backstop regardless.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (tryRunOne(slot)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(idleMu_);
      if (stop_.load(std::memory_order_acquire)) {
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      const auto t0 = std::chrono::steady_clock::now();
      idleCv_.wait_for(lk, std::chrono::milliseconds(2));
      recordIdle(static_cast<std::size_t>(slot),
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count()));
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  tlsWorker = WorkerIdentity{};
}

void TaskPool::wait(WaitGroup& wg) {
  int slot = -1;
  if (tlsWorker.pool == this) {
    slot = tlsWorker.slot;  // nested wait from inside one of our tasks
  } else if (threadCount_ == 1) {
    slot = 0;  // single-queue pool: the waiting thread is the executor
  }
  // Workers idle into their own telemetry row; any other waiting thread
  // (the session thread driving runAll, a helper) shares the final row.
  const std::size_t idleRow = telemetryRow(slot);
  while (wg.pending() > 0) {
    if (tryRunOne(slot)) continue;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (wg.pending() == 0 || tryRunOne(slot)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(idleMu_);
      const auto t0 = std::chrono::steady_clock::now();
      idleCv_.wait_for(lk, std::chrono::milliseconds(1),
                       [&] { return wg.pending() == 0; });
      recordIdle(idleRow,
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count()));
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lk(wg.mu_);
  if (wg.error_) {
    std::exception_ptr e = wg.error_;
    wg.error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void TaskPool::runAll(std::vector<std::function<void()>> thunks) {
  WaitGroup wg;
  for (auto& fn : thunks) submit(wg, std::move(fn));
  wait(wg);
}

// ---------------------------------------------------------------------------
// TaskGraph
// ---------------------------------------------------------------------------

std::size_t TaskGraph::add(std::function<void()> fn) {
  nodes_.push_back(std::make_unique<Node>());
  nodes_.back()->fn = std::move(fn);
  return nodes_.size() - 1;
}

void TaskGraph::addEdge(std::size_t before, std::size_t after) {
  if (before >= nodes_.size() || after >= nodes_.size() || before == after)
    throw std::logic_error("TaskGraph::addEdge: bad node index");
  std::vector<std::size_t>& out = nodes_[before]->out;
  if (std::find(out.begin(), out.end(), after) != out.end()) return;
  out.push_back(after);
  nodes_[after]->pending.fetch_add(1, std::memory_order_relaxed);
}

void TaskGraph::submitNode(TaskPool& pool, WaitGroup& wg, std::size_t index) {
  pool.submit(wg, [this, &pool, &wg, index] {
    nodes_[index]->fn();
    executedNodes_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t succ : nodes_[index]->out) {
      if (nodes_[succ]->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        submitNode(pool, wg, succ);
    }
  });
}

void TaskGraph::run(TaskPool& pool) {
  WaitGroup wg;
  // Remove each node's "start" token. A node whose predecessors all finished
  // before its token is removed gets submitted HERE; otherwise the last
  // finishing predecessor's decrement reaches zero and submits it. Either
  // way the submission is unique — reading pending==0 and then submitting
  // would instead race with predecessors that complete mid-loop.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      submitNode(pool, wg, i);
  }
  pool.wait(wg);
  if (executedNodes_.load(std::memory_order_relaxed) != nodes_.size())
    throw std::logic_error("TaskGraph::run: cycle left nodes unrunnable");
}

void TaskGraph::runInOrder() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t succ : nodes_[i]->out) {
      if (succ < i)
        throw std::logic_error("TaskGraph::runInOrder: edge points backwards");
    }
    nodes_[i]->fn();
  }
}

}  // namespace ps::support
