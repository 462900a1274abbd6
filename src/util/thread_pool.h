#pragma once
// Fixed-size worker pool with a blocking parallel_for, asynchronous jobs
// for pipelined execution, and per-worker scratch arenas.
//
// The batched evaluation engine (core/evaluator.h) fans read-only GP and
// surrogate predictions out across cores; everything that must stay ordered
// (REINFORCE feedback, finalist offers, trace sampling) happens on the
// calling thread.  Two submission shapes cover both needs:
//
//   ThreadPool pool(3);                       // 3 workers + the caller
//   pool.parallel_for(0, n, [&](std::size_t i) { out[i] = f(in[i]); });
//
//   // Pipelining: post stage k+1, compute stage k on the caller, join.
//   ThreadPool::JobTicket t = pool.submit(0, n, fill_next_buffer);
//   coordinator_work_on_current_buffer();     // overlaps the posted job
//   t.wait();                                 // caller helps drain stragglers
//
// parallel_for blocks until every index completed; the calling thread
// participates in the work, so ThreadPool(0) is valid and simply runs the
// loop inline — callers never need a serial special case.  submit() does
// NOT run anything on the caller until wait(), which is what lets the
// coordinator overlap its own serial stage with the posted one.  Several
// jobs may be in flight at once (workers drain them oldest-first), so a
// parallel_for issued while a submitted job is still running is legal and
// simply queues behind it — the one thing that stays forbidden is calling
// back into the pool from inside a job body (ContractViolation; it used to
// deadlock).  Exceptions thrown by a body are captured and the one with the
// lowest index is rethrown on the caller once the job has drained.
//
// Per-worker scratch: every pool thread (and the caller, slot 0) owns a
// ScratchArena — a monotonic bump allocator whose memory is retained across
// jobs, so steady-state hot loops stop paying malloc per element.  Bodies
// reach their arena via pool.scratch(); arenas are indexed by
// current_slot(), so two threads never share one.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "base/thread_annotations.h"

namespace yoso {

/// Monotonic per-thread scratch allocator.  alloc<T>() bumps a pointer into
/// block-chained storage that is retained across reset() calls, so a hot
/// loop that allocates the same buffers every iteration settles into zero
/// heap traffic.  Pointers stay valid until the frame they were allocated
/// in is released (growth appends blocks, it never moves old ones).
/// Not thread-safe: each arena belongs to exactly one pool slot.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(ScratchArena&&) = default;
  ScratchArena& operator=(ScratchArena&&) = default;

  /// RAII marker: restores the arena's bump position on destruction, so
  /// nested users (e.g. the evaluator calling into the GP) compose without
  /// clobbering each other's allocations.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena)
        : arena_(arena), block_(arena.active_), used_(arena.active_used()) {}
    ~Frame() { arena_.rewind(block_, used_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena& arena_;
    std::size_t block_;
    std::size_t used_;
  };

  /// `count` default-uninitialized Ts; valid until the enclosing Frame (or
  /// the arena) is destroyed.  T must be trivial — nothing is constructed
  /// or destroyed.
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_copyable_v<T>,
                  "ScratchArena holds raw bytes: trivial types only");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Bytes currently reserved across all blocks (observability/tests).
  std::size_t capacity_bytes() const;

 private:
  friend class Frame;
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate(std::size_t bytes, std::size_t align);
  std::size_t active_used() const {
    return blocks_.empty() ? 0 : blocks_[active_].used;
  }
  void rewind(std::size_t block, std::size_t used);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
};

class ThreadPool {
 public:
  struct Job;

  /// Handle to a submitted asynchronous job.  wait() drains remaining
  /// indices on the caller, blocks for stragglers, and rethrows the
  /// lowest-index exception if any body threw.  The destructor waits too
  /// (swallowing errors), so a ticket can never outlive its buffers.
  class JobTicket {
   public:
    JobTicket() = default;
    ~JobTicket();
    JobTicket(JobTicket&& other) noexcept;
    JobTicket& operator=(JobTicket&& other) noexcept;
    JobTicket(const JobTicket&) = delete;
    JobTicket& operator=(const JobTicket&) = delete;

    bool valid() const { return job_ != nullptr; }
    void wait();

   private:
    friend class ThreadPool;
    JobTicket(ThreadPool* pool, std::shared_ptr<Job> job)
        : pool_(pool), job_(std::move(job)) {}
    ThreadPool* pool_ = nullptr;
    std::shared_ptr<Job> job_;
  };

  /// The most workers a pool may spawn.  An absurd worker count is always
  /// an upstream bug: the pool is sized from hardware_concurrency or a small
  /// config knob, never from data.
  static constexpr std::size_t kMaxWorkers = 1024;

  /// Spawns `workers` threads (at most kMaxWorkers).  Zero is valid:
  /// parallel_for then runs on the caller only and submit() runs everything
  /// inside wait().  A pool sized for a total of T compute threads is
  /// ThreadPool(T - 1), since the caller always participates.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return workers_.size(); }

  /// Runs fn(i) for every i in [begin, end) across the workers and the
  /// calling thread; blocks until all indices are done.  If any invocation
  /// throws, the remaining indices are drained without running the body and
  /// the exception with the lowest index is rethrown on the caller.
  /// Preconditions (ContractViolation otherwise): fn is callable,
  /// begin <= end, and the caller is not inside a body run by this pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Posts fn(i) for i in [begin, end) without blocking and without caller
  /// participation: workers start on it immediately while the caller keeps
  /// doing its own (serial) stage — the pipelining primitive.  The function
  /// is copied into the job, so the lambda may go out of scope; everything
  /// it captures by reference must stay alive until wait() returns.
  /// Preconditions as for parallel_for.
  JobTicket submit(std::size_t begin, std::size_t end,
                   std::function<void(std::size_t)> fn);

  /// Slot of the calling thread within this pool: workers occupy 1..N and
  /// any other thread (by construction the coordinator) maps to 0.  Stable
  /// for the lifetime of the thread, so it can index per-thread state.
  std::size_t current_slot() const;

  /// The calling thread's scratch arena (see ScratchArena).
  ScratchArena& scratch() { return arenas_[current_slot()]; }

  /// Maps a user-facing `threads` knob to a worker count for this machine:
  /// 0 means "all hardware threads"; otherwise the request is honoured.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  void worker_loop(std::size_t slot);
  static void run_chunk(ThreadPool* pool, Job& job);
  std::shared_ptr<Job> post_job(std::size_t begin, std::size_t count,
                                const std::function<void(std::size_t)>* fn,
                                std::function<void(std::size_t)> owned);
  void finish_job(const std::shared_ptr<Job>& job);
  void wait_job(Job& job);
  void require_not_in_body(const char* what) const;

  std::vector<std::thread> workers_;
  std::vector<ScratchArena> arenas_;  // slot-indexed: caller + workers
  bool spin_;  // short pre-sleep spin, pointless on single-core hosts
  // Cached instrument handles (process-lifetime, see MetricsRegistry): the
  // worker loop must not pay a name lookup per job.  All updates are gated
  // on obs::enabled(), so an idle registry costs one relaxed load.
  obs::Counter* obs_jobs_;
  obs::Counter* obs_busy_ns_;
  obs::Counter* obs_idle_ns_;
  obs::Gauge* obs_depth_;
  Mutex mutex_;
  std::condition_variable wake_;  // paired with mutex_
  // Queue of in-flight jobs (oldest first) and the shutdown flag — the
  // coordinator/worker handshake state.  Jobs are removed by whoever waits
  // on them; workers merely skip entries with no indices left to claim.
  std::deque<std::shared_ptr<Job>> queue_ YOSO_GUARDED_BY(mutex_);
  bool stop_ YOSO_GUARDED_BY(mutex_) = false;
  // Bumped on every post; lets workers spin-check for new work without the
  // lock before committing to a condition-variable sleep.
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace yoso
