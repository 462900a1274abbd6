#include "util/thread_pool.h"

#include <cstdint>
#include <limits>

#include "base/contract.h"
#include "base/thread_annotations.h"
#include "obs/timebase.h"

namespace yoso {

namespace {

// Identity of the calling thread relative to a pool, set once per worker at
// thread start.  current_slot() compares against the pool so that a thread
// belonging to pool A reads slot 0 (coordinator) when asking pool B.
struct TlsSlot {
  const ThreadPool* pool = nullptr;
  std::size_t slot = 0;
};
thread_local TlsSlot tls_slot;

// Pool whose job body the calling thread is currently inside, if any.  This
// is what makes re-entrant pool use a fail-fast contract instead of a
// deadlock, and unlike the old single-flag scheme it keeps working when
// several jobs are in flight at once.
thread_local const ThreadPool* tls_in_body = nullptr;

struct BodyScope {
  const ThreadPool* prev;
  explicit BodyScope(const ThreadPool* pool) : prev(tls_in_body) {
    tls_in_body = pool;
  }
  ~BodyScope() { tls_in_body = prev; }
};

constexpr std::size_t kMinBlockBytes = 4096;
constexpr int kSpinIters = 256;

}  // namespace

// ------------------------------------------------------------ ScratchArena

void* ScratchArena::allocate(std::size_t bytes, std::size_t align) {
  for (;;) {
    if (active_ < blocks_.size()) {
      Block& b = blocks_[active_];
      const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
      const std::size_t off =
          ((base + b.used + align - 1) & ~(std::uintptr_t{align} - 1)) - base;
      if (off + bytes <= b.size) {
        b.used = off + bytes;
        return b.data.get() + off;
      }
      if (active_ + 1 < blocks_.size()) {
        // Re-enter a block surviving from before the last rewind.
        blocks_[++active_].used = 0;
        continue;
      }
    }
    std::size_t size = blocks_.empty() ? kMinBlockBytes : blocks_.back().size * 2;
    if (size < bytes + align) size = bytes + align;
    Block fresh;
    fresh.data = std::make_unique<std::byte[]>(size);
    fresh.size = size;
    blocks_.push_back(std::move(fresh));
    active_ = blocks_.size() - 1;
  }
}

void ScratchArena::rewind(std::size_t block, std::size_t used) {
  if (blocks_.empty()) return;  // the frame predates the first allocation
  active_ = block;
  blocks_[active_].used = used;
}

std::size_t ScratchArena::capacity_bytes() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

// -------------------------------------------------------------- ThreadPool

struct ThreadPool::Job {
  std::size_t begin = 0;
  std::size_t count = 0;
  // parallel_for points at the caller's function (alive across the blocking
  // call); submit() moves the function into `owned` so the caller's lambda
  // may die before wait().
  const std::function<void(std::size_t)>* fn = nullptr;
  std::function<void(std::size_t)> owned;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};

  // First-failure capture: workers race to record, lowest index wins so the
  // rethrown exception matches what a serial loop would have thrown.
  struct ErrorSlot {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  Synchronized<ErrorSlot> error;

  Mutex mutex;  // pairs with `finished`
  std::condition_variable finished;
};

ThreadPool::ThreadPool(std::size_t workers)
    : arenas_(workers + 1),
      spin_(workers > 0 && std::thread::hardware_concurrency() > 1),
      obs_jobs_(&obs::metrics_registry().counter("pool.jobs")),
      obs_busy_ns_(&obs::metrics_registry().counter("pool.worker_busy_ns")),
      obs_idle_ns_(&obs::metrics_registry().counter("pool.worker_idle_ns")),
      obs_depth_(&obs::metrics_registry().gauge("pool.inflight_indices")) {
  YOSO_REQUIRE(workers <= kMaxWorkers,
               "ThreadPool: unreasonable worker count ", workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t ThreadPool::current_slot() const {
  return tls_slot.pool == this ? tls_slot.slot : 0;
}

void ThreadPool::require_not_in_body(const char* what) const {
  YOSO_REQUIRE(tls_in_body != this, "ThreadPool::", what,
               ": re-entrant call from inside a job body on the same pool "
               "(nest work in the body instead)");
}

void ThreadPool::run_chunk(ThreadPool* pool, Job& job) {
  BodyScope scope(pool);
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        (*job.fn)(job.begin + i);
      } catch (...) {
        job.error.with_lock([&](Job::ErrorSlot& slot) {
          if (job.begin + i < slot.index) {
            slot.index = job.begin + i;
            slot.error = std::current_exception();
          }
        });
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      MutexLock lock(job.mutex);
      job.finished.notify_all();
    }
  }
}

std::shared_ptr<ThreadPool::Job> ThreadPool::post_job(
    std::size_t begin, std::size_t count,
    const std::function<void(std::size_t)>* fn,
    std::function<void(std::size_t)> owned) {
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->count = count;
  if (fn != nullptr) {
    job->fn = fn;
  } else {
    job->owned = std::move(owned);
    job->fn = &job->owned;
  }
  if (obs::enabled()) {
    obs_jobs_->add();
    obs_depth_->set(static_cast<double>(count));
  }
  {
    MutexLock lock(mutex_);
    queue_.push_back(job);
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();
  return job;
}

void ThreadPool::finish_job(const std::shared_ptr<Job>& job) {
  MutexLock lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == job) {
      queue_.erase(it);
      break;
    }
  }
  obs_depth_->set(0.0);
}

void ThreadPool::wait_job(Job& job) {
  MutexLock lock(job.mutex);
  while (job.done.load(std::memory_order_acquire) != job.count)
    job.mutex.wait(job.finished);
}

void ThreadPool::worker_loop(std::size_t slot) {
  tls_slot = {this, slot};
  std::uint64_t idle_gen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    // Sentinel 0 = "observability was off when the window opened"; a window
    // that straddles a toggle is simply not recorded.
    const std::uint64_t wait_begin = obs::enabled() ? obs::now_ns() : 0;
    // Short spin before committing to a futex sleep: in a pipelined batch
    // the coordinator posts the next job microseconds after the previous
    // one drains.  Pointless (and harmful) when there is only one core.
    if (spin_) {
      for (int s = 0; s < kSpinIters; ++s) {
        if (generation_.load(std::memory_order_acquire) != idle_gen) break;
        std::this_thread::yield();
      }
    }
    {
      MutexLock lock(mutex_);
      for (;;) {
        if (stop_) return;
        for (const std::shared_ptr<Job>& queued : queue_) {
          if (queued->next.load(std::memory_order_relaxed) < queued->count) {
            job = queued;  // oldest job with unclaimed indices first
            break;
          }
        }
        if (job) break;
        idle_gen = generation_.load(std::memory_order_relaxed);
        mutex_.wait(wake_);
      }
    }
    if (wait_begin != 0) obs_idle_ns_->add(obs::now_ns() - wait_begin);
    const std::uint64_t run_begin = obs::enabled() ? obs::now_ns() : 0;
    run_chunk(this, *job);
    if (run_begin != 0) obs_busy_ns_->add(obs::now_ns() - run_begin);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  YOSO_REQUIRE(static_cast<bool>(fn), "ThreadPool::parallel_for: empty fn");
  YOSO_REQUIRE(begin <= end, "ThreadPool::parallel_for: reversed range [",
               begin, ", ", end, ")");
  require_not_in_body("parallel_for");
  if (end == begin) return;
  const std::size_t count = end - begin;

  if (workers_.empty() || count == 1) {
    // Inline: serial execution, exceptions propagate directly (the first
    // throwing index is necessarily the lowest one).
    BodyScope scope(this);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  const std::shared_ptr<Job> job = post_job(begin, count, &fn, {});
  run_chunk(this, *job);  // the caller is a worker too
  wait_job(*job);
  finish_job(job);
  const Job::ErrorSlot failure = job->error.load();
  if (failure.error) std::rethrow_exception(failure.error);
}

ThreadPool::JobTicket ThreadPool::submit(std::size_t begin, std::size_t end,
                                         std::function<void(std::size_t)> fn) {
  YOSO_REQUIRE(static_cast<bool>(fn), "ThreadPool::submit: empty fn");
  YOSO_REQUIRE(begin <= end, "ThreadPool::submit: reversed range [", begin,
               ", ", end, ")");
  require_not_in_body("submit");
  if (end == begin) return {};
  return {this, post_job(begin, end - begin, nullptr, std::move(fn))};
}

ThreadPool::JobTicket::~JobTicket() {
  if (!job_) return;
  try {
    wait();
  } catch (...) {
    // An unwaited ticket going out of scope during unwinding must not
    // terminate; callers who care about body errors call wait().
  }
}

ThreadPool::JobTicket::JobTicket(JobTicket&& other) noexcept
    : pool_(other.pool_), job_(std::move(other.job_)) {
  other.pool_ = nullptr;
  other.job_ = nullptr;
}

ThreadPool::JobTicket& ThreadPool::JobTicket::operator=(
    JobTicket&& other) noexcept {
  if (this != &other) {
    if (job_) {
      try {
        wait();
      } catch (...) {
      }
    }
    pool_ = other.pool_;
    job_ = std::move(other.job_);
    other.pool_ = nullptr;
    other.job_ = nullptr;
  }
  return *this;
}

void ThreadPool::JobTicket::wait() {
  if (!job_) return;
  const std::shared_ptr<Job> job = std::move(job_);
  job_ = nullptr;
  run_chunk(pool_, *job);  // drain stragglers on the caller
  pool_->wait_job(*job);
  pool_->finish_job(job);
  const Job::ErrorSlot failure = job->error.load();
  if (failure.error) std::rethrow_exception(failure.error);
}

}  // namespace yoso
