#pragma once
// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms for the search pipeline (DESIGN.md §13, docs/OBSERVABILITY.md).
//
// Shape of the thing:
//
//   * Registration (name → instrument) happens under a mutex and returns a
//     stable handle; instruments are never deallocated (reset() zeroes
//     values but keeps nodes), so cached handles — e.g. the ThreadPool's
//     busy/idle counters — stay valid for the process lifetime.
//   * The fast path is lock-free: Counter::add is one relaxed atomic
//     fetch_add, Gauge::set one relaxed store, Histogram::observe one
//     branchless bucket scan plus two relaxed updates.  Integer adds
//     commute, so counter and histogram totals are exact — independent of
//     thread count and interleaving.
//   * Everything is gated on the global enabled flag: while observability
//     is off (the default) every instrument call returns after one relaxed
//     atomic load, so an instrumented tree costs nothing measurable
//     (bench_throughput's obs-guard section keeps that honest).
//   * snapshot() returns every instrument sorted by name — the registry
//     map is std::map, so iteration order is the sort order and emitted
//     reports are byte-stable run to run (the yoso-lint unordered-iter
//     rule stays satisfied by construction).
//
// Name scheme ("subsystem.metric", see docs/OBSERVABILITY.md):
//   search.iterations, eval.cache_hits, gp.predict_batch_rows,
//   pool.worker_busy_ns, ...

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/contract.h"
#include "base/thread_annotations.h"

namespace yoso {
namespace obs {

/// Global observability switch.  Off by default; flipping it on activates
/// every instrument and trace span in the process.  One relaxed atomic —
/// safe to call from any thread.
bool enabled();
void set_enabled(bool on);

/// Monotonic event counter.
class Counter {
 public:
  /// No-op while observability is disabled.
  void add(std::uint64_t delta = 1) {
    if (enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, worker count, ...).
class Gauge {
 public:
  void set(double v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram.  Bucket i counts observations <= bounds[i];
/// one overflow bucket catches the rest.  Bounds are fixed at registration
/// and never change, so concurrent observes only touch atomics.
class Histogram {
 public:
  /// Prefer MetricsRegistry::histogram(); the public constructor exists so
  /// the registry can make_unique nodes and tests can exercise bucketing
  /// standalone.  `bounds` must be strictly ascending.
  explicit Histogram(std::span<const double> bounds);

  void observe(double v);

  std::span<const double> bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    YOSO_CHECK(i < num_buckets(),
               "Histogram::bucket: ", i, " >= ", num_buckets());
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::size_t num_buckets() const { return bounds_.size() + 1; }

 private:
  friend class MetricsRegistry;

  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds for durations in milliseconds: decades with a
/// 1/2/5 subdivision from 1 us to 10 s.
std::span<const double> duration_ms_bounds();

/// One deterministic (name-sorted) copy of every registered instrument.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterValue> counters;      // sorted by name
  std::vector<GaugeValue> gauges;          // sorted by name
  std::vector<HistogramValue> histograms;  // sorted by name
};

/// The process-wide registry.  Use the free functions below (or
/// metrics_registry() for handle caching); constructing your own registry is
/// only useful in tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument.  The returned reference stays
  /// valid for the registry's lifetime (reset() zeroes, never deletes).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is consulted only when the histogram does not exist yet; it
  /// must be strictly ascending (ContractViolation otherwise).
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = duration_ms_bounds());

  /// Deterministic copy of every instrument, each list sorted by name.
  MetricsSnapshot snapshot() const;

  /// Zeroes every value; registered names and handles stay valid.
  void reset();

 private:
  mutable Mutex mutex_;
  // std::map keeps iteration — and therefore snapshot order — sorted and
  // byte-stable; unique_ptr nodes keep handles address-stable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      YOSO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      YOSO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      YOSO_GUARDED_BY(mutex_);
};

/// The process-wide instance all instrumentation writes to.
MetricsRegistry& metrics_registry();

/// Name-keyed conveniences over metrics_registry(): one mutex-guarded map
/// lookup per call, so fine for per-batch/per-phase call sites.  Hot loops
/// should cache the handle instead (see ThreadPool).  All are no-ops while
/// observability is disabled.
void counter_add(std::string_view name, std::uint64_t delta = 1);
void gauge_set(std::string_view name, double value);
void histogram_observe(std::string_view name, double value);

/// Writes the snapshot as a JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// Keys appear in sorted order so the document is byte-stable for a given
/// set of values.
void write_metrics_json(std::ostream& os, const MetricsSnapshot& snap);

}  // namespace obs
}  // namespace yoso
