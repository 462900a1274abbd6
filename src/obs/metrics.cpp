#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "base/contract.h"
#include "base/json_escape.h"

namespace yoso {
namespace obs {
namespace {

// Decade bounds with a 1/2/5 subdivision: 1 us .. 10 s, in milliseconds.
constexpr double kDurationMsBounds[] = {
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,   2.0,
    5.0,  10.0, 20.0, 50.0, 1e2,  2e2,  5e2,  1e3,  2e3,  5e3,  1e4};

std::atomic<bool>& enabled_flag() {
  // The process-wide observability switch.  Observability is the sanctioned
  // home of cross-cutting process state; determinism is preserved because
  // nothing on the search path ever reads a metric back.
  static std::atomic<bool> flag{false};
  return flag;
}

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::string json_number(double v) {
  std::ostringstream ss;
  ss.precision(12);
  ss << v;
  return ss.str();
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::span<const double> duration_ms_bounds() {
  return std::span<const double>(kDurationMsBounds);
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds.size() +
                                                              1)) {
  YOSO_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "Histogram: bucket bounds must be strictly ascending");
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  // lower_bound gives the first bound >= v, i.e. v <= bounds_[i] lands in
  // bucket i; past-the-end is the overflow bucket.
  const std::size_t i =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.bounds.assign(h->bounds().begin(), h->bounds().end());
    hv.buckets.resize(h->num_buckets());
    for (std::size_t i = 0; i < hv.buckets.size(); ++i)
      hv.buckets[i] = h->bucket(i);
    hv.count = h->count();
    hv.sum = h->sum();
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_)
    c->value_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_)
    g->value_.store(0.0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (std::size_t i = 0; i < h->num_buckets(); ++i)
      h->buckets_[i].store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& metrics_registry() {
  // Process-wide by design (DESIGN.md §13): the one place instrumented
  // subsystems meet.  Never torn down, so handles are process-lifetime.
  static MetricsRegistry registry;
  return registry;
}

void counter_add(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  metrics_registry().counter(name).add(delta);
}

void gauge_set(std::string_view name, double value) {
  if (!enabled()) return;
  metrics_registry().gauge(name).set(value);
}

void histogram_observe(std::string_view name, double value) {
  if (!enabled()) return;
  metrics_registry().histogram(name).observe(value);
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snap) {
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << "    "
       << json_quote(snap.counters[i].name) << ": " << snap.counters[i].value;
  os << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << "    " << json_quote(snap.gauges[i].name)
       << ": " << json_number(snap.gauges[i].value);
  os << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    " << json_quote(h.name)
       << ": {\"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
       << ", \"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b)
      os << (b == 0 ? "" : ", ") << json_number(h.bounds[b]);
    os << "], \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b)
      os << (b == 0 ? "" : ", ") << h.buckets[b];
    os << "]}";
  }
  os << "\n  }\n}\n";
}

}  // namespace obs
}  // namespace yoso
