// Observability layer contracts (DESIGN.md §13): registry determinism, the
// span LIFO discipline, export well-formedness, and the disabled no-op path.
//
// The registry and trace collector are process-wide, so every test starts
// by resetting them and restoring obs::set_enabled(false) on exit.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "base/contract.h"
#include "util/thread_pool.h"

namespace yoso {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::metrics_registry().reset();
    obs::reset_tracing();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::metrics_registry().reset();
    obs::reset_tracing();
  }
};

TEST_F(ObsTest, DisabledInstrumentsAreNoOps) {
  ASSERT_FALSE(obs::enabled());
  obs::counter_add("noop.counter", 5);
  obs::gauge_set("noop.gauge", 3.5);
  obs::histogram_observe("noop.histogram", 1.0);
  obs::metrics_registry().counter("noop.handle").add(7);
  const obs::MetricsSnapshot snap = obs::metrics_registry().snapshot();
  for (const auto& c : snap.counters) EXPECT_EQ(c.value, 0u) << c.name;
  for (const auto& g : snap.gauges) EXPECT_EQ(g.value, 0.0) << g.name;
  for (const auto& h : snap.histograms) EXPECT_EQ(h.count, 0u) << h.name;
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  {
    YOSO_TRACE_SPAN("noop.scope");
    obs::begin_span("noop.manual");
    obs::end_span("noop.manual");  // balanced pair while off: no-op
  }
  for (const auto& a : obs::summarize_spans())
    EXPECT_TRUE(a.name.rfind("noop.", 0) != 0) << a.name;
}

TEST_F(ObsTest, CounterGaugeRoundTrip) {
  obs::set_enabled(true);
  obs::Counter& c = obs::metrics_registry().counter("t.counter");
  c.add();
  c.add(4);
  obs::counter_add("t.counter", 10);  // the free function hits the same node
  EXPECT_EQ(c.value(), 15u);
  obs::gauge_set("t.gauge", 2.25);
  EXPECT_EQ(obs::metrics_registry().gauge("t.gauge").value(), 2.25);
}

TEST_F(ObsTest, HistogramBucketsAreUpperBoundInclusive) {
  const double bounds[] = {1.0, 2.0, 5.0};
  obs::Histogram h{std::span<const double>(bounds)};
  obs::set_enabled(true);
  h.observe(0.5);  // <= 1.0            -> bucket 0
  h.observe(1.0);  // == bound, bucket 0 (v <= bounds[i])
  h.observe(1.5);  // -> bucket 1
  h.observe(5.0);  // -> bucket 2
  h.observe(99.0);  // -> overflow
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 99.0);
}

TEST_F(ObsTest, HistogramRejectsUnsortedBounds) {
  const double bad[] = {1.0, 1.0, 2.0};
  EXPECT_THROW(obs::Histogram{std::span<const double>(bad)},
               ContractViolation);
}

TEST_F(ObsTest, ResetZeroesValuesButHandlesStayValid) {
  obs::set_enabled(true);
  obs::Counter& c = obs::metrics_registry().counter("t.persistent");
  c.add(3);
  obs::metrics_registry().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the pre-reset handle still reaches the live node
  EXPECT_EQ(obs::metrics_registry().counter("t.persistent").value(), 2u);
}

// The acceptance bar for snapshot determinism: the same logical workload
// must produce byte-identical "det.*" metrics regardless of how many
// threads carried it.  (pool.* timing counters are excluded by name —
// busy/idle nanoseconds are real measurements and legitimately vary.)
TEST_F(ObsTest, SnapshotIsDeterministicAcrossThreadCounts) {
  obs::set_enabled(true);
  const std::size_t items = 4096;
  std::vector<std::string> rendered;
  for (const std::size_t workers : {0u, 1u, 7u}) {  // 1, 2 and 8 threads
    obs::metrics_registry().reset();
    ThreadPool pool(workers);
    pool.parallel_for(0, items, [](std::size_t i) {
      obs::counter_add("det.items");
      obs::counter_add("det.weighted", i % 3);
      obs::histogram_observe("det.values", 1.0);
    });
    const obs::MetricsSnapshot snap = obs::metrics_registry().snapshot();
    std::ostringstream os;
    for (const auto& c : snap.counters)
      if (c.name.rfind("det.", 0) == 0) os << c.name << "=" << c.value << ";";
    for (const auto& h : snap.histograms)
      if (h.name.rfind("det.", 0) == 0) {
        os << h.name << " count=" << h.count << " sum=" << h.sum << " [";
        for (const auto b : h.buckets) os << b << ",";
        os << "];";
      }
    rendered.push_back(os.str());
  }
  EXPECT_NE(rendered[0].find("det.items=4096"), std::string::npos);
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
}

TEST_F(ObsTest, SnapshotListsAreNameSorted) {
  obs::set_enabled(true);
  obs::counter_add("t.zebra");
  obs::counter_add("t.alpha");
  obs::counter_add("t.middle");
  const obs::MetricsSnapshot snap = obs::metrics_registry().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

TEST_F(ObsTest, MetricsJsonIsWellFormedAndByteStable) {
  obs::set_enabled(true);
  obs::counter_add("t.json_counter", 3);
  obs::gauge_set("t.json_gauge", 0.5);
  obs::histogram_observe("t.json_histogram", 2.0);
  std::ostringstream a, b;
  obs::write_metrics_json(a, obs::metrics_registry().snapshot());
  obs::write_metrics_json(b, obs::metrics_registry().snapshot());
  expect_well_formed_json(a.str());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"t.json_counter\": 3"), std::string::npos);
}

// The next four tests exercise YOSO_TRACE_SPAN itself; with -DYOSO_OBS=OFF
// the macro expands to nothing, so they skip rather than assert on spans
// that were never recorded.
TEST_F(ObsTest, SpanAggregatesNestAndAttributeSelfTime) {
#ifdef YOSO_OBS_DISABLED
  GTEST_SKIP() << "YOSO_TRACE_SPAN compiled out (-DYOSO_OBS=OFF)";
#endif
  obs::set_enabled(true);
  {
    YOSO_TRACE_SPAN("t.parent");
    for (int i = 0; i < 3; ++i) {
      YOSO_TRACE_SPAN("t.child");
    }
  }
  std::uint64_t parent_total = 0, parent_self = 0, child_total = 0;
  for (const obs::SpanAggregate& a : obs::summarize_spans()) {
    if (a.name == "t.parent") {
      EXPECT_EQ(a.count, 1u);
      parent_total = a.total_ns;
      parent_self = a.self_ns;
    }
    if (a.name == "t.child") {
      EXPECT_EQ(a.count, 3u);
      child_total = a.total_ns;
    }
  }
  EXPECT_GT(parent_total, 0u);
  EXPECT_LE(child_total, parent_total);
  EXPECT_EQ(parent_self, parent_total - child_total);
}

TEST_F(ObsTest, UnbalancedOrCrossedScopesViolateTheContract) {
  obs::set_enabled(true);
  EXPECT_THROW(obs::end_span("t.never_opened"), ContractViolation);
  obs::begin_span("t.outer");
  obs::begin_span("t.inner");
  EXPECT_THROW(obs::end_span("t.outer"), ContractViolation);  // crossed
  obs::end_span("t.inner");
  obs::end_span("t.outer");
  obs::begin_span("t.still_open");
  EXPECT_THROW(obs::reset_tracing(), ContractViolation);
  obs::end_span("t.still_open");
}

TEST_F(ObsTest, SpanOpenedWhileEnabledClosesAfterDisable) {
#ifdef YOSO_OBS_DISABLED
  GTEST_SKIP() << "YOSO_TRACE_SPAN compiled out (-DYOSO_OBS=OFF)";
#endif
  obs::set_enabled(true);
  {
    YOSO_TRACE_SPAN("t.straddling");
    obs::set_enabled(false);
  }  // must not throw, and must leave the stack balanced
  obs::set_enabled(true);
  bool found = false;
  for (const obs::SpanAggregate& a : obs::summarize_spans())
    if (a.name == "t.straddling") found = true;
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, ChromeTraceRoundTripsThroughTheParserCheck) {
#ifdef YOSO_OBS_DISABLED
  GTEST_SKIP() << "YOSO_TRACE_SPAN compiled out (-DYOSO_OBS=OFF)";
#endif
  obs::set_enabled(true);
  {
    YOSO_TRACE_SPAN("t.export_outer");
    YOSO_TRACE_SPAN("t.export_inner");
  }
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string doc = os.str();
  expect_well_formed_json(doc);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"t.export_outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"t.export_inner\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsTest, RingDropsOldestEventsButAggregatesStayExact) {
#ifdef YOSO_OBS_DISABLED
  GTEST_SKIP() << "YOSO_TRACE_SPAN compiled out (-DYOSO_OBS=OFF)";
#endif
  obs::set_enabled(true);
  obs::set_trace_capacity(8);
  // The capacity applies to buffers registered after the call, so record
  // from a fresh thread.
  std::thread recorder([] {
    for (int i = 0; i < 100; ++i) {
      YOSO_TRACE_SPAN("t.flood");
    }
  });
  recorder.join();
  obs::set_trace_capacity(65536);
  EXPECT_GE(obs::trace_events_dropped(), 92u);
  for (const obs::SpanAggregate& a : obs::summarize_spans()) {
    if (a.name == "t.flood") {
      EXPECT_EQ(a.count, 100u);
    }
  }
}

TEST_F(ObsTest, PhaseTableShowsPhaseRowsSharesAndSum) {
  std::vector<obs::SpanAggregate> aggregates;
  aggregates.push_back({"phase.search", 1, 500'000'000ull, 500'000'000ull});
  aggregates.push_back({"phase.outputs", 1, 250'000'000ull, 250'000'000ull});
  aggregates.push_back({"eval.fast_batch", 7, 123ull, 123ull});
  const std::string table = obs::render_phase_table(aggregates, 1.0);
  EXPECT_NE(table.find("search"), std::string::npos);
  EXPECT_NE(table.find("50.0%"), std::string::npos);
  EXPECT_NE(table.find("outputs"), std::string::npos);
  EXPECT_NE(table.find("25.0%"), std::string::npos);
  EXPECT_NE(table.find("[sum]"), std::string::npos);
  EXPECT_NE(table.find("75.0%"), std::string::npos);
  // Non-phase spans are aggregate-only; they never show up as phase rows.
  EXPECT_EQ(table.find("fast_batch"), std::string::npos);
}

}  // namespace
}  // namespace yoso
