// §III.E claim — the GP performance predictor replaces cycle-level
// simulation at "nearly 2000x speed improvement with less than 4% accuracy
// loss".  This bench times both paths on the same candidate batch in 7
// interleaved passes and reports each side's median (with its min-max
// range), the speedup and the relative error.  (Note: the paper's
// baseline is the Python nn_dataflow simulator; our C++ cycle-level
// simulator is itself much faster, which compresses the measured ratio —
// the conclusion that prediction is orders of magnitude cheaper holds.)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "obs/trace.h"
#include "predictor/perf_predictor.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace yoso;

NetworkSkeleton g_skeleton;
ConfigSpace g_space;
std::vector<PerfSample> g_eval;
PerformancePredictor* g_predictor = nullptr;

void run_speedup() {
  g_skeleton = default_skeleton();
  g_space = default_config_space();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  Rng rng(2020);
  const std::size_t train_n = scaled(700, 200);
  const auto train = collect_samples(train_n, simulator, g_space, g_skeleton,
                                     rng);
  static PerformancePredictor predictor(g_skeleton);
  predictor.fit(train);
  g_predictor = &predictor;

  const std::size_t eval_n = scaled(100, 40);
  g_eval = collect_samples(eval_n, simulator, g_space, g_skeleton, rng);

  // Both paths are timed through the observability layer — the same spans
  // a --trace-out run records — instead of ad-hoc stopwatches, so the
  // numbers printed here and the per-phase table of a real run agree by
  // construction (docs/OBSERVABILITY.md).  kPasses interleaved
  // simulate/predict passes, reported as medians with their min-max range:
  // one pass of each tracks host load more than either path.
  constexpr int kPasses = 7;
  std::vector<double> sim_pass_us, gp_pass_us, ratio;
  std::vector<double> pe, te, pl, tl;
  obs::set_enabled(true);
  for (int pass = 0; pass < kPasses; ++pass) {
    obs::reset_tracing();
    {
      YOSO_TRACE_SPAN("speedup.simulate");
      for (const auto& s : g_eval)
        simulator.simulate_network(s.genotype, g_skeleton, s.config);
    }
    // Predictor timing + accuracy (features computed per query, as in the
    // search loop).
    pe.clear();
    pl.clear();
    {
      YOSO_TRACE_SPAN("speedup.gp_predict");
      for (const auto& s : g_eval) {
        pe.push_back(g_predictor->predict_energy_mj(s.genotype, s.config));
        pl.push_back(g_predictor->predict_latency_ms(s.genotype, s.config));
      }
    }
    for (const obs::SpanAggregate& a : obs::summarize_spans()) {
      // total_ns, not self_ns: the nested sim.network / gp child spans are
      // part of the path under test.
      if (a.name == "speedup.simulate")
        sim_pass_us.push_back(static_cast<double>(a.total_ns) / 1e3 /
                              static_cast<double>(eval_n));
      if (a.name == "speedup.gp_predict")
        gp_pass_us.push_back(static_cast<double>(a.total_ns) / 1e3 /
                             static_cast<double>(eval_n) / 2.0);  // per query
    }
    ratio.push_back(sim_pass_us.back() / gp_pass_us.back());
  }
  obs::set_enabled(false);
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  auto range = [](const std::vector<double>& v, double scale, int digits) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return TextTable::fmt(*lo * scale, digits) + "-" +
           TextTable::fmt(*hi * scale, digits);
  };
  const double sim_us = median(sim_pass_us), gp_us = median(gp_pass_us);
  for (const auto& s : g_eval) {
    te.push_back(s.energy_mj);
    tl.push_back(s.latency_ms);
  }

  const std::string passes = std::to_string(kPasses) + " passes";
  TextTable table({"path", "time per evaluation (median, min-max of " +
                               passes + ")",
                   "mean rel err vs simulator"});
  table.add_row({"cycle-level simulation",
                 TextTable::fmt(sim_us / 1000.0, 3) + " ms (" +
                     range(sim_pass_us, 1e-3, 3) + ")",
                 "-"});
  const std::string gp_time =
      TextTable::fmt(gp_us, 1) + " us (" + range(gp_pass_us, 1.0, 1) + ")";
  table.add_row({"GP energy predictor", gp_time,
                 TextTable::fmt(mean_relative_error(pe, te) * 100.0, 2) + " %"});
  table.add_row({"GP latency predictor", gp_time,
                 TextTable::fmt(mean_relative_error(pl, tl) * 100.0, 2) + " %"});
  table.print(std::cout);
  std::cout << "\nmeasured speedup: " << TextTable::fmt(sim_us / gp_us, 0)
            << "x from the medians (per-pass " << range(ratio, 1.0, 0)
            << "x)  (paper: ~2000x vs the Python nn_dataflow simulator)\n"
            << "accuracy loss: energy "
            << TextTable::fmt(mean_relative_error(pe, te) * 100.0, 2)
            << " %, latency "
            << TextTable::fmt(mean_relative_error(pl, tl) * 100.0, 2)
            << " %  (paper: < 4 %)\n";
}

void BM_Simulate(benchmark::State& state) {
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& s = g_eval[i++ % g_eval.size()];
    benchmark::DoNotOptimize(
        simulator.simulate_network(s.genotype, g_skeleton, s.config));
  }
}
BENCHMARK(BM_Simulate)->Unit(benchmark::kMillisecond);

void BM_GpPredict(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& s = g_eval[i++ % g_eval.size()];
    benchmark::DoNotOptimize(
        g_predictor->predict_energy_mj(s.genotype, s.config));
  }
}
BENCHMARK(BM_GpPredict)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  Stopwatch sw;
  bench_banner("§III.E", "GP predictor vs cycle-level simulation speedup");
  run_speedup();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  bench_footer(sw);
  return 0;
}
