// Extension — batch/throughput mode.
//
// Part 1 — candidate evaluation throughput: the search-loop hot path.  Two
// workloads bracket what the controller produces:
//
//   * memo-cold: every proposal is a distinct design, so the whole stream
//     rides the two-stage worker/coordinator pipeline (the scaling story);
//   * revisit: ~85 % of submissions repeat one of `unique` designs already
//     seen, as a converging RL controller does (the memoization story).
//
// Each is scored per-candidate with Evaluator::evaluate() (the serial
// baseline) and with the batched engine (FastEvaluator::evaluate_batch —
// pipelined across an ExecContext + memoized) at 1, 2, 4 and 8 threads.
// Every configuration reports the best of kReps repetitions (min total
// time) to damp scheduler noise; the cache is cleared before every
// repetition so each sees the same hit/miss profile.
//
// `--smoke` runs a trimmed memo-cold sweep, then the CI gate: 7 memo-cold
// passes of 2048 fresh candidates at 1 and at 8 threads, interleaved, and
// exits non-zero when the 8-thread median falls below 0.85x the 1-thread
// median — the guard that threading never becomes a pessimization (on
// multi-core hosts it is a speedup; the tolerance keeps single-core
// runners honest).  Medians of interleaved passes, rather than one
// sequential best-of-3 per thread count, keep a burst of host load from
// landing on one side only.
//
// `--emit-profile [PATH]` runs predictor construction, memo-cold passes and
// a short RL co-search (64 iterations, batch 8) with tracing enabled, five
// times, and writes each span's median aggregates over the five passes as
// the span-cost profile yoso-lint's perf rules consume (the committed copy
// lives at tools/yoso_hot_profile.json; DESIGN.md §15).
//
// Part 2 — inference batch-size sweep: the paper evaluates single-image
// (batch-1) edge inference.  Server-style deployment batches images,
// amortising weight traffic; this sweeps the batch size for the Table-2
// networks and shows how per-image energy falls and saturates at the
// activation-bound floor — and how the best accelerator configuration can
// shift once weights stop dominating.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "bench_json.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/search.h"
#include "core/two_stage.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace {

constexpr std::size_t kReps = 3;      // min-of-N repetitions per config
constexpr std::size_t kBatch = 64;    // candidates per evaluate_batch round
constexpr double kSmokeTolerance = 0.85;  // 8t must stay >= this x 1t
constexpr std::size_t kGateReps = 7;      // interleaved 1t/8t gate passes
constexpr std::size_t kGateStream = 2048; // candidates per gate pass

// One memo-cold pass of `stream` through evaluate_batch in kBatch-sized
// rounds; returns its wall time in seconds.
double cold_pass_seconds(yoso::FastEvaluator& fast,
                         const std::vector<yoso::CandidateDesign>& stream,
                         double& sink) {
  using namespace yoso;
  fast.clear_cache();
  Stopwatch sw;
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    sink += fast
                .evaluate_batch(std::span<const CandidateDesign>(
                    stream.data() + i, n))
                .front()
                .energy_mj;
  }
  return sw.elapsed_seconds();
}

// Candidates/second for the fastest of kReps passes of `stream`.
double batched_cand_per_s(yoso::FastEvaluator& fast,
                          const std::vector<yoso::CandidateDesign>& stream,
                          double& sink) {
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kReps; ++rep)
    best_s = std::min(best_s, cold_pass_seconds(fast, stream, sink));
  return static_cast<double>(stream.size()) / best_s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct GateMedians {
  double cold_1t = 0.0;  ///< median cand/s, 1 thread
  double cold_8t = 0.0;  ///< median cand/s, 8 threads
};

// The smoke gate's measurement: kGateReps memo-cold passes at 1 and at 8
// threads, interleaved (1t, 8t, 1t, 8t, ...) so both see the same host
// load and frequency drift, each pass long enough (kGateStream candidates)
// to sit well above timer and scheduler noise; compared by median.
GateMedians gate_medians(yoso::FastEvaluator& fast,
                         const std::vector<yoso::CandidateDesign>& stream,
                         double& sink) {
  using namespace yoso;
  const ExecContextPtr one = ExecContext::create(1);
  const ExecContextPtr eight = ExecContext::create(8);
  std::vector<double> cps_1t, cps_8t;
  const auto cands = static_cast<double>(stream.size());
  for (std::size_t rep = 0; rep < kGateReps; ++rep) {
    fast.set_exec_context(one);
    cps_1t.push_back(cands / cold_pass_seconds(fast, stream, sink));
    fast.set_exec_context(eight);
    cps_8t.push_back(cands / cold_pass_seconds(fast, stream, sink));
  }
  return {median(cps_1t), median(cps_8t)};
}

/// Part 1.  Returns false when the smoke gate fails (only checked with
/// `smoke` set; the full bench always passes).
bool bench_candidate_throughput(yoso::BenchJson& json, bool smoke) {
  using namespace yoso;
  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  FastEvaluator fast(space, skeleton, sim,
                     {.predictor_samples = smoke ? 60 : scaled(300, 100),
                      .seed = 11,
                      .exec = ExecContext::create(bench_threads())});

  Rng rng(29);
  const std::size_t unique = smoke ? 40 : scaled(300, 50);
  const std::size_t total = smoke ? 240 : scaled(2000, 400);
  // Memo-cold stream: `total` fresh draws (collisions in this space are
  // vanishingly rare), so every candidate goes through the pipeline.
  std::vector<CandidateDesign> cold;
  cold.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    cold.push_back(space.random_candidate(rng));
  // Revisit stream: proposals drawn from a pool of `unique` designs.
  std::vector<CandidateDesign> pool;
  pool.reserve(unique);
  for (std::size_t i = 0; i < unique; ++i)
    pool.push_back(space.random_candidate(rng));
  std::vector<CandidateDesign> revisit;
  revisit.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    revisit.push_back(pool[rng.uniform_index(unique)]);

  // Serial baseline: one candidate at a time through evaluate(), no memo.
  double sink = 0.0;
  double serial_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Stopwatch sw;
    for (const CandidateDesign& c : cold) sink += fast.evaluate(c).energy_mj;
    serial_s = std::min(serial_s, sw.elapsed_seconds());
  }
  const double serial_cps = static_cast<double>(total) / serial_s;

  TextTable table({"mode", "threads", "cand/s", "speedup"});
  table.add_row({"serial evaluate()", "1", TextTable::fmt(serial_cps, 0),
                 "1.00"});
  json.field("proposals", static_cast<double>(total));
  json.field("distinct_revisit", static_cast<double>(unique));
  json.field("repetitions", static_cast<double>(kReps));
  json.record("serial_evaluate");
  json.value("threads", 1.0);
  json.value("cand_per_s", serial_cps);
  json.value("speedup", 1.0);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    fast.set_exec_context(ExecContext::create(threads));
    const double cold_cps = batched_cand_per_s(fast, cold, sink);
    table.add_row({"batched cold",
                   TextTable::fmt_int(static_cast<long long>(threads)),
                   TextTable::fmt(cold_cps, 0),
                   TextTable::fmt(cold_cps / serial_cps, 2)});
    json.record("batched_cold");
    json.value("threads", static_cast<double>(threads));
    json.value("batch", static_cast<double>(kBatch));
    json.value("cand_per_s", cold_cps);
    json.value("speedup", cold_cps / serial_cps);
    if (!smoke) {
      const double memo_cps = batched_cand_per_s(fast, revisit, sink);
      table.add_row({"batched+memo",
                     TextTable::fmt_int(static_cast<long long>(threads)),
                     TextTable::fmt(memo_cps, 0),
                     TextTable::fmt(memo_cps / serial_cps, 2)});
      json.record("batched_memo");
      json.value("threads", static_cast<double>(threads));
      json.value("batch", static_cast<double>(kBatch));
      json.value("cand_per_s", memo_cps);
      json.value("speedup", memo_cps / serial_cps);
    }
  }
  std::cout << "\ncandidate evaluation throughput (" << total
            << " proposals, batch " << kBatch << ", best of " << kReps
            << " reps):\n";
  table.print(std::cout);
  std::cout << "cache now holds " << fast.cache_size()
            << " designs  [checksum " << TextTable::fmt(sink, 1) << "]\n";

  if (smoke) {
    std::vector<CandidateDesign> gate_stream;
    gate_stream.reserve(kGateStream);
    for (std::size_t i = 0; i < kGateStream; ++i)
      gate_stream.push_back(space.random_candidate(rng));
    const GateMedians gate = gate_medians(fast, gate_stream, sink);
    const double ratio = gate.cold_8t / gate.cold_1t;
    const bool ok = ratio >= kSmokeTolerance;
    std::cout << "smoke gate: 8t " << TextTable::fmt(gate.cold_8t, 0)
              << " cand/s vs 1t " << TextTable::fmt(gate.cold_1t, 0)
              << " cand/s (medians of " << kGateReps << " interleaved "
              << kGateStream << "-candidate passes; ratio "
              << TextTable::fmt(ratio, 2) << ", floor "
              << TextTable::fmt(kSmokeTolerance, 2) << ") — "
              << (ok ? "PASS" : "FAIL") << "\n";
    json.record("smoke_gate");
    json.value("median_1t_cand_per_s", gate.cold_1t);
    json.value("median_8t_cand_per_s", gate.cold_8t);
    json.value("repetitions", static_cast<double>(kGateReps));
    json.value("candidates_per_pass", static_cast<double>(kGateStream));
    json.value("ratio_8t_over_1t", ratio);
    json.value("floor", kSmokeTolerance);
    json.value("pass", ok ? 1.0 : 0.0);
    return ok;
  }

  // Observability overhead guard (docs/OBSERVABILITY.md budget): the same
  // batched memo-cold workload with the layer disabled (every instrument is
  // one relaxed load) and enabled (spans + counters recording).  The
  // disabled number must track the batched_cold records above; the enabled
  // delta is the price of --metrics-out/--trace-out.
  fast.set_exec_context(ExecContext::create(bench_threads()));
  double cps_by_mode[2] = {0.0, 0.0};
  for (const bool on : {false, true}) {
    obs::set_enabled(on);
    cps_by_mode[on ? 1 : 0] = batched_cand_per_s(fast, cold, sink);
  }
  obs::set_enabled(false);
  const double overhead_pct =
      100.0 * (cps_by_mode[0] - cps_by_mode[1]) / cps_by_mode[0];
  std::cout << "observability guard: disabled "
            << TextTable::fmt(cps_by_mode[0], 0) << " cand/s, enabled "
            << TextTable::fmt(cps_by_mode[1], 0) << " cand/s  (overhead "
            << TextTable::fmt(overhead_pct, 1) << " %)\n";
  json.record("obs_guard");
  json.value("disabled_cand_per_s", cps_by_mode[0]);
  json.value("enabled_cand_per_s", cps_by_mode[1]);
  json.value("overhead_pct", overhead_pct);
  return true;
}

/// One instrumented pass of the `--emit-profile` body: predictor builds,
/// memo-cold passes and a short RL co-search.  Returns a checksum.
double profile_pass() {
  using namespace yoso;
  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  // Predictor construction runs Step-1 collection and the GP fits under
  // tracing, so step1.* / sim.* / gp.fit land in the profile alongside the
  // eval.* spans from the batched pass below.
  FastEvaluator fast(space, skeleton, sim,
                     {.predictor_samples = 60,
                      .seed = 11,
                      .exec = ExecContext::create(bench_threads())});
  Rng rng(29);
  constexpr std::size_t kProfileStream = 256;
  std::vector<CandidateDesign> stream;
  stream.reserve(kProfileStream);
  for (std::size_t i = 0; i < kProfileStream; ++i)
    stream.push_back(space.random_candidate(rng));
  double sink = 0.0;
  (void)batched_cand_per_s(fast, stream, sink);

  // Same build + memo-cold pass on the sparse predictor backend, plus a few
  // online refinements, so the gp.sparse_fit / gp.sparse_select /
  // gp.sparse_update spans land in the profile and the perf-lint hot set
  // covers the sparse paths too.
  FastEvaluator sparse_fast(space, skeleton, sim,
                            {.predictor_samples = 60,
                             .seed = 11,
                             .predictor_backend = GpBackend::kSparse,
                             .inducing_points = 32,
                             .exec = ExecContext::create(bench_threads())});
  (void)batched_cand_per_s(sparse_fast, stream, sink);
  AccurateEvaluator accurate(skeleton, sim);
  for (std::size_t i = 0; i < 4; ++i)
    (void)sparse_fast.refine(stream[i], accurate.evaluate(stream[i]));

  // A short RL co-search over the exact-GP evaluator, so the controller's
  // rl.sample / rl.backward / rl.adam spans (and the search.* phases) land
  // in the profile and the perf-lint hot set covers the controller.
  SearchOptions rl_options;
  rl_options.iterations = 64;
  rl_options.batch_size = 8;
  rl_options.top_n = 4;
  rl_options.seed = 11;
  sink += YosoSearch(space, rl_options).run(fast, &accurate).best_fast_reward;
  return sink;
}

/// `--emit-profile`: kProfilePasses instrumented passes, each span's
/// count / total_ns / self_ns the median over the passes (one sub-second
/// pass reorders the hot set on host noise), written as the yoso-lint
/// hot-set profile.
int emit_profile(const std::string& path) {
  using namespace yoso;
  constexpr std::size_t kProfilePasses = 5;
  std::map<std::string, std::vector<obs::SpanAggregate>> passes;
  double sink = 0.0;
  obs::set_enabled(true);
  for (std::size_t p = 0; p < kProfilePasses; ++p) {
    obs::reset_tracing();
    sink += profile_pass();
    for (obs::SpanAggregate& s : obs::summarize_spans())
      passes[s.name].push_back(std::move(s));
  }
  obs::set_enabled(false);
  auto median = [](std::vector<std::uint64_t> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<obs::SpanAggregate> spans;
  for (const auto& [name, seen] : passes) {
    std::vector<std::uint64_t> count, total, self;
    for (const obs::SpanAggregate& s : seen) {
      count.push_back(s.count);
      total.push_back(s.total_ns);
      self.push_back(s.self_ns);
    }
    spans.push_back({name, median(count), median(total), median(self)});
  }
  std::ofstream os(path);
  if (!os) {
    std::cerr << "emit-profile: cannot open " << path << " for writing\n";
    return 1;
  }
  os << "{\n  \"tool\": \"bench_throughput\",\n  \"schema\": 1,\n"
     << "  \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanAggregate& s = spans[i];
    os << "    {\"name\": \"" << s.name << "\", \"count\": " << s.count
       << ", \"total_ns\": " << s.total_ns << ", \"self_ns\": " << s.self_ns
       << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.close();
  std::cout << "emit-profile: wrote " << spans.size()
            << " span(s), medians of " << kProfilePasses << " passes, to "
            << path << "  [checksum " << TextTable::fmt(sink, 1) << "]\n";
  for (const obs::SpanAggregate& s : spans)
    std::cout << "  " << s.name << "  count " << s.count << "  self "
              << s.self_ns << " ns\n";
  return os ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace yoso;
  const bool smoke =
      argc > 1 && std::string_view(argv[1]) == std::string_view("--smoke");
  if (argc > 1 && std::string_view(argv[1]) ==
                      std::string_view("--emit-profile")) {
    return emit_profile(argc > 2 ? argv[2] : "yoso_hot_profile.json");
  }
  Stopwatch sw;
  bench_banner("Extension", smoke ? "candidate-throughput smoke"
                                  : "candidate-throughput + batch-size sweep");

  BenchJson json(smoke ? "throughput_smoke" : "throughput");
  const bool ok = bench_candidate_throughput(json, smoke);
  const std::string json_path = json.write();
  std::cout << "[wrote " << (json_path.empty() ? "<failed>" : json_path)
            << "]\n";
  if (smoke) {
    bench_footer(sw);
    return ok ? 0 : 1;
  }

  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const NetworkSkeleton skeleton = default_skeleton();
  const AcceleratorConfig cfg{16, 32, 512, 512,
                              Dataflow::kOutputStationary};

  TextTable table({"model", "batch", "E/img (mJ)", "L/img (ms)",
                   "throughput (fps)"});
  for (const char* name : {"Darts_v1", "EnasNet"}) {
    const auto& g = reference_model(name).genotype;
    for (int batch : {1, 2, 4, 8, 16}) {
      const auto r = sim.simulate_network(g, skeleton, cfg, batch);
      table.add_row({name, TextTable::fmt_int(batch),
                     TextTable::fmt(r.energy_mj, 2),
                     TextTable::fmt(r.latency_ms, 2),
                     TextTable::fmt(r.throughput_fps, 0)});
    }
  }
  table.print(std::cout);

  // Does the best config change with batching?  Compare the exhaustive best
  // config at batch 1 vs batch 16 for one network.
  const auto& g = reference_model("Darts_v2").genotype;
  const ConfigSpace space = default_config_space();
  TextTable best({"batch", "best config (min E/img)", "E/img (mJ)"});
  for (int batch : {1, 16}) {
    double best_e = 1e18;
    AcceleratorConfig best_cfg{};
    for (const AcceleratorConfig& c : space.enumerate()) {
      const auto r = sim.simulate_network(g, skeleton, c, batch);
      if (r.energy_mj < best_e) {
        best_e = r.energy_mj;
        best_cfg = c;
      }
    }
    best.add_row({TextTable::fmt_int(batch), best_cfg.to_string(),
                  TextTable::fmt(best_e, 2)});
  }
  std::cout << "\nenergy-optimal configuration vs batch (Darts_v2):\n";
  best.print(std::cout);
  std::cout << "\nshape check: per-image energy decreases monotonically with "
               "batch and saturates at the activation-traffic floor.\n";
  bench_footer(sw);
  return 0;
}
