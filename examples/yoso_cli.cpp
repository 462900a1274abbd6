// Command-line driver for the full framework: choose the search strategy,
// reward preset, thresholds and budget, and optionally dump the iteration
// trace / finalist table as CSV for plotting.
//
//   ./build/examples/yoso_cli --searcher rl --reward energy
//       --iterations 3000 --seed 7 --trace trace.csv --finalists top.csv
//
// Flags (all optional):
//   --searcher   rl | random | evolution | bayes        [rl]
//   --reward     balanced | energy | latency            [balanced]
//   --iterations N                                      [2000]
//   --samples    N   (GP training samples, Step 1)      [500]
//   --predictor  exact | sparse  (GP backend, Step 1)   [exact]
//   --inducing-points N  (sparse GP inducing rows)      [512]
//   --refine-every N  (fold an accurate result into the
//                      sparse GPs every N iterations;
//                      0 = off, requires --predictor sparse) [0]
//   --top-n      N   (finalists for Step-3 rerank)      [10]
//   --threads    N   (evaluation threads, 0 = all HW)   [1]
//   --batch      N   (candidates evaluated per round)   [8]
//   --seed       N                                      [7]
//   --t-lat      X   latency threshold, ms              [1.2]
//   --t-eer      X   energy threshold, mJ               [9.0]
//   --trace      FILE  write iteration trace CSV
//   --finalists  FILE  write finalist CSV
//   --report     FILE  write a markdown design report for the winner
//   --rtl        FILE  write a SystemVerilog skeleton of the winning config
//   --metrics-out FILE  write the metrics snapshot as JSON (enables
//                       observability for the run)
//   --trace-out  FILE  write Chrome trace_event JSON for chrome://tracing /
//                      Perfetto (enables observability for the run)
//   --save-artifact FILE  after Step 1, save the trained fast evaluator as a
//                      checksummed binary artifact (docs/ARTIFACTS.md) that
//                      --load-artifact can reuse
//   --load-artifact FILE  restore the fast evaluator from an artifact
//                      instead of training it, skipping Step-1 sample
//                      collection entirely (--samples/--predictor/
//                      --inducing-points then come from the artifact)
//
// Either observability flag also prints the per-phase cost table
// (docs/OBSERVABILITY.md) after the results.

#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

#include "accel/area.h"
#include "accel/rtl_export.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/alt_search.h"
#include "core/artifact.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/report.h"
#include "core/reward.h"
#include "core/search.h"
#include "core/serialize.h"
#include "core/trace_io.h"
#include "obs/metrics.h"
#include "obs/timebase.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "util/exec_context.h"
#include "util/table.h"

namespace {

using namespace yoso;

struct CliOptions {
  std::string searcher = "rl";
  std::string reward = "balanced";
  std::size_t iterations = 2000;
  std::size_t samples = 500;
  std::string predictor = "exact";
  std::size_t inducing_points = 512;
  std::size_t refine_every = 0;
  std::size_t top_n = 10;
  std::size_t threads = 1;
  // Fixed default, deliberately NOT derived from --threads: the search
  // trajectory depends on batch_size, so a thread-following default would
  // make --threads change the results and break the bit-identical promise
  // (DESIGN.md §9).
  std::size_t batch = 8;
  std::uint64_t seed = 7;
  double t_lat = 1.2;
  double t_eer = 9.0;
  std::string trace_file;
  std::string finalists_file;
  std::string report_file;
  std::string rtl_file;
  std::string metrics_out;
  std::string trace_out;
  std::string save_artifact;
  std::string load_artifact;

  bool observe() const { return !metrics_out.empty() || !trace_out.empty(); }
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "yoso_cli: " << message
            << "\nsee the header comment of examples/yoso_cli.cpp for flags\n";
  std::exit(2);
}

// Parses all of `value` as a T: trailing characters, a sign on an unsigned
// flag, overflow and a non-finite double are usage errors, never a silently
// truncated or wrapped value.
template <typename T>
T parse_number(const std::string& key, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) usage_error("bad value '" + value + "' for --" + key);
  return out;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opt;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage_error("unexpected argument " + key);
    if (i + 1 >= argc) usage_error("missing value for " + key);
    kv[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : kv) {
    using Size = std::size_t;
    if (key == "searcher") opt.searcher = value;
    else if (key == "reward") opt.reward = value;
    else if (key == "iterations")
      opt.iterations = parse_number<Size>(key, value);
    else if (key == "samples") opt.samples = parse_number<Size>(key, value);
    else if (key == "predictor") opt.predictor = value;
    else if (key == "inducing-points")
      opt.inducing_points = parse_number<Size>(key, value);
    else if (key == "refine-every")
      opt.refine_every = parse_number<Size>(key, value);
    else if (key == "top-n") opt.top_n = parse_number<Size>(key, value);
    else if (key == "threads") opt.threads = parse_number<Size>(key, value);
    else if (key == "batch") opt.batch = parse_number<Size>(key, value);
    else if (key == "seed") opt.seed = parse_number<std::uint64_t>(key, value);
    else if (key == "t-lat") opt.t_lat = parse_number<double>(key, value);
    else if (key == "t-eer") opt.t_eer = parse_number<double>(key, value);
    else if (key == "trace") opt.trace_file = value;
    else if (key == "finalists") opt.finalists_file = value;
    else if (key == "report") opt.report_file = value;
    else if (key == "rtl") opt.rtl_file = value;
    else if (key == "metrics-out") opt.metrics_out = value;
    else if (key == "trace-out") opt.trace_out = value;
    else if (key == "save-artifact") opt.save_artifact = value;
    else if (key == "load-artifact") opt.load_artifact = value;
    else usage_error("unknown flag --" + key);
  }
  return opt;
}

RewardParams pick_reward(const CliOptions& opt) {
  RewardParams reward;
  if (opt.reward == "balanced") reward = balanced_reward();
  else if (opt.reward == "energy") reward = energy_opt_reward();
  else if (opt.reward == "latency") reward = latency_opt_reward();
  else usage_error("unknown reward preset '" + opt.reward + "'");
  reward.t_lat_ms = opt.t_lat;
  reward.t_eer_mj = opt.t_eer;
  return reward;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_args(argc, argv);
  const bool observe = cli.observe();
  if (observe) obs::set_enabled(true);
  const Stopwatch wall;  // denominator of the per-phase cost table

  SearchOptions options;
  options.iterations = cli.iterations;
  options.top_n = cli.top_n;
  options.reward = pick_reward(cli);
  options.seed = cli.seed;
  options.batch_size = cli.batch;
  options.observe = observe;
  if (cli.predictor == "exact") options.predictor = GpBackend::kExact;
  else if (cli.predictor == "sparse") options.predictor = GpBackend::kSparse;
  else usage_error("unknown predictor backend '" + cli.predictor + "'");
  options.inducing_points = cli.inducing_points;
  options.refine_every = cli.refine_every;

  // --load-artifact replaces Step 1 wholesale: the predictor backend and
  // inducing budget recorded in the artifact override the corresponding
  // flags so validate() (e.g. refine-every-requires-sparse) judges what
  // will actually run.
  std::optional<FastEvaluatorArtifact> bundle;
  if (!cli.load_artifact.empty()) {
    try {
      bundle.emplace(load_fast_evaluator_artifact(cli.load_artifact));
    } catch (const std::exception& e) {
      usage_error("--load-artifact " + cli.load_artifact + ": " + e.what());
    }
    options.predictor = bundle->predictor.latency.backend;
    options.inducing_points = bundle->predictor.latency.inducing_target;
  }
  // Reject unusable option combinations before paying for Step 1: the
  // contracts live in SearchOptions::validate(), shared with every driver.
  try {
    options.validate();
  } catch (const ContractViolation& violation) {
    usage_error(violation.what());
  }

  DesignSpace space;
  const NetworkSkeleton skeleton =
      bundle.has_value() ? bundle->skeleton : default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);

  // One parallelism knob: a single ExecContext shared by both evaluators
  // (and injected again via run(), which is a no-op re-injection here).
  const ExecContextPtr exec = ExecContext::create(cli.threads);
  if (bundle.has_value()) {
    std::cout << "[1/3] restoring the fast evaluator from "
              << cli.load_artifact << " (" << exec->threads()
              << " thread(s))...\n";
  } else {
    std::cout << "[1/3] building the fast evaluator (" << cli.samples
              << " simulator samples, " << exec->threads()
              << " thread(s))...\n";
  }
  // The evaluator and result objects outlive the phases, so the top-level
  // phase spans use the manual begin/end API rather than a scoped block.
  // FastEvaluator is non-movable; both branches of the conditional are
  // prvalues, so `fast` is constructed in place either way.
  obs::begin_span("phase.build_evaluator");
  FastEvaluator fast =
      bundle.has_value()
          ? make_fast_evaluator(*bundle, exec)
          : FastEvaluator(space, skeleton, simulator,
                          {.predictor_samples = cli.samples,
                           .seed = cli.seed,
                           .predictor_backend = options.predictor,
                           .inducing_points = options.inducing_points,
                           .exec = exec});
  if (!cli.save_artifact.empty()) {
    save_fast_evaluator(cli.save_artifact, fast, "yoso_cli",
                        "seed=" + std::to_string(cli.seed));
    std::cout << "artifact written to " << cli.save_artifact << "\n";
  }
  AccurateEvaluator accurate(skeleton, SystolicSimulator({},
                                                         SimFidelity::kCycleLevel),
                             exec);
  obs::end_span("phase.build_evaluator");

  std::cout << "[2/3] running " << cli.searcher << " search ("
            << cli.iterations << " iterations, "
            << options.reward.to_string() << ")...\n";
  SearchResult result;
  obs::begin_span("phase.search");
  if (cli.searcher == "rl") {
    result = YosoSearch(space, options).run(fast, &accurate, exec);
  } else if (cli.searcher == "random") {
    result = RandomSearchDriver(space, options).run(fast, &accurate, exec);
  } else if (cli.searcher == "evolution") {
    result = EvolutionarySearch(space, options).run(fast, &accurate, exec);
  } else if (cli.searcher == "bayes") {
    result = BayesOptSearch(space, options).run(fast, &accurate, exec);
  } else {
    usage_error("unknown searcher '" + cli.searcher + "'");
  }
  obs::end_span("phase.search");

  obs::begin_span("phase.outputs");
  std::cout << "[3/3] results\n\n";
  TextTable table({"rank", "err %", "E (mJ)", "L (ms)", "area (mm2)",
                   "feasible", "config"});
  for (std::size_t i = 0; i < result.finalists.size(); ++i) {
    const RankedCandidate& f = result.finalists[i];
    table.add_row(
        {TextTable::fmt_int(static_cast<long long>(i)),
         TextTable::fmt((1.0 - f.accurate_result.accuracy) * 100.0, 2),
         TextTable::fmt(f.accurate_result.energy_mj, 2),
         TextTable::fmt(f.accurate_result.latency_ms, 2),
         TextTable::fmt(total_area_mm2(f.candidate.config), 2),
         f.feasible ? "yes" : "no", f.candidate.config.to_string()});
  }
  table.print(std::cout);

  if (result.best) {
    std::cout << "\nwinning design:\n  "
              << serialize_candidate(result.best->candidate) << "\n";
  }
  if (!cli.trace_file.empty()) {
    std::ofstream os(cli.trace_file);
    if (!os) usage_error("cannot open " + cli.trace_file);
    write_trace_csv(os, result);
    std::cout << "trace written to " << cli.trace_file << "\n";
  }
  if (!cli.finalists_file.empty()) {
    std::ofstream os(cli.finalists_file);
    if (!os) usage_error("cannot open " + cli.finalists_file);
    write_finalists_csv(os, result);
    std::cout << "finalists written to " << cli.finalists_file << "\n";
  }
  if (!cli.report_file.empty() && result.best) {
    std::ofstream os(cli.report_file);
    if (!os) usage_error("cannot open " + cli.report_file);
    os << render_design_report(result, skeleton, options.reward);
    std::cout << "design report written to " << cli.report_file << "\n";
  }
  if (!cli.rtl_file.empty() && result.best) {
    std::ofstream os(cli.rtl_file);
    if (!os) usage_error("cannot open " + cli.rtl_file);
    os << export_systolic_rtl(result.best->candidate.config);
    std::cout << "RTL skeleton written to " << cli.rtl_file << "\n";
  }
  obs::end_span("phase.outputs");

  if (observe) {
    std::cout << "\n"
              << obs::render_phase_table(obs::summarize_spans(),
                                         wall.elapsed_seconds());
    if (!cli.metrics_out.empty()) {
      std::ofstream os(cli.metrics_out);
      if (!os) usage_error("cannot open " + cli.metrics_out);
      obs::write_metrics_json(os, obs::metrics_registry().snapshot());
      std::cout << "metrics written to " << cli.metrics_out << "\n";
    }
    if (!cli.trace_out.empty()) {
      std::ofstream os(cli.trace_out);
      if (!os) usage_error("cannot open " + cli.trace_out);
      obs::write_chrome_trace(os);
      std::cout << "chrome trace written to " << cli.trace_out
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
  }
  return 0;
}
