// End-to-end co-search benchmark: runs complete YOSO jobs (Step 1 simulator
// samples + GP fit, Step 2 search against the fast evaluator, Step 3 rerank
// on the cycle-level simulator) through the same public API yoso_cli uses,
// back to back in one process, and prints one JSON result line.
//
//   perfbench --workload codesign_rl --seed 3 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced jobs (program
// observability off).  --trace 1 alternates untraced and traced jobs and
// reports per-layer metrics of the traced ones; the spans are timed here,
// around calls into each layer's public functions, kept in memory and
// written to --trace-file at the end.  --tiny 1 shrinks every workload for
// the self-check (perfbench/run.py --self-check).  A fixed reference pass,
// timed before and after every job, measures the shared host's speed; the
// end-to-end times are scaled by it (see reference_pass and
// perfbench/README.md).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "core/alt_search.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "core/serialize.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/timebase.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "rl/controller.h"
#include "rl/reinforce.h"
#include "surrogate/accuracy_model.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace {

using namespace yoso;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// ------------------------------------------------------------- workloads

enum class Searcher { kRl, kRandom, kEvolution };

struct Workload {
  const char* name;
  Searcher searcher;
  std::size_t samples;     // Step-1 simulator samples
  GpBackend backend;       // sparse keeps the default 512 inducing rows
  std::size_t threads;     // one ExecContext shared by both evaluators
  std::size_t iterations;  // Step-2 candidates
  std::size_t batch;
  std::size_t refine_every;
  std::size_t top_n;       // Step-3 finalists
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    // yoso_cli's default settings at a tenth of its samples and
    // iterations, so a run holds many jobs: the controller owns the wall.
    {"codesign_rl", Searcher::kRl, 100, GpBackend::kExact, 1, 200, 8, 0, 10},
    // Simulation + sparse fit own the wall; the controller never runs.
    {"step1_heavy", Searcher::kRandom, 600, GpBackend::kSparse, 2, 64000,
     64, 0, 32},
    // Batch-1 memo reads interleaved with GP refinement and memo flushes.
    {"evolve_refine", Searcher::kEvolution, 400, GpBackend::kSparse, 2,
     30000, 1, 500, 10},
};

Workload tiny(Workload w) {
  w.samples = 40;
  w.iterations = 128;
  w.top_n = std::min<std::size_t>(w.top_n, 4);
  if (w.refine_every != 0) w.refine_every = 32;
  return w;
}

// The benchmark seed is turned into the program's seed here; the program
// only ever sees the generated options.
std::uint64_t program_seed(std::uint64_t bench_seed) {
  std::uint64_t z = bench_seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1000003 + 1;
}

// --------------------------------------------------------------- tracing

std::uint64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(t.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

struct Span {
  const char* name;
  int parent;  // index of the enclosing span, -1 for the job root
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
};

/// In-memory span log of one job.  Spans are opened and closed only on the
/// thread driving the job (evaluators are called from the search's
/// coordinator), so a plain stack tracks nesting.
class Recorder {
 public:
  class Scope {
   public:
    Scope(Recorder& rec, const char* name) : rec_(rec), id_(rec.open(name)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& rec_;
    std::size_t id_;
  };

  std::size_t open(const char* name) {
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    spans_.push_back({name, parent, obs::now_ns(), 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end_ns = obs::now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

std::uint64_t duration_ns(const Span& s) { return s.end_ns - s.begin_ns; }

/// Self time of every span: its duration minus its children's.
std::vector<std::uint64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = duration_ns(spans[i]);
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= duration_ns(s);
  return self;
}

/// Forwards every Evaluator call to `inner`, timing it as a span.
class TimedEvaluator final : public Evaluator {
 public:
  struct Names {
    const char* evaluate;
    const char* batch;
    const char* refine;
  };

  TimedEvaluator(Evaluator& inner, Recorder& rec, Names names)
      : inner_(inner), rec_(rec), names_(names) {}

  EvalResult evaluate(const CandidateDesign& candidate) override {
    const Recorder::Scope span(rec_, names_.evaluate);
    return inner_.evaluate(candidate);
  }
  std::vector<EvalResult> evaluate_batch(
      std::span<const CandidateDesign> batch) override {
    const Recorder::Scope span(rec_, names_.batch);
    return inner_.evaluate_batch(batch);
  }
  bool refine(const CandidateDesign& candidate,
              const EvalResult& accurate) override {
    const Recorder::Scope span(rec_, names_.refine);
    return inner_.refine(candidate, accurate);
  }
  void set_exec_context(ExecContextPtr exec) override {
    inner_.set_exec_context(std::move(exec));
  }

 private:
  Evaluator& inner_;
  Recorder& rec_;
  Names names_;
};

/// YosoSearch's Step-2 loop with each ReinforceTrainer call timed.  Same
/// RNG salt, controller and round structure, so it proposes exactly what
/// YosoSearch proposes; every traced job's finalists are checked against
/// the untraced (YosoSearch) jobs of the same seed, which proves it.
class TimedYosoSearch final : public SearchDriver {
 public:
  TimedYosoSearch(const DesignSpace& space, SearchOptions options,
                  Recorder& rec)
      : SearchDriver(space, std::move(options)), rec_(rec) {}

 protected:
  void search(SearchLoop& loop, Rng& rng) override {
    ControllerOptions copt = options_.controller;
    copt.seed = options_.seed;
    LstmController controller(space_.cardinalities(), copt);
    ReinforceTrainer trainer(controller, options_.reinforce);
    const std::size_t round = std::max<std::size_t>(1, options_.batch_size);
    std::vector<Episode> episodes;
    std::vector<CandidateDesign> batch;
    std::size_t it = 0;
    while (it < options_.iterations) {
      const std::size_t k = std::min(round, options_.iterations - it);
      episodes.clear();
      batch.clear();
      for (std::size_t j = 0; j < k; ++j) {
        {
          const Recorder::Scope span(rec_, "rl.propose");
          episodes.push_back(trainer.propose(rng));
        }
        batch.push_back(space_.decode(episodes.back().actions));
      }
      const std::vector<double> rewards = loop.submit(batch);
      for (std::size_t j = 0; j < k; ++j) {
        const Recorder::Scope span(rec_, "rl.feedback");
        trainer.feedback(episodes[j], rewards[j]);
      }
      it += k;
    }
  }
  std::uint64_t rng_salt() const override { return 0x5ca1ab1eull; }

 private:
  Recorder& rec_;
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ------------------------------------------------------------ host speed

/// One pass of a fixed CPU workload that belongs to the benchmark, not to
/// the program, so no change to the program can speed it up.  It mixes the
/// three kinds of work a job does: small matrix-vector products with tanh
/// (the controller's LSTM), a dense matrix product (the GP's panels) and a
/// table-driven integer recurrence over an L2-sized table (the simulator's
/// tiling loops).  Returns a checksum so nothing is optimised away.
double reference_pass() {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kTable = 1u << 15;  // 256 KiB of uint64
  static const std::vector<double> a = [] {
    std::vector<double> m(kN * kN);
    for (std::size_t i = 0; i < m.size(); ++i)
      m[i] = 0.05 * std::sin(0.37 * static_cast<double>(i));
    return m;
  }();
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kTable);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& e : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    return t;
  }();
  std::vector<double> h(kN, 0.5), g(kN), c(kN * kN, 0.0);
  for (int step = 0; step < 96; ++step) {
    for (std::size_t i = 0; i < kN; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < kN; ++j) acc += a[i * kN + j] * h[j];
      g[i] = std::tanh(acc + 0.1);
    }
    h.swap(g);
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t k = 0; k < kN; ++k) {
        const double aik = a[i * kN + k];
        for (std::size_t j = 0; j < kN; ++j)
          c[i * kN + j] += aik * a[k * kN + j];
      }
    }
  }
  std::uint64_t x = 1;
  for (int i = 0; i < 240000; ++i) {
    x = x * 6364136223846793005ull + table[x % kTable];
    if (x & 1) x ^= x >> 29;
  }
  return h[0] + c[kN + 1] + static_cast<double>(x & 0xff);
}

/// The reference pass time that end-to-end times are scaled to.  A quiet
/// 4-vCPU Xeon VM takes about this long; any fixed value would do, since
/// only ratios between runs on one host are compared.
constexpr double kReferenceMs = 2.0;

/// Jobs slow down more than the reference pass when the host is loaded:
/// over 20 runs per workload on a shared 4-vCPU VM whose reference time
/// ranged from 1.9 to 3.3 ms, log(run median) against log(reference) had
/// slopes of 1.2-1.4 (correlation 0.93-0.99) for every workload and time
/// metric.  Times are therefore scaled by (kReferenceMs / r)^1.3.
constexpr double kReferenceExponent = 1.3;

/// Host speed now: median wall time of a few reference passes, in ms.
double reference_ms() {
  constexpr int kPasses = 9;
  std::vector<double> ms;
  volatile double sink = 0.0;
  for (int i = 0; i < kPasses; ++i) {
    const Stopwatch t;
    sink = sink + reference_pass();
    ms.push_back(t.elapsed_seconds() * 1e3);
  }
  return median(ms);
}

// ------------------------------------------------------------------ jobs

struct JobResult {
  bool warmup = false;  // checked, but left out of every metric
  bool traced = false;
  std::string failure;  // empty when every output check passed
  double wall_s = 0.0;
  double setup_s = 0.0;
  double cand_per_s = 0.0;
  double cpu_s = 0.0;
  double host_ref_ms = 0.0;  // reference pass time around the job
  double winner_reward = 0.0;
  std::string winner;
  std::string signature;  // finalists + accurate results, bit-exact
  std::vector<Span> spans;
  std::map<std::string, double> layer;  // per-layer metrics (traced jobs)
};

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string finalists_signature(const SearchResult& result) {
  std::ostringstream os;
  for (const RankedCandidate& f : result.finalists)
    os << serialize_candidate(f.candidate) << ' ' << hex_bits(f.fast_reward)
       << ' ' << hex_bits(f.accurate_result.accuracy) << ' '
       << hex_bits(f.accurate_result.latency_ms) << ' '
       << hex_bits(f.accurate_result.energy_mj) << '\n';
  return os.str();
}

SearchOptions search_options(const Workload& w, std::uint64_t seed) {
  SearchOptions o;
  o.iterations = w.iterations;
  o.top_n = w.top_n;
  o.reward = balanced_reward();
  o.reward.t_lat_ms = 1.2;  // yoso_cli defaults
  o.reward.t_eer_mj = 9.0;
  o.seed = seed;
  o.batch_size = w.batch;
  o.predictor = w.backend;
  o.refine_every = w.refine_every;
  return o;
}

SearchResult run_search(const Workload& w, const DesignSpace& space,
                        const SearchOptions& options, Evaluator& fast,
                        Evaluator& accurate, const ExecContextPtr& exec,
                        Recorder* rl_rec) {
  switch (w.searcher) {
    case Searcher::kRl:
      if (rl_rec != nullptr)
        return TimedYosoSearch(space, options, *rl_rec)
            .run(fast, &accurate, exec);
      return YosoSearch(space, options).run(fast, &accurate, exec);
    case Searcher::kRandom:
      return RandomSearchDriver(space, options).run(fast, &accurate, exec);
    case Searcher::kEvolution:
      return EvolutionarySearch(space, options).run(fast, &accurate, exec);
  }
  throw std::logic_error("unknown searcher");
}

/// The output checks every job must pass; returns the first failure.
std::string check_outputs(const Workload& w, const NetworkSkeleton& skeleton,
                          const SearchResult& result) {
  if (result.iterations_run != w.iterations)
    return "iterations_run " + std::to_string(result.iterations_run) +
           " != " + std::to_string(w.iterations);
  if (w.refine_every != 0 &&
      result.refinements != w.iterations / w.refine_every)
    return "refinements " + std::to_string(result.refinements);
  if (!result.best.has_value() || result.finalists.empty())
    return "no winner";
  // The winner's accurate result must be exactly what a fresh cycle-level
  // simulation and accuracy evaluation, made outside the search, give.
  const CandidateDesign& c = result.best->candidate;
  const SimulationResult sim =
      SystolicSimulator({}, SimFidelity::kCycleLevel)
          .simulate_network(c.genotype, skeleton, c.config);
  const double accuracy =
      1.0 - AccuracyModel(skeleton).test_error(c.genotype) / 100.0;
  const EvalResult& got = result.best->accurate_result;
  if (hex_bits(got.latency_ms) != hex_bits(sim.latency_ms) ||
      hex_bits(got.energy_mj) != hex_bits(sim.energy_mj) ||
      hex_bits(got.accuracy) != hex_bits(accuracy))
    return "winner's accurate result differs from a fresh simulation";
  return "";
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// Per-layer metrics of one traced job, from its spans and the program's
/// metrics registry.
std::map<std::string, double> layer_metrics(const Workload& w,
                                            const std::vector<Span>& spans,
                                            const SearchResult& result,
                                            const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::vector<double>> ms;  // durations by name
  for (const Span& s : spans)
    ms[s.name].push_back(static_cast<double>(duration_ns(s)) * 1e-6);
  const auto total = [&](const char* name) { return sum(ms[name]); };
  const double n_iter = static_cast<double>(w.iterations);

  std::map<std::string, double> m;
  m["accel.collect_ms"] = total("accel.collect");
  m["accel.collect_ms_per_sample"] =
      total("accel.collect") / static_cast<double>(w.samples);
  m["accel.accurate_eval_ms_p50"] = percentile(ms["accel.accurate_eval"], 0.5);
  m["accel.accurate_eval_ms_p90"] = percentile(ms["accel.accurate_eval"], 0.9);
  m["accel.rerank_ms"] = total("accel.rerank");
  m["accel.networks"] = static_cast<double>(
      w.samples + ms["accel.accurate_eval"].size() + result.finalists.size());
  m["predictor.fit_ms"] = total("predictor.fit");
  m["predictor.refine_ms_p50"] = percentile(ms["predictor.refine"], 0.5);

  double lat_ape = 0.0;
  double en_ape = 0.0;
  for (const RankedCandidate& f : result.finalists) {
    const EvalResult& fast = f.fast_result;
    const EvalResult& acc = f.accurate_result;
    lat_ape += std::abs(fast.latency_ms - acc.latency_ms) / acc.latency_ms;
    en_ape += std::abs(fast.energy_mj - acc.energy_mj) / acc.energy_mj;
  }
  const double nf = static_cast<double>(result.finalists.size());
  m["predictor.finalist_latency_mape_pct"] = 100.0 * lat_ape / nf;
  m["predictor.finalist_energy_mape_pct"] = 100.0 * en_ape / nf;

  const std::vector<double>& fast = ms["core.fast_batch"];
  m["core.fast_batch_calls"] = static_cast<double>(fast.size());
  m["core.fast_us_per_candidate"] = 1e3 * sum(fast) / n_iter;
  m["core.fast_batch_us_p50"] = 1e3 * percentile(fast, 0.5);
  m["core.fast_batch_us_p99"] = 1e3 * percentile(fast, 0.99);
  const double hits =
      static_cast<double>(counter_value(snap, "eval.cache_hits"));
  const double misses =
      static_cast<double>(counter_value(snap, "eval.cache_misses"));
  m["core.memo_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;

  // Step-2 wall minus every evaluator call: the proposal strategy plus the
  // SearchLoop bookkeeping.
  const double step2 = total("search") - total("accel.rerank");
  const double propose = step2 - sum(fast) - total("predictor.refine") -
                         total("accel.accurate_eval");
  m["search.propose_ms"] = propose;
  m["search.propose_us_per_candidate"] = 1e3 * propose / n_iter;
  // Per episode; 0 on workloads whose searcher is not the controller.
  const auto per_call_us = [&](const char* name) {
    const std::vector<double>& v = ms[name];
    return v.empty() ? 0.0 : 1e3 * sum(v) / static_cast<double>(v.size());
  };
  m["rl.propose_us"] = per_call_us("rl.propose");
  m["rl.feedback_us"] = per_call_us("rl.feedback");

  const double busy =
      static_cast<double>(counter_value(snap, "pool.worker_busy_ns"));
  const double idle =
      static_cast<double>(counter_value(snap, "pool.worker_idle_ns"));
  m["util.pool_busy_ratio"] = busy + idle > 0 ? busy / (busy + idle) : 0.0;

  // Wall that no call into a layer covers: the self time of the structural
  // spans.  For the evolution and random searchers this includes their
  // proposal code, which only search.propose_ms accounts for.
  const std::vector<std::uint64_t> self = self_ns(spans);
  double unattributed = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "job" || name == "step1" || name == "search")
      unattributed += static_cast<double>(self[i]) * 1e-6;
  }
  m["bench.unattributed_pct"] = 100.0 * unattributed / ms["job"].front();
  return m;
}

JobResult run_job(const Workload& w, std::uint64_t seed, bool traced) {
  JobResult job;
  job.traced = traced;
  Recorder rec;
  if (traced) {
    obs::metrics_registry().reset();
    obs::reset_tracing();
    obs::set_enabled(true);
  }
  const DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  const SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  const SearchOptions options = search_options(w, seed);
  const std::uint64_t cpu0 = cpu_ns();
  const std::size_t root = rec.open("job");

  const std::size_t step1 = rec.open("step1");
  const ExecContextPtr exec = ExecContext::create(w.threads);
  std::unique_ptr<FastEvaluator> fast;
  if (traced) {
    // FastEvaluator's Step-1 constructor, split into its two timed calls.
    Rng rng(seed);
    std::vector<PerfSample> samples;
    {
      const Recorder::Scope span(rec, "accel.collect");
      samples = collect_samples(w.samples, simulator, space.config_space(),
                                skeleton, rng, &exec->pool());
    }
    PerformancePredictor predictor(skeleton, w.backend);
    {
      const Recorder::Scope span(rec, "predictor.fit");
      predictor.fit(samples);
    }
    fast = std::make_unique<FastEvaluator>(AccuracyModel(skeleton),
                                           std::move(predictor), exec);
  } else {
    fast = std::make_unique<FastEvaluator>(
        space, skeleton, simulator,
        FastEvaluatorOptions{.predictor_samples = w.samples,
                             .seed = seed,
                             .predictor_backend = w.backend,
                             .exec = exec});
  }
  rec.close(step1);

  AccurateEvaluator accurate_inner(
      skeleton, SystolicSimulator({}, SimFidelity::kCycleLevel), exec);
  // The accurate evaluator is always wrapped: its one evaluate_batch call is
  // the Step-3 rerank, which separates Step 2 from Step 3.
  TimedEvaluator accurate(
      accurate_inner, rec,
      {"accel.accurate_eval", "accel.rerank", "accel.refine"});
  TimedEvaluator fast_timed(*fast, rec,
                            {"core.fast_eval", "core.fast_batch",
                             "predictor.refine"});
  SearchResult result;
  {
    const Recorder::Scope span(rec, "search");
    Evaluator& f = traced ? static_cast<Evaluator&>(fast_timed) : *fast;
    result = run_search(w, space, options, f, accurate, exec,
                        traced ? &rec : nullptr);
  }
  rec.close(root);
  job.cpu_s = static_cast<double>(cpu_ns() - cpu0) * 1e-9;
  if (traced) obs::set_enabled(false);

  job.spans = rec.spans();
  const auto seconds = [&](const char* name) {
    double s = 0.0;
    for (const Span& sp : job.spans)
      if (std::strcmp(sp.name, name) == 0)
        s += static_cast<double>(duration_ns(sp)) * 1e-9;
    return s;
  };
  job.wall_s = seconds("job");
  job.setup_s = seconds("step1");
  const double step2_s = seconds("search") - seconds("accel.rerank");
  job.cand_per_s = static_cast<double>(result.iterations_run) / step2_s;

  job.failure = check_outputs(w, skeleton, result);
  if (result.best.has_value()) {
    job.winner = serialize_candidate(result.best->candidate);
    job.winner_reward = result.best->accurate_reward;
  }
  job.signature = finalists_signature(result);
  if (traced && job.failure.empty())
    job.layer = layer_metrics(w, job.spans, result,
                              obs::metrics_registry().snapshot());
  return job;
}

// ----------------------------------------------------------- fingerprint

/// A fixed probe set pushed through the cycle-level simulator; the digest
/// changes only when the modelled results (or the probe draws) change.
std::string simulator_digest() {
  const DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  const SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  Rng rng(20200309);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ull;
  };
  double cycles = 0.0;
  constexpr int kProbes = 16;
  for (int i = 0; i < kProbes; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    const SimulationResult r =
        sim.simulate_network(c.genotype, skeleton, c.config);
    mix(r.total_cycles);
    mix(r.latency_ms);
    mix(r.energy_mj);
    cycles += r.total_cycles;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%d probes, digest %016llx, total cycles %.17g", kProbes,
                static_cast<unsigned long long>(h), cycles);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---------------------------------------------------------------- output

const char* const kEndToEnd[][2] = {{"wall_s", "s"},
                                    {"setup_s", "s"},
                                    {"search_cand_per_s", "cand/s"},
                                    {"cpu_s", "s"},
                                    {"peak_rss_mb", "MB"}};

const char* const kPerLayer[][2] = {
    {"accel.collect_ms", "ms"},
    {"accel.collect_ms_per_sample", "ms"},
    {"accel.accurate_eval_ms_p50", "ms"},
    {"accel.accurate_eval_ms_p90", "ms"},
    {"accel.rerank_ms", "ms"},
    {"accel.networks", "count"},
    {"predictor.fit_ms", "ms"},
    {"predictor.refine_ms_p50", "ms"},
    {"predictor.finalist_latency_mape_pct", "%"},
    {"predictor.finalist_energy_mape_pct", "%"},
    {"core.fast_batch_calls", "count"},
    {"core.fast_us_per_candidate", "us"},
    {"core.fast_batch_us_p50", "us"},
    {"core.fast_batch_us_p99", "us"},
    {"core.memo_hit_ratio", "ratio"},
    {"search.propose_ms", "ms"},
    {"search.propose_us_per_candidate", "us"},
    {"rl.propose_us", "us"},
    {"rl.feedback_us", "us"},
    {"util.pool_busy_ratio", "ratio"},
    {"bench.unattributed_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.host_ref_ms", "ms"},
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_trace(const std::string& path, const std::vector<JobResult>& jobs) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::vector<Span>& spans = jobs[j].spans;
    const std::vector<std::uint64_t> self = self_ns(spans);
    const std::uint64_t t0 = spans.empty() ? 0 : spans.front().begin_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::uint64_t total = duration_ns(s);
      os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << j
         << ",\"ts\":" << number(static_cast<double>(s.begin_ns - t0) * 1e-3)
         << ",\"dur\":" << number(static_cast<double>(total) * 1e-3)
         << ",\"args\":{\"job\":" << j << ",\"traced\":"
         << (jobs[j].traced ? "true" : "false") << ",\"id\":" << i
         << ",\"parent\":" << s.parent << ",\"total_ns\":" << total
         << ",\"self_ns\":" << self[i] << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
}

/// Self-time table of one traced job, by span name.
void print_span_table(const JobResult& job) {
  struct Agg {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> agg;
  const std::vector<std::uint64_t> self = self_ns(job.spans);
  for (std::size_t i = 0; i < job.spans.size(); ++i) {
    Agg& a = agg[job.spans[i].name];
    ++a.count;
    a.total_ms += static_cast<double>(duration_ns(job.spans[i])) * 1e-6;
    a.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  const double wall = job.wall_s * 1e3;
  std::printf("  %-22s %8s %12s %12s %7s\n", "span", "count", "total ms",
              "self ms", "self %");
  for (const auto& [name, a] : agg)
    std::printf("  %-22s %8zu %12.2f %12.2f %6.2f%%\n", name.c_str(), a.count,
                a.total_ms, a.self_ms, 100.0 * a.self_ms / wall);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      a.trace = std::stoi(value) != 0;
    } else if (key == "--tiny") {
      a.tiny = std::stoi(value) != 0;
    } else if (key == "--trace-file") {
      a.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds)
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--tiny 0|1] [--trace-file PATH]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from an unoptimised "
                 "build (__OPTIMIZE__ and NDEBUG must both be defined)\n");
    return 3;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) found = &w;
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload w = args.tiny ? tiny(*found) : *found;
  const std::uint64_t seed = program_seed(args.seed);

  std::printf("host: nproc=%u isa=%s compiler=%s build=%s\n",
              std::thread::hardware_concurrency(),
              kernels::active_isa().c_str(), compiler().c_str(),
              PERFBENCH_BUILD_TYPE);
  std::printf("simulator: %s (modelled results; the simulator is not "
              "validated against hardware, the repo holds no reference "
              "measurements)\n",
              simulator_digest().c_str());
  std::printf("workload %s: bench seed %llu -> program seed %llu, %zu samples, "
              "%zu iterations, batch %zu, %zu thread(s)%s\n",
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(seed), w.samples, w.iterations,
              w.batch, w.threads, args.tiny ? " [tiny]" : "");
  std::fflush(stdout);

  // Jobs run back to back while the next one is expected (at the mean job
  // time so far) to end within the budget.  The first job is a warm-up: its
  // outputs are checked but its times are not reported.  An untraced run
  // then makes at least three timed jobs, so setup_s is always a median of
  // several set-ups.  A traced run alternates untraced and traced jobs, at
  // least one of each, so the two sides see the same machine state and
  // their wall difference is the tracing overhead.
  std::vector<JobResult> jobs;
  const Stopwatch budget;
  std::size_t n_traced = 0;
  std::size_t n_untraced = 0;
  const auto another_job = [&] {
    if (jobs.empty() ||
        (args.trace ? n_untraced == 0 || n_traced == 0 : n_untraced < 3))
      return true;
    const double elapsed = budget.elapsed_seconds();
    return elapsed * (1.0 + 1.0 / static_cast<double>(jobs.size())) <=
           args.seconds;
  };
  double ref_before = reference_ms();
  while (another_job()) {
    const bool warmup = jobs.empty();
    const bool traced = !warmup && args.trace && n_untraced > n_traced;
    JobResult job;
    try {
      job = run_job(w, seed, traced);
    } catch (const std::exception& e) {
      obs::set_enabled(false);
      job.traced = traced;
      job.failure = std::string("exception: ") + e.what();
    }
    const double ref_after = reference_ms();
    job.host_ref_ms = 0.5 * (ref_before + ref_after);
    ref_before = ref_after;
    job.warmup = warmup;
    if (!warmup) ++(traced ? n_traced : n_untraced);
    // Every job of one seed must pick the same finalists and winner.
    if (job.failure.empty()) {
      for (const JobResult& prev : jobs)
        if (prev.failure.empty() && prev.signature != job.signature) {
          job.failure = "finalists differ from job 0 of this seed";
          break;
        }
    }
    std::printf("job %zu%s: wall %.4f s, setup %.4f s, %.1f cand/s, cpu "
                "%.4f s, host ref %.4f ms, winner reward %.6f %s%s\n",
                jobs.size(),
                warmup ? " [warm-up]" : traced ? " [traced]" : "", job.wall_s,
                job.setup_s, job.cand_per_s, job.cpu_s, job.host_ref_ms,
                job.winner_reward,
                job.failure.empty() ? "ok" : "FAILED: ",
                job.failure.c_str());
    std::fflush(stdout);
    jobs.push_back(std::move(job));
  }

  std::size_t failed = 0;
  std::vector<double> traced_wall;
  std::map<std::string, std::vector<double>> values;
  for (const JobResult& j : jobs) {
    if (!j.failure.empty()) {
      ++failed;
      continue;
    }
    if (j.warmup) continue;
    // End-to-end times are scaled to the reference host speed: a job timed
    // while the reference pass ran 10% slow has its times scaled by
    // 1.1^-1.3 = 0.88.
    const double scale =
        std::pow(kReferenceMs / j.host_ref_ms, kReferenceExponent);
    values["bench.host_ref_ms"].push_back(j.host_ref_ms);
    if (j.traced) {
      traced_wall.push_back(j.wall_s * scale);
      for (const auto& [name, v] : j.layer) values[name].push_back(v);
    } else {
      values["wall_s"].push_back(j.wall_s * scale);
      values["setup_s"].push_back(j.setup_s * scale);
      values["search_cand_per_s"].push_back(j.cand_per_s / scale);
      values["cpu_s"].push_back(j.cpu_s * scale);
    }
  }
  if (!jobs.empty() && !jobs.front().winner.empty())
    std::printf("winner: %s\n", jobs.front().winner.c_str());

  std::map<std::string, double> report;
  if (args.trace) {
    for (const JobResult& j : jobs)
      if (j.traced && j.failure.empty()) {
        std::printf("span self times, traced job %zu:\n",
                    static_cast<std::size_t>(&j - jobs.data()));
        print_span_table(j);
        break;
      }
    for (const auto& [name, unit] : kPerLayer) {
      (void)unit;
      report[name] = median(values[name]);
    }
    report["bench.trace_overhead_pct"] =
        values["wall_s"].empty() || traced_wall.empty()
            ? 0.0
            : 100.0 * (median(traced_wall) / median(values["wall_s"]) - 1.0);
  } else {
    for (const char* name :
         {"wall_s", "setup_s", "search_cand_per_s", "cpu_s"})
      report[name] = median(values[name]);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    report["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  if (!args.trace_file.empty()) write_trace(args.trace_file, jobs);

  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << jobs.size() << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name, const char* unit) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << number(report[name]) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) emit(name, unit);
  } else {
    for (const auto& [name, unit] : kEndToEnd) emit(name, unit);
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
