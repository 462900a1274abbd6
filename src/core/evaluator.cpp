#include "core/evaluator.h"

#include <algorithm>
#include <string_view>

#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "core/reward.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "surrogate/accuracy_model.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yoso {
namespace {

// Memoization stops growing past this many distinct designs (~100 MB worst
// case); further misses are still computed, just not retained.
constexpr std::size_t kMaxCacheEntries = 1u << 20;

// Misses stream through the worker/coordinator pipeline in chunks of this
// fixed size.  Fixed — never derived from the thread count or batch size —
// so the work decomposition (and therefore everything about the results)
// is identical at any parallelism.
constexpr std::size_t kPipelineChunk = 32;

}  // namespace

std::vector<EvalResult> Evaluator::evaluate_batch(
    std::span<const CandidateDesign> batch) {
  std::vector<EvalResult> results;
  results.reserve(batch.size());
  for (const CandidateDesign& c : batch) results.push_back(evaluate(c));
  return results;
}

FastEvaluator::FastEvaluator(const DesignSpace& space,
                             const NetworkSkeleton& skeleton,
                             const SystolicSimulator& simulator,
                             FastEvaluatorOptions options)
    : accuracy_(skeleton),
      predictor_(skeleton, options.predictor_backend,
                 options.inducing_points),
      exec_(options.exec != nullptr ? std::move(options.exec)
                                    : ExecContext::serial()) {
  YOSO_REQUIRE(options.predictor_samples > 0,
               "FastEvaluator: predictor_samples must be positive");
  Rng rng(options.seed);
  const auto samples = collect_samples(
      options.predictor_samples, simulator, space.config_space(), skeleton,
      rng, &pool(), space.skeleton_axis());
  predictor_.fit(samples);
}

FastEvaluator::FastEvaluator(const NetworkSkeleton& skeleton,
                             const std::vector<PerfSample>& samples,
                             GpBackend predictor_backend,
                             std::size_t inducing_points)
    : accuracy_(skeleton),
      predictor_(skeleton, predictor_backend, inducing_points),
      exec_(ExecContext::serial()) {
  predictor_.fit(samples);
}

FastEvaluator::FastEvaluator(AccuracyModel accuracy,
                             PerformancePredictor predictor,
                             ExecContextPtr exec)
    : accuracy_(std::move(accuracy)),
      predictor_(std::move(predictor)),
      exec_(exec != nullptr ? std::move(exec) : ExecContext::serial()) {
  YOSO_REQUIRE(predictor_.fitted(),
               "FastEvaluator: restored predictor is not fitted");
}

bool FastEvaluator::refine(const CandidateDesign& candidate,
                           const EvalResult& accurate) {
  if (!predictor_.refine(candidate.genotype, candidate.config,
                         accurate.latency_ms, accurate.energy_mj,
                         candidate.skeleton))
    return false;
  // Every memoized latency/energy prediction predates the refinement; a
  // stale hit would silently diverge from what evaluate() now computes, so
  // the whole cache goes.  Refinements are infrequent (every --refine-every
  // iterations) and misses repopulate it, so the cost is a short warm-up.
  clear_cache();
  obs::counter_add("eval.refinements", 1);
  return true;
}

void FastEvaluator::set_exec_context(ExecContextPtr exec) {
  exec_ = exec != nullptr ? std::move(exec) : ExecContext::serial();
}

EvalResult FastEvaluator::evaluate(const CandidateDesign& candidate) {
  const Genotype& g = candidate.genotype;
  EvalResult r;
  r.accuracy = accuracy_.hypernet_accuracy(
      g, ArchFeatures::compute(
             g, resolve_skeleton(candidate.skeleton, accuracy_.skeleton())));
  r.latency_ms = std::max(
      1e-3, predictor_.predict_latency_ms(g, candidate.config,
                                          candidate.skeleton));
  r.energy_mj = std::max(
      1e-3,
      predictor_.predict_energy_mj(g, candidate.config, candidate.skeleton));
  return r;
}

std::vector<EvalResult> FastEvaluator::evaluate_batch(
    std::span<const CandidateDesign> batch) {
  // The calling thread *is* the coordinator; the guard makes that visible
  // to -Wthread-safety so the cache_ access below is proven legal — and
  // stays illegal inside worker lambdas, which hold no capabilities.
  ThreadRoleGuard coordinator(coordinator_);
  YOSO_TRACE_SPAN("eval.fast_batch");

  const std::size_t n = batch.size();
  std::vector<EvalResult> results(n);
  if (n == 0) return results;

  // Stage 0 (parallel, read-only): candidate keys + memo probes.  Workers
  // consult `snap`, a const view of the cache bound here while the
  // coordinator role is held: probes strictly precede this batch's inserts
  // and unordered_map nodes are pointer-stable, so concurrent find() is
  // race-free — while the coordinator-only *write* discipline stays
  // machine-checked (naming cache_ in a worker lambda still fails
  // -Wthread-safety; see the tsa.negative fixture).
  std::vector<std::string> keys(n);
  std::vector<const EvalResult*> hit(n, nullptr);
  {
    YOSO_TRACE_SPAN("eval.probe");
    const auto& snap = cache_;
    pool().parallel_for(0, n, [&](std::size_t i) {
      keys[i] = candidate_key(batch[i]);
      const auto it = snap.find(keys[i]);
      if (it != snap.end()) hit[i] = &it->second;
    });
  }

  // Misses: first occurrence of every key not already cached, in batch
  // order.  Only these hit the pipeline; duplicates are computed once.
  std::vector<std::size_t> miss;
  miss.reserve(n);
  std::unordered_map<std::string_view, std::size_t> miss_slot;
  for (std::size_t i = 0; i < n; ++i) {
    if (hit[i] != nullptr) continue;
    if (miss_slot.emplace(keys[i], miss.size()).second) miss.push_back(i);
  }

  // Stages 1+2 (pipelined, double-buffered): pool workers compute the
  // HyperNet accuracy proxy + GP feature row for miss chunk k+1 while the
  // coordinator runs the fused latency/energy GP predict for chunk k (its
  // row fan-out rides the same pool, queued behind the feature job, so
  // idle workers help with whichever stage has indices left).  Per-element
  // results are bit-identical to evaluate(): each candidate's chain is
  // self-contained and the chunking is fixed.
  std::vector<EvalResult> computed(miss.size());
  if (!miss.empty()) {
    YOSO_TRACE_SPAN("eval.pipeline");
    const std::size_t m = miss.size();
    constexpr std::size_t dim = kCodesignFeatureDim;
    const std::size_t rows = std::min(kPipelineChunk, m);
    std::vector<double> feats[2] = {std::vector<double>(rows * dim),
                                    std::vector<double>(rows * dim)};
    std::vector<double> acc[2] = {std::vector<double>(rows),
                                  std::vector<double>(rows)};
    std::vector<double> lat(rows);
    std::vector<double> en(rows);

    const auto stage_features = [&](std::size_t lo, std::size_t cnt,
                                    std::size_t buf) {
      // The accuracy proxy and the feature row share one ArchFeatures per
      // candidate (both models are built on the same skeleton), halving
      // the layer-extraction work the old split-phase path paid.
      return pool().submit(0, cnt, [&, lo, buf](std::size_t j) {
        const CandidateDesign& cand = batch[miss[lo + j]];
        const ArchFeatures af = ArchFeatures::compute(
            cand.genotype,
            resolve_skeleton(cand.skeleton, predictor_.skeleton()));
        acc[buf][j] = accuracy_.hypernet_accuracy(cand.genotype, af);
        codesign_features_into(af, cand.config, feats[buf].data() + j * dim);
      });
    };

    std::size_t lo = 0;
    std::size_t cnt = std::min(kPipelineChunk, m);
    std::size_t cur = 0;
    std::size_t chunks = 0;
    ThreadPool::JobTicket inflight = stage_features(lo, cnt, cur);
    while (cnt > 0) {
      inflight.wait();  // chunk k's accuracy + features are ready
      const std::size_t next_lo = lo + cnt;
      const std::size_t next_cnt = std::min(kPipelineChunk, m - next_lo);
      if (next_cnt > 0)
        inflight = stage_features(next_lo, next_cnt, 1 - cur);
      predictor_.predict_latency_energy_batch(feats[cur].data(), cnt,
                                              &pool(), lat.data(), en.data());
      for (std::size_t j = 0; j < cnt; ++j) {
        computed[lo + j].accuracy = acc[cur][j];
        computed[lo + j].latency_ms = std::max(1e-3, lat[j]);
        computed[lo + j].energy_mj = std::max(1e-3, en[j]);
      }
      ++chunks;
      lo = next_lo;
      cnt = next_cnt;
      cur = 1 - cur;
    }
    obs::counter_add("eval.pipeline_chunks", chunks);
  }
  obs::counter_add("eval.cache_misses", miss.size());
  obs::counter_add("eval.cache_hits", n - miss.size());

  // The insert log: merged on the coordinator in proposal (miss-list)
  // order, so the cache contents are independent of the thread count.
  for (std::size_t j = 0; j < miss.size(); ++j)
    if (cache_.size() < kMaxCacheEntries)
      cache_.emplace(keys[miss[j]], computed[j]);

  // Hits resolve through the probe snapshot's stable pointers; misses (and
  // their in-batch duplicates) through the computed slots.
  for (std::size_t i = 0; i < n; ++i)
    results[i] =
        hit[i] != nullptr ? *hit[i] : computed[miss_slot.at(keys[i])];
  return results;
}

AccurateEvaluator::AccurateEvaluator(NetworkSkeleton skeleton,
                                     SystolicSimulator simulator,
                                     ExecContextPtr exec)
    : skeleton_(std::move(skeleton)),
      accuracy_(skeleton_),
      simulator_(simulator),
      exec_(exec != nullptr ? std::move(exec) : ExecContext::serial()) {}

void AccurateEvaluator::set_exec_context(ExecContextPtr exec) {
  exec_ = exec != nullptr ? std::move(exec) : ExecContext::serial();
}

EvalResult AccurateEvaluator::evaluate(const CandidateDesign& candidate) {
  const Genotype& g = candidate.genotype;
  const NetworkSkeleton& skeleton =
      resolve_skeleton(candidate.skeleton, skeleton_);
  EvalResult r;
  r.accuracy =
      1.0 - accuracy_.test_error(g, ArchFeatures::compute(g, skeleton)) /
                100.0;
  const SimulationResult sim =
      simulator_.simulate_network(g, skeleton, candidate.config);
  r.latency_ms = sim.latency_ms;
  r.energy_mj = sim.energy_mj;
  return r;
}

std::vector<EvalResult> AccurateEvaluator::evaluate_batch(
    std::span<const CandidateDesign> batch) {
  YOSO_TRACE_SPAN("eval.accurate_batch");
  obs::counter_add("eval.accurate_evals", batch.size());
  std::vector<EvalResult> results(batch.size());
  pool().parallel_for(0, batch.size(), [&](std::size_t i) {
    results[i] = evaluate(batch[i]);
  });
  return results;
}

}  // namespace yoso
