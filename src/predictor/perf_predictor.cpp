#include "predictor/perf_predictor.h"

#include <cmath>
#include <stdexcept>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "linalg/matrix.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "surrogate/accuracy_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yoso {

void codesign_features_into(const ArchFeatures& af,
                            const AcceleratorConfig& config, double* out) {
  YOSO_REQUIRE(out != nullptr, "codesign_features_into: null output");
  // Architecture.
  *out++ = af.log10_macs;
  *out++ = af.log10_params;
  *out++ = af.conv_frac;
  *out++ = af.dw_frac;
  *out++ = af.pool_frac;
  *out++ = af.k5_frac;
  *out++ = af.depth_normal;
  *out++ = af.depth_reduction;
  *out++ = af.loose_normal;
  *out++ = af.loose_reduction;
  // Hardware.
  *out++ = std::log2(static_cast<double>(config.pe_rows));
  *out++ = std::log2(static_cast<double>(config.pe_cols));
  *out++ = std::log2(static_cast<double>(config.num_pes()));
  *out++ = std::log2(static_cast<double>(config.g_buf_kb));
  *out++ = std::log2(static_cast<double>(config.r_buf_bytes));
  for (int d = 0; d < kNumDataflows; ++d)
    *out++ = config.dataflow == static_cast<Dataflow>(d) ? 1.0 : 0.0;
  // Interactions: compute intensity and weight-to-buffer pressure.
  *out++ = af.log10_macs - std::log10(static_cast<double>(config.num_pes()));
  *out++ = af.log10_params -
           std::log10(static_cast<double>(config.g_buf_kb) * 1024.0 / 2.0);
}

std::vector<double> codesign_features(const Genotype& g,
                                      const AcceleratorConfig& config,
                                      const NetworkSkeleton& skeleton) {
  const ArchFeatures af = ArchFeatures::compute(g, skeleton);
  std::vector<double> f(kCodesignFeatureDim);
  codesign_features_into(af, config, f.data());
  return f;
}

std::vector<PerfSample> collect_samples(std::size_t count,
                                        const SystolicSimulator& simulator,
                                        const ConfigSpace& space,
                                        const NetworkSkeleton& skeleton,
                                        Rng& rng, ThreadPool* pool,
                                        SkeletonAxis axis) {
  YOSO_TRACE_SPAN("step1.collect_samples");
  obs::counter_add("step1.samples", count);
  // Serial phase: all RNG draws, in the same per-sample order as the old
  // fully-serial loop (genotype first, then the config actions, then the
  // skeleton choice when it is searched).
  std::vector<PerfSample> samples(count);
  std::vector<int> actions(ConfigSpace::kActionCount);  // overwritten per sample
  for (std::size_t i = 0; i < count; ++i) {
    PerfSample& s = samples[i];
    s.genotype = random_genotype(rng);
    for (int a = 0; a < ConfigSpace::kActionCount; ++a)
      actions[static_cast<std::size_t>(a)] =
          rng.uniform_int(0, space.cardinality(a) - 1);
    s.config = space.decode(actions);
    if (axis == SkeletonAxis::kSearched)
      s.skeleton = random_skeleton_choice(rng);
  }
  // Parallel phase: simulation dominates collection cost and is read-only.
  // The injected pool is shared with the rest of the framework
  // (util/exec_context.h); null runs inline.
  ThreadPool inline_pool(0);
  (pool != nullptr ? *pool : inline_pool)
      .parallel_for(0, count, [&](std::size_t i) {
        PerfSample& s = samples[i];
        const NetworkSkeleton& net = resolve_skeleton(s.skeleton, skeleton);
        const SimulationResult r =
            simulator.simulate_network(s.genotype, net, s.config);
        s.energy_mj = r.energy_mj;
        s.latency_ms = r.latency_ms;
        s.features = codesign_features(s.genotype, s.config, net);
      });
  return samples;
}

SampleMatrix to_matrix(const std::vector<PerfSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("to_matrix: no samples");
  SampleMatrix m;
  m.x = Matrix(samples.size(), samples.front().features.size());
  m.energy.reserve(samples.size());
  m.latency.reserve(samples.size());
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const auto& f = samples[r].features;
    if (f.size() != m.x.cols())
      throw std::invalid_argument("to_matrix: ragged features");
    for (std::size_t c = 0; c < f.size(); ++c) m.x(r, c) = f[c];
    m.energy.push_back(samples[r].energy_mj);
    m.latency.push_back(samples[r].latency_ms);
  }
  return m;
}

void PerformancePredictor::fit(const std::vector<PerfSample>& samples) {
  YOSO_TRACE_SPAN("step1.fit_gp");
  const SampleMatrix m = to_matrix(samples);
  // Both targets are positive with heavy upper tails (NLR configs are many
  // times slower than OS); the GPs regress log(y) and predictions
  // exponentiate back.
  std::vector<double> log_e(m.energy.size()), log_l(m.latency.size());
  for (std::size_t i = 0; i < m.energy.size(); ++i) {
    log_e[i] = std::log(std::max(m.energy[i], 1e-9));
    log_l[i] = std::log(std::max(m.latency[i], 1e-9));
  }
  energy_gp_.fit(m.x, log_e);
  latency_gp_.fit(m.x, log_l);
  fitted_ = true;
  refinements_ = 0;
}

bool PerformancePredictor::refine(const Genotype& g,
                                  const AcceleratorConfig& config,
                                  double latency_ms, double energy_mj,
                                  SkeletonChoice skeleton) {
  if (!supports_refinement()) return false;
  const std::vector<double> f =
      codesign_features(g, config, resolve_skeleton(skeleton, skeleton_));
  // Same log transform as fit(); updating both models with the same input
  // row keeps their training fingerprints in lockstep.
  latency_gp_.update(f, std::log(std::max(latency_ms, 1e-9)));
  energy_gp_.update(f, std::log(std::max(energy_mj, 1e-9)));
  ++refinements_;
  return true;
}

double PerformancePredictor::predict_energy_mj(
    const Genotype& g, const AcceleratorConfig& config,
    SkeletonChoice skeleton) const {
  if (!fitted_) throw std::logic_error("PerformancePredictor: not fitted");
  return std::exp(energy_gp_.predict(
      codesign_features(g, config, resolve_skeleton(skeleton, skeleton_))));
}

double PerformancePredictor::predict_latency_ms(
    const Genotype& g, const AcceleratorConfig& config,
    SkeletonChoice skeleton) const {
  if (!fitted_) throw std::logic_error("PerformancePredictor: not fitted");
  return std::exp(latency_gp_.predict(
      codesign_features(g, config, resolve_skeleton(skeleton, skeleton_))));
}

void PerformancePredictor::predict_latency_energy_batch(
    const double* features, std::size_t rows, ThreadPool* pool,
    double* latency_ms, double* energy_mj) const {
  YOSO_REQUIRE(rows == 0 || (features != nullptr && latency_ms != nullptr &&
                             energy_mj != nullptr),
               "predict_latency_energy_batch: null input/output");
  if (!fitted_) throw std::logic_error("PerformancePredictor: not fitted");
  // Both GPs were fitted on the same feature matrix (fit() above), which is
  // the precondition letting the pair call share one standardization and
  // one K* distance panel.
  GpRegressor::predict_means_pair(latency_gp_, energy_gp_, features, rows,
                                  latency_ms, energy_mj, pool);
  for (std::size_t r = 0; r < rows; ++r) {
    latency_ms[r] = std::exp(latency_ms[r]);
    energy_mj[r] = std::exp(energy_mj[r]);
  }
}

PerfPredictorState PerformancePredictor::export_state() const {
  YOSO_REQUIRE(fitted_, "PerformancePredictor::export_state: not fitted");
  PerfPredictorState s;
  s.skeleton = skeleton_;
  s.latency = latency_gp_.export_state();
  s.energy = energy_gp_.export_state();
  s.refinements = refinements_;
  return s;
}

PerformancePredictor PerformancePredictor::from_state(
    const PerfPredictorState& state) {
  YOSO_REQUIRE(state.latency.backend == state.energy.backend,
               "PerformancePredictor::from_state: latency/energy models "
               "disagree on backend");
  YOSO_REQUIRE(state.latency.train_x.cols() == state.energy.train_x.cols(),
               "PerformancePredictor::from_state: latency/energy models "
               "disagree on feature width (", state.latency.train_x.cols(),
               " vs ", state.energy.train_x.cols(), ")");
  PerformancePredictor p(state.skeleton, state.latency.backend,
                         state.latency.inducing_target);
  p.latency_gp_ = GpRegressor::from_state(state.latency);
  p.energy_gp_ = GpRegressor::from_state(state.energy);
  p.fitted_ = true;
  p.refinements_ = state.refinements;
  return p;
}

}  // namespace yoso
