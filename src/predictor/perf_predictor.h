#pragma once
// Search-time hardware performance prediction (paper §III.E): sample
// (DNN, accelerator-config) pairs, simulate them once, fit one GP for energy
// and one for latency, then answer queries ~10^3x faster than simulation.

#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "linalg/matrix.h"
#include "predictor/gp.h"
#include "util/rng.h"

namespace yoso {

struct ArchFeatures;  // surrogate/accuracy_model.h

/// Feature vector for the regression models: architecture descriptors +
/// hardware configuration descriptors + a couple of interaction terms.
std::vector<double> codesign_features(const Genotype& g,
                                      const AcceleratorConfig& config,
                                      const NetworkSkeleton& skeleton);

/// Width of a co-design feature row (10 arch + 5 hw + dataflow one-hot +
/// 2 interaction terms).
inline constexpr std::size_t kCodesignFeatureDim =
    17 + static_cast<std::size_t>(kNumDataflows);

/// Allocation-free variant for batched hot paths: writes the same row into
/// `out` (>= kCodesignFeatureDim doubles) from pre-computed architecture
/// descriptors, so callers that also need `af` for the accuracy proxy
/// extract layers once per candidate instead of twice.  `af` must be
/// ArchFeatures::compute(g, skeleton) for the genotype this row describes.
void codesign_features_into(const ArchFeatures& af,
                            const AcceleratorConfig& config, double* out);

/// One simulated training sample.
struct PerfSample {
  Genotype genotype;
  AcceleratorConfig config;
  SkeletonChoice skeleton;  ///< set only when the skeleton axis is searched
  std::vector<double> features;
  double energy_mj = 0.0;
  double latency_ms = 0.0;
};

/// Draws `count` uniform random (genotype, config) pairs and simulates them
/// on `skeleton`.  With a searched skeleton axis each sample also draws its
/// own SkeletonChoice (after its config actions) and is simulated on that.
/// The draws always consume `rng` on the calling thread in sample order;
/// only the (read-only) simulation fans out across `pool` (null = inline),
/// so the returned set is identical at any thread count.
std::vector<PerfSample> collect_samples(
    std::size_t count, const SystolicSimulator& simulator,
    const ConfigSpace& space, const NetworkSkeleton& skeleton, Rng& rng,
    ThreadPool* pool = nullptr, SkeletonAxis axis = SkeletonAxis::kFixed);

/// Splits samples into feature matrix + target vectors.
struct SampleMatrix {
  Matrix x;
  std::vector<double> energy;
  std::vector<double> latency;
};
SampleMatrix to_matrix(const std::vector<PerfSample>& samples);

/// The fitted state of a PerformancePredictor: the lockstep latency/energy
/// GP pair plus the skeleton they were fitted for.  This is what the binary
/// artifact format (core/artifact.h) persists so Step-1 products become
/// load-once files shared across search runs.
struct PerfPredictorState {
  NetworkSkeleton skeleton;
  GpRegressorState latency;
  GpRegressorState energy;
  std::size_t refinements = 0;
};

/// The GP pair used inside the search loop.  `backend` selects the GP
/// factorisation: kExact is the paper's O(n^3) fit; kSparse caps both
/// models at `inducing_points` inducing rows (O(n m^2) fit) and unlocks
/// refine() — O(m^2) online folding of accurate-simulator results into the
/// fitted pair during the search.
class PerformancePredictor {
 public:
  explicit PerformancePredictor(NetworkSkeleton skeleton,
                                GpBackend backend = GpBackend::kExact,
                                std::size_t inducing_points = 512)
      : skeleton_(std::move(skeleton)),
        energy_gp_({}, true, backend, inducing_points),
        latency_gp_({}, true, backend, inducing_points) {}

  /// Fits both GPs on simulated samples.
  void fit(const std::vector<PerfSample>& samples);

  /// Per-candidate predictions.  `skeleton` is the candidate's choice;
  /// unset means the skeleton this predictor was built for.
  double predict_energy_mj(const Genotype& g, const AcceleratorConfig& config,
                           SkeletonChoice skeleton = {}) const;
  double predict_latency_ms(const Genotype& g,
                            const AcceleratorConfig& config,
                            SkeletonChoice skeleton = {}) const;

  /// Fused batch prediction of both targets over `rows` contiguous raw
  /// feature rows (row-major, kCodesignFeatureDim wide, from
  /// codesign_features_into): because both GPs are fitted on the same
  /// inputs, standardization and the K* squared-distance panel are computed
  /// once and shared.  Outputs are bit-identical to the per-candidate
  /// predict_latency_ms / predict_energy_mj at any thread count.  `pool`
  /// must not be a pool this thread is already running a parallel_for on.
  void predict_latency_energy_batch(const double* features, std::size_t rows,
                                    ThreadPool* pool, double* latency_ms,
                                    double* energy_mj) const;

  /// Folds one accurate-simulator result into both fitted GPs in O(m^2)
  /// each (log-space targets, matching fit()).  Both models are updated in
  /// lockstep so the fused predict_latency_energy_batch contract — same
  /// training inputs — keeps holding.  Returns false (a no-op) when the
  /// backend has no incremental path (exact) or before fit().
  bool refine(const Genotype& g, const AcceleratorConfig& config,
              double latency_ms, double energy_mj,
              SkeletonChoice skeleton = {});

  /// True when refine() would apply: a fitted sparse-backend pair.
  bool supports_refinement() const {
    return latency_gp_.supports_update() && energy_gp_.supports_update();
  }

  /// Accurate results folded in since the last fit().
  std::size_t refinements() const { return refinements_; }

  bool fitted() const { return fitted_; }
  const NetworkSkeleton& skeleton() const { return skeleton_; }
  const GpRegressor& energy_model() const { return energy_gp_; }
  const GpRegressor& latency_model() const { return latency_gp_; }

  /// Deep-copies the fitted pair out for persistence (ContractViolation
  /// before fit()).
  PerfPredictorState export_state() const;

  /// Rebuilds a fitted predictor from exported (or artifact-loaded) state.
  /// Both GPs are restored through GpRegressor::from_state, so predictions
  /// — including the fused predict_latency_energy_batch and later refine()
  /// calls — are bit-identical to the original pair.  ContractViolation
  /// when the two models disagree on backend or feature width.
  static PerformancePredictor from_state(const PerfPredictorState& state);

 private:
  NetworkSkeleton skeleton_;
  GpRegressor energy_gp_;
  GpRegressor latency_gp_;
  bool fitted_ = false;
  std::size_t refinements_ = 0;
};

}  // namespace yoso
