#pragma once
// Calibrated analytic accuracy surrogate.
//
// The paper evaluates candidate accuracy with a HyperNet trained on
// CIFAR-10 for 300 epochs on a P100; final candidates are fully trained for
// 70 epochs.  Neither is feasible at one-CPU-core scale for the tens of
// thousands of evaluations the search benches make, so alongside the real
// trainable HyperNet (src/nn) this module provides a deterministic analytic
// model of (architecture -> CIFAR-10-scale test error), calibrated so that
//   * errors land in the paper's 2.8..3.7 % band for the Table-2 nets,
//   * more capacity (MACs/params) lowers error with saturation,
//   * op mix matters (dense convs > depthwise > pooling), as does cell
//     depth and width,
//   * a hash-seeded per-genotype residual models run-to-run variance.
//
// Two outputs mirror the paper's two measurement modes: test_error() is the
// "fully trained" accuracy; hypernet_error() is the one-shot inherited-
// weight proxy — a noisier, correlated view of the same quantity (Fig 5(b)).

#include <cstdint>

#include "arch/genotype.h"
#include "arch/network.h"

namespace yoso {

/// Architecture descriptors the surrogate (and tests) reason about.
struct ArchFeatures {
  // Fractions over the 20 op slots of the two cells.
  double conv_frac = 0.0;
  double dw_frac = 0.0;
  double pool_frac = 0.0;
  double k5_frac = 0.0;
  // Longest input->output path length (edges) per cell.
  double depth_normal = 0.0;
  double depth_reduction = 0.0;
  // Loose-end (output-width) counts per cell.
  double loose_normal = 0.0;
  double loose_reduction = 0.0;
  // log10 of whole-network cost at the given skeleton.
  double log10_macs = 0.0;
  double log10_params = 0.0;

  static ArchFeatures compute(const Genotype& g,
                              const NetworkSkeleton& skeleton);
};

/// Longest path (in edges) from a cell input to any loose-end node.
int cell_depth(const CellGenotype& cell);

struct AccuracyModelParams {
  double base_error = 3.17;        ///< % at the calibration point
  double capacity_weight = 0.85;   ///< per decade of MACs (saturating)
  double undersize_weight = 3.0;   ///< sharp penalty below the capacity knee
  double undersize_knee = 8.0;     ///< log10(MACs) below which CIFAR underfits
  double conv_weight = 1.15;       ///< dense-conv fraction benefit
  double dw_weight = 0.45;         ///< depthwise fraction benefit
  double k5_weight = 0.10;         ///< small 5x5 receptive-field benefit
  double pool_penalty = 1.6;       ///< pooling beyond the useful fraction
  double pool_useful_frac = 0.15;  ///< some pooling helps; more hurts
  double depth_weight = 0.22;      ///< deeper cells help (saturating)
  double depth_sat = 4.0;
  double width_weight = 0.08;      ///< wider cell outputs help slightly
  double error_floor = 2.45;       ///< best achievable in this space
  double error_ceil = 9.0;
  double noise_sigma = 0.05;       ///< full-training run-to-run residual, %
  // One-shot (inherited-weight) scores are far harsher than full training:
  // real supernet evaluations of weak paths collapse toward chance, so the
  // proxy error axis is stretched roughly tenfold (one-shot accuracies span
  // ~55..90 % while fully-trained accuracies span ~94..97.5 %).
  double hypernet_noise_sigma = 2.0;   ///< one-shot eval extra noise, %
  double hypernet_offset = 0.5;    ///< inherited weights underperform, %
  double hypernet_scale = 10.0;    ///< one-shot errors spread much wider
};

class AccuracyModel {
 public:
  explicit AccuracyModel(NetworkSkeleton skeleton = default_skeleton(),
                         AccuracyModelParams params = {},
                         std::uint64_t seed = 2020);

  const NetworkSkeleton& skeleton() const { return skeleton_; }
  const AccuracyModelParams& params() const { return params_; }
  /// Residual-stream seed; with skeleton() and params() this fully
  /// determines the model, which is how core/artifact.h persists it.
  std::uint64_t seed() const { return seed_; }

  /// Fully-trained test error, percent (e.g. 3.05 means 96.95 % accuracy).
  double test_error(const Genotype& g) const;
  /// Same from pre-computed descriptors, as for hypernet_error below.
  double test_error(const Genotype& g, const ArchFeatures& f) const;

  /// One-shot (HyperNet inherited-weight) validation error, percent.
  /// Correlated with test_error but noisier and offset, as in Fig 5(b).
  double hypernet_error(const Genotype& g) const;

  /// Same score from pre-computed descriptors of `g` — callers that
  /// already hold them (the batched evaluator shares one ArchFeatures
  /// between the accuracy proxy and the GP feature row) skip recomputing
  /// them here.  With f = ArchFeatures::compute(g, skeleton()) the value is
  /// bit-identical to hypernet_error(g); descriptors on another skeleton
  /// score `g` on that skeleton (the searched-skeleton path).
  double hypernet_error(const Genotype& g, const ArchFeatures& f) const;

  /// Convenience: validation accuracy in [0,1] from hypernet_error.
  double hypernet_accuracy(const Genotype& g) const;
  double hypernet_accuracy(const Genotype& g, const ArchFeatures& f) const;

 private:
  double clean_error_from(const ArchFeatures& f) const;
  double residual(const Genotype& g, std::uint64_t salt, double sigma) const;

  NetworkSkeleton skeleton_;
  AccuracyModelParams params_;
  std::uint64_t seed_;
};

}  // namespace yoso
