#pragma once
// From genotype to concrete network: skeleton description (which cells are
// stacked, stem width, input shape) and extraction of the concrete layer
// list that the accelerator simulator consumes.
//
// The paper's HyperNet uses 6 blocks: 4 normal cells and 2 reduction cells
// (§IV.B); we default to the DARTS-style arrangement N N R N N R.  Channel
// semantics follow the cell-search convention: every node inside a cell
// carries `filters` channels, the two cell inputs are mapped to `filters`
// channels by 1x1 preprocessing convolutions, the cell output concatenates
// the loose-end nodes, and the filter count doubles after each reduction
// cell while the spatial size halves.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/genotype.h"
#include "util/rng.h"

namespace yoso {

enum class CellKind { kNormal, kReduction };

/// Static description of the network scaffold the searched cells plug into.
struct NetworkSkeleton {
  std::vector<CellKind> cells;  ///< stacking order, e.g. {N,N,R,N,N,R}
  int stem_channels = 24;       ///< filters of the first normal cells
  int input_height = 32;
  int input_width = 32;
  int input_channels = 3;
  int num_classes = 10;
};

/// The paper's 6-block skeleton (4 normal + 2 reduction) at CIFAR scale.
NetworkSkeleton default_skeleton();

/// A reduced skeleton for CPU-scale real-training runs (tests/examples).
NetworkSkeleton tiny_skeleton(int input_hw = 12, int stem_channels = 8);

/// The searchable skeleton axis (Table 1's <N_Cells, R_cells> plus the stem
/// width): normal cells per stage, and filters of the first normal cells.
inline constexpr std::array<int, 3> kSearchedNormalsPerStage = {1, 2, 3};
inline constexpr std::array<int, 3> kSearchedStemChannels = {16, 24, 32};

/// Whether a design space fixes the skeleton (the paper's experiments) or
/// searches it along the axis above.
enum class SkeletonAxis { kFixed, kSearched };

/// A candidate's skeleton choice: indices into the two lists above.  The
/// default (unset) choice means "whatever skeleton the evaluator was built
/// on", which is how every fixed-skeleton search scores its candidates.
struct SkeletonChoice {
  static constexpr std::int8_t kUnset = -1;
  std::int8_t normals = kUnset;  ///< index into kSearchedNormalsPerStage
  std::int8_t stem = kUnset;     ///< index into kSearchedStemChannels

  bool is_set() const { return normals != kUnset || stem != kUnset; }
  bool operator==(const SkeletonChoice&) const = default;
};

/// The paper-style N^d R N^d R skeleton of a set choice, on
/// default_skeleton()'s input and classifier shape.  Returns a reference
/// into a table built once, so per-candidate resolution never allocates;
/// ContractViolation when an index is out of range.
const NetworkSkeleton& skeleton_for(SkeletonChoice choice);

/// A uniform draw over the axis: normals index, then stem index.
SkeletonChoice random_skeleton_choice(Rng& rng);

/// The skeleton a candidate is scored on: its own choice when set, else
/// `fallback` (the evaluator's skeleton).
inline const NetworkSkeleton& resolve_skeleton(
    SkeletonChoice choice, const NetworkSkeleton& fallback) {
  return choice.is_set() ? skeleton_for(choice) : fallback;
}

/// Concrete layer kinds the accelerator simulator understands.
enum class LayerKind { kConv, kDwConv, kPool, kFullyConnected };

/// One concrete layer with fully resolved shape.  `same` padding is assumed
/// for convolutions and pools, so out_h = ceil(in_h / stride).
struct Layer {
  LayerKind kind = LayerKind::kConv;
  int in_h = 0;
  int in_w = 0;
  int in_c = 0;
  int out_c = 0;
  int kernel = 1;
  int stride = 1;
  bool is_max_pool = false;  ///< only meaningful for kPool
  std::string name;          ///< provenance, e.g. "cell3.node4.a"

  int out_h() const { return (in_h + stride - 1) / stride; }
  int out_w() const { return (in_w + stride - 1) / stride; }

  /// Multiply-accumulate count (0 for pools; pools still move data).
  std::int64_t macs() const;
  /// Trainable parameter count (weights only; no biases for conv, bias for FC).
  std::int64_t params() const;
  /// Elements read from the input feature map (with kernel reuse).
  std::int64_t input_accesses() const;
  /// Elements written to the output feature map.
  std::int64_t output_elements() const;
};

/// Aggregate statistics of an extracted network.
struct NetworkStats {
  std::int64_t total_macs = 0;
  std::int64_t total_params = 0;
  std::size_t num_layers = 0;
  std::size_t num_weight_layers = 0;
};

/// Expands (genotype, skeleton) into the full concrete layer list:
/// stem conv, per-cell preprocessing 1x1s, per-node op layers, classifier.
std::vector<Layer> extract_layers(const Genotype& g,
                                  const NetworkSkeleton& skeleton);

NetworkStats network_stats(const std::vector<Layer>& layers);

}  // namespace yoso
