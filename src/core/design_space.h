#pragma once
// The joint "2-dimensional" co-design space (paper §III.A): a candidate is
// lambda = (d_1..d_S, c_1..c_L) with S = 40 DNN hyper-parameters and L = 4
// accelerator parameters, 44 actions total.  This module concatenates the
// DNN action space (src/arch) and the hardware action space (src/accel)
// into one sequence for the RL controller.
//
// Table 1 also lists the skeleton <N_Cells, R_cells> among the co-design
// variables, which the paper's experiments fix.  A space built with
// SkeletonAxis::kSearched appends two skeleton actions (normal cells per
// stage, stem width; arch/network.h), 46 actions total; its candidates carry
// their own SkeletonChoice, which every evaluator resolves.

#include <string>
#include <vector>

#include "accel/config.h"
#include "arch/encoding.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "util/rng.h"

namespace yoso {

/// A fully specified co-design candidate.
struct CandidateDesign {
  Genotype genotype;
  AcceleratorConfig config;
  /// Set only in a searched-skeleton space; unset means the candidate is
  /// scored on the evaluator's own skeleton.
  SkeletonChoice skeleton;

  bool operator==(const CandidateDesign&) const = default;
};

/// Compact byte string that uniquely identifies a candidate (a fixed-width
/// packing of its encoded actions).  Used as the hash key for evaluation
/// memoization and finalist dedupe; two candidates compare equal iff their
/// keys are equal.
std::string candidate_key(const CandidateDesign& candidate);

class DesignSpace {
 public:
  explicit DesignSpace(ConfigSpace config_space = default_config_space(),
                       SkeletonAxis skeleton_axis = SkeletonAxis::kFixed);

  const ConfigSpace& config_space() const { return config_space_; }
  SkeletonAxis skeleton_axis() const { return skeleton_axis_; }

  /// Number of actions (44 for the paper's space, 46 with the skeleton).
  int num_actions() const;

  /// Per-step action cardinalities, DNN first, then hardware, then (when
  /// searched) the two skeleton actions.
  std::vector<int> cardinalities() const;

  /// Human-readable names of each action step.
  std::vector<std::string> action_names() const;

  /// Actions -> candidate; throws on malformed input.
  CandidateDesign decode(const std::vector<int>& actions) const;

  /// Candidate -> actions; throws when the candidate's skeleton choice is
  /// set in a fixed space or unset in a searched one.
  std::vector<int> encode(const CandidateDesign& candidate) const;

  /// Uniform random candidate.
  CandidateDesign random_candidate(Rng& rng) const;

  /// log10 of the joint space size (the paper quotes ~10^15 including
  /// hardware choices).
  double log10_size() const;

 private:
  ConfigSpace config_space_;
  SkeletonAxis skeleton_axis_;
  std::vector<ActionStep> dnn_steps_;
};

}  // namespace yoso
