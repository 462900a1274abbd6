#pragma once
// Design-report generation: renders everything an engineer needs to review
// a winning co-design into one markdown document — the candidate (network +
// configuration), accurate metrics against the thresholds, the simulator's
// energy breakdown, the area estimate, the concrete layer table and a
// summary of the search that produced it.

#include <string>

#include "arch/network.h"
#include "core/reward.h"
#include "core/search.h"

namespace yoso {

struct ReportOptions {
  bool include_layer_table = true;  ///< per-layer shapes/MACs (long)
  bool include_genotype = true;     ///< serialized genotype string
  int max_layers = 100;             ///< truncate very deep layer tables
};

/// Renders a markdown report for the best candidate of a search result.
/// `skeleton` must be the skeleton the search evaluated against; a winner
/// from a searched-skeleton space is reported on its own skeleton.
/// Throws std::invalid_argument when the result has no best candidate.
std::string render_design_report(const SearchResult& result,
                                 const NetworkSkeleton& skeleton,
                                 const RewardParams& reward,
                                 const ReportOptions& options = {});

}  // namespace yoso
