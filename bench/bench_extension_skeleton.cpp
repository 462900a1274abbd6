// Extension — searching the skeleton too.
//
// Table 1 lists <N_Cells, R_cells> among the co-design variables; the
// paper's experiments fix the skeleton to 6 blocks and a fixed stem width.
// This bench compares the fixed-skeleton 44-action search against the
// 46-action searched-skeleton space (network depth and stem width become
// actions), both run by the same YosoSearch, under a *tight* energy budget,
// where shrinking the skeleton is the only way to stay feasible without
// giving up the whole accuracy budget.

#include <iostream>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"

int main() {
  using namespace yoso;
  Stopwatch sw;
  bench_banner("Extension", "fixed skeleton (44 actions) vs searched "
                            "skeleton (46 actions)");

  RewardParams reward = energy_opt_reward();
  reward.t_eer_mj = 4.0;  // tight: the fixed 6-cell skeleton barely fits
  std::cout << "tight energy budget: " << reward.t_eer_mj << " mJ (paper "
            << "default is 9 mJ)\n\n";

  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  SearchOptions opt;
  opt.iterations = scaled(1500, 250);
  opt.reward = reward;
  opt.seed = 44;

  // Fixed-skeleton baseline.
  DesignSpace fixed_space;
  const NetworkSkeleton skeleton = default_skeleton();
  FastEvaluator fixed_fast(fixed_space, skeleton, simulator,
                           {.predictor_samples = scaled(500, 150), .seed = 1});
  AccurateEvaluator fixed_accurate(skeleton);
  const SearchResult fixed =
      YosoSearch(fixed_space, opt).run(fixed_fast, &fixed_accurate);

  // Searched skeleton: the same driver and evaluators over 46 actions.
  DesignSpace ext_space(default_config_space(), SkeletonAxis::kSearched);
  FastEvaluator ext_fast(ext_space, skeleton, simulator,
                         {.predictor_samples = scaled(500, 150), .seed = 2});
  AccurateEvaluator ext_accurate(skeleton);
  const SearchResult ext =
      YosoSearch(ext_space, opt).run(ext_fast, &ext_accurate);

  TextTable table({"space", "err %", "E (mJ)", "L (ms)", "cells", "stem",
                   "feasible", "config"});
  {
    const RankedCandidate& b = fixed.best.value();
    table.add_row({"fixed skeleton",
                   TextTable::fmt((1.0 - b.accurate_result.accuracy) * 100.0,
                                  2),
                   TextTable::fmt(b.accurate_result.energy_mj, 2),
                   TextTable::fmt(b.accurate_result.latency_ms, 2),
                   TextTable::fmt_int(static_cast<long long>(
                       skeleton.cells.size())),
                   TextTable::fmt_int(skeleton.stem_channels),
                   b.feasible ? "yes" : "no",
                   b.candidate.config.to_string()});
  }
  {
    const RankedCandidate& b = ext.best.value();
    const NetworkSkeleton& searched = skeleton_for(b.candidate.skeleton);
    table.add_row({"searched skeleton",
                   TextTable::fmt((1.0 - b.accurate_result.accuracy) * 100.0,
                                  2),
                   TextTable::fmt(b.accurate_result.energy_mj, 2),
                   TextTable::fmt(b.accurate_result.latency_ms, 2),
                   TextTable::fmt_int(static_cast<long long>(
                       searched.cells.size())),
                   TextTable::fmt_int(searched.stem_channels),
                   b.feasible ? "yes" : "no",
                   b.candidate.config.to_string()});
  }
  table.print(std::cout);

  const double fixed_reward = fixed.best->accurate_reward;
  const double ext_reward = ext.best->accurate_reward;
  std::cout << "\naccurate composite reward: fixed "
            << TextTable::fmt(fixed_reward, 3) << " vs searched "
            << TextTable::fmt(ext_reward, 3) << "\n"
            << "shape check: "
            << (ext_reward >= fixed_reward - 0.02
                    ? "widening the space to Table 1's skeleton variables "
                      "does not hurt, and under tight budgets helps"
                    : "fixed skeleton won at this scale (stochastic)")
            << "\n";
  bench_footer(sw);
  return 0;
}
