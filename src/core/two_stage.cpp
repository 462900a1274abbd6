#include "core/two_stage.h"

#include <limits>

#include "accel/config.h"
#include "arch/zoo.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"

namespace yoso {

TwoStageRow two_stage_best_config(const ReferenceModel& model,
                                  const DesignSpace& space,
                                  AccurateEvaluator& evaluator,
                                  const RewardParams& reward) {
  TwoStageRow row;
  row.name = model.name;
  row.paper_test_error = model.paper_test_error;
  row.paper_search_gpu_days = model.paper_search_gpu_days;

  double best_reward = -std::numeric_limits<double>::infinity();
  double best_feasible_reward = -std::numeric_limits<double>::infinity();
  bool any_feasible = false;

  for (const AcceleratorConfig& config : space.config_space().enumerate()) {
    CandidateDesign candidate{model.genotype, config, {}};
    const EvalResult r = evaluator.evaluate(candidate);
    const double score = reward.compute(r);
    const bool ok = reward.feasible(r);
    ++row.configs_evaluated;
    // Prefer feasible configs; among them (or among all, if none is
    // feasible) pick the best composite score.
    const bool better = ok ? (!any_feasible || score > best_feasible_reward)
                           : (!any_feasible && score > best_reward);
    if (better) {
      row.design = candidate;
      row.result = r;
      row.reward = score;
      row.feasible = ok;
      if (ok) {
        any_feasible = true;
        best_feasible_reward = score;
      } else {
        best_reward = score;
      }
    }
  }
  return row;
}

std::vector<TwoStageRow> two_stage_baseline(const DesignSpace& space,
                                            AccurateEvaluator& evaluator,
                                            const RewardParams& reward) {
  std::vector<TwoStageRow> rows;
  for (const ReferenceModel& model : reference_models())
    rows.push_back(two_stage_best_config(model, space, evaluator, reward));
  return rows;
}

}  // namespace yoso
