// Ablation — is searching the dataflow worth it?  Table 1 makes the
// dataflow one of the four hardware actions; every Table-2 best config the
// paper reports ends up output-stationary.  For each reference network we
// freeze the dataflow, enumerate the remaining configuration axes, and
// report the best reachable energy/latency — quantifying the cost of
// committing to the wrong dataflow up front.

#include <iostream>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "bench_common.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/two_stage.h"

int main() {
  using namespace yoso;
  Stopwatch sw;
  bench_banner("Ablation", "dataflow fixed vs searched (two-stage view)");

  const NetworkSkeleton skeleton = default_skeleton();
  AccurateEvaluator evaluator(skeleton,
                              SystolicSimulator({}, SimFidelity::kAnalytical));
  const RewardParams reward = balanced_reward();
  const ConfigSpace cs = default_config_space();

  TextTable table({"model", "dataflow", "best E (mJ)", "best L (ms)",
                   "best reward", "chosen config"});
  for (const auto& model : reference_models()) {
    std::string winner;
    double winner_reward = -1e300;
    for (int d = 0; d < kNumDataflows; ++d) {
      const auto df = static_cast<Dataflow>(d);
      double best_reward = -1e300;
      EvalResult best{};
      AcceleratorConfig best_cfg{};
      for (const AcceleratorConfig& config : cs.enumerate()) {
        if (config.dataflow != df) continue;
        const EvalResult r =
            evaluator.evaluate(CandidateDesign{model.genotype, config, {}});
        const double score = reward.compute(r);
        if (score > best_reward) {
          best_reward = score;
          best = r;
          best_cfg = config;
        }
      }
      if (best_reward > winner_reward) {
        winner_reward = best_reward;
        winner = dataflow_name(df);
      }
      table.add_row({model.name, dataflow_name(df),
                     TextTable::fmt(best.energy_mj, 2),
                     TextTable::fmt(best.latency_ms, 2),
                     TextTable::fmt(best_reward, 3), best_cfg.to_string()});
    }
    table.add_row({model.name + " ->", "searched: " + winner,
                   "", "", TextTable::fmt(winner_reward, 3), ""});
  }
  table.print(std::cout);
  std::cout << "\nexpectation: OS/WS dominate RS/NLR on this template — the "
               "paper's Table-2 best configs are all OS; fixing the wrong "
               "dataflow costs large factors in latency and energy.\n";
  bench_footer(sw);
  return 0;
}
