#include "rl/reinforce.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "rl/controller.h"
#include "util/rng.h"

namespace yoso {

void ReinforceTrainer::propose_round(std::size_t k, Rng& rng,
                                     std::vector<Episode>& episodes) {
  if (pending_ > 0) {
    controller_.update(options_.lr, options_.max_grad_norm);
    pending_ = 0;
    obs::counter_add("rl.updates");
  }
  controller_.sample_round(k, rng, episodes);
}

Episode ReinforceTrainer::propose(Rng& rng) {
  std::vector<Episode> one;
  propose_round(1, rng, one);
  return std::move(one.front());
}

void ReinforceTrainer::feedback(const Episode& episode, double reward) {
  const double b =
      options_.use_baseline && !baseline_.empty() ? baseline_.value() : 0.0;
  const double advantage = reward - b;
  controller_.accumulate_gradient(episode, advantage,
                                  options_.entropy_weight);
  baseline_.add(reward);
  ++episodes_;
  ++pending_;
  obs::counter_add("rl.episodes");
}

std::vector<int> RandomSearcher::propose(Rng& rng) const {
  std::vector<int> actions(cardinalities_.size());
  for (std::size_t i = 0; i < cardinalities_.size(); ++i)
    actions[i] = rng.uniform_int(0, cardinalities_[i] - 1);
  return actions;
}

}  // namespace yoso
