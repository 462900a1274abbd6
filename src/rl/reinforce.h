#pragma once
// REINFORCE training loop around the LSTM controller (paper Eq. 3-4):
// the controller proposes an action sequence, the caller scores it with the
// multi-objective reward, and feedback() accumulates the policy gradient
// with a moving-average baseline (variance reduction that "significantly
// expedites the search") and an entropy bonus.
//
// The round is the update unit: feedback() only records the episode's
// advantage at the parameters that sampled it, and the next proposal
// backprops and applies everything pending as one clipped Adam step.  A
// caller that proposes k episodes with propose_round(k) and then feeds all
// k back (YosoSearch at batch k) gets the true policy gradient of its
// round, with the k episodes sampled and backpropagated in lockstep;
// propose() is the k = 1 round, so k propose() calls give the same
// episodes and the same update.  Alternating propose and feedback updates
// after every episode.

#include <cstddef>
#include <vector>

#include "rl/controller.h"
#include "util/rng.h"
#include "util/stats.h"

namespace yoso {

struct ReinforceOptions {
  double lr = 0.0035;            ///< Adam learning rate (paper §IV.C)
  double baseline_decay = 0.95;  ///< moving-average baseline decay
  double entropy_weight = 1e-4;  ///< paper: entropy weighted by 0.0001
  double max_grad_norm = 5.0;
  bool use_baseline = true;      ///< off for the ablation bench
};

class ReinforceTrainer {
 public:
  ReinforceTrainer(LstmController& controller, ReinforceOptions options)
      : controller_(controller),
        options_(options),
        baseline_(options.baseline_decay) {}

  /// Applies the pending round's Adam step, if any feedback arrived since
  /// the last one, then samples k candidate action sequences in lockstep
  /// into `episodes` (LstmController::sample_round).
  void propose_round(std::size_t k, Rng& rng, std::vector<Episode>& episodes);

  /// The k = 1 round.
  Episode propose(Rng& rng);

  /// Feeds back the reward for an episode of the current round: accumulates
  /// its gradient (ContractViolation for an episode proposed before the
  /// last update).
  void feedback(const Episode& episode, double reward);

  double baseline_value() const {
    return baseline_.empty() ? 0.0 : baseline_.value();
  }
  std::size_t episodes_seen() const { return episodes_; }

 private:
  LstmController& controller_;
  ReinforceOptions options_;
  MovingAverage baseline_;
  std::size_t episodes_ = 0;
  int pending_ = 0;
};

/// Uniform-random baseline searcher over the same action space.
class RandomSearcher {
 public:
  explicit RandomSearcher(std::vector<int> cardinalities)
      : cardinalities_(std::move(cardinalities)) {}

  std::vector<int> propose(Rng& rng) const;

 private:
  std::vector<int> cardinalities_;
};

}  // namespace yoso
