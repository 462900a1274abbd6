#include "core/alt_search.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "arch/network.h"
#include "core/design_space.h"
#include "core/search.h"
#include "linalg/matrix.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "util/rng.h"

namespace yoso {

double expected_improvement(double mu, double variance, double best) {
  const double sigma = std::sqrt(std::max(variance, 1e-18));
  const double z = (mu - best) / sigma;
  const double phi =
      std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
  const double cdf = 0.5 * std::erfc(-z / std::numbers::sqrt2);
  return (mu - best) * cdf + sigma * phi;
}

// ------------------------------------------------------------ evolution

void EvolutionarySearch::search(SearchLoop& loop, Rng& rng) {
  const std::vector<int> cards = space_.cardinalities();

  struct Member {
    std::vector<int> actions;
    double reward = 0.0;
  };
  std::deque<Member> population;

  for (std::size_t it = 0; it < options_.iterations; ++it) {
    Member child;
    if (population.size() < evolution_.population) {
      // Warm-up: random individuals until the population is full.
      child.actions.resize(cards.size());
      for (std::size_t a = 0; a < cards.size(); ++a)
        child.actions[a] = rng.uniform_int(0, cards[a] - 1);
    } else {
      // Tournament: best of `tournament` random members is the parent.
      const Member* parent = nullptr;
      for (std::size_t s = 0; s < evolution_.tournament; ++s) {
        const Member& m = population[rng.uniform_index(population.size())];
        if (parent == nullptr || m.reward > parent->reward) parent = &m;
      }
      child.actions = parent->actions;
      // Mutate: each action flips with prob mutation_rate / num_actions,
      // with at least one forced flip.
      bool mutated = false;
      const double p = evolution_.mutation_rate /
                       static_cast<double>(cards.size());
      for (std::size_t a = 0; a < cards.size(); ++a) {
        if (cards[a] > 1 && rng.bernoulli(p)) {
          child.actions[a] = rng.uniform_int(0, cards[a] - 1);
          mutated = true;
        }
      }
      if (!mutated) {
        // Force one mutation on a non-trivial action.
        std::size_t a = rng.uniform_index(cards.size());
        while (cards[a] <= 1) a = rng.uniform_index(cards.size());
        child.actions[a] = rng.uniform_int(0, cards[a] - 1);
      }
    }
    child.reward = loop.submit(space_.decode(child.actions));
    population.push_back(std::move(child));
    if (population.size() > evolution_.population)
      population.pop_front();  // aging: the oldest dies
  }
}

// -------------------------------------------------------------- BayesOpt

void BayesOptSearch::search(SearchLoop& loop, Rng& rng) {
  // Observations (features -> reward), windowed.
  std::deque<std::pair<std::vector<double>, double>> observations;
  GpRegressor gp;
  bool gp_ready = false;
  double best_reward = -1e300;
  const NetworkSkeleton skeleton = default_skeleton();

  auto features_of = [&](const CandidateDesign& c) {
    return codesign_features(c.genotype, c.config,
                             resolve_skeleton(c.skeleton, skeleton));
  };

  auto refit = [&]() {
    if (observations.size() < bayes_.initial_random) return;
    Matrix x(observations.size(), observations.front().first.size());
    std::vector<double> y;
    y.reserve(observations.size());
    for (std::size_t r = 0; r < observations.size(); ++r) {
      for (std::size_t c = 0; c < observations[r].first.size(); ++c)
        x(r, c) = observations[r].first[c];
      y.push_back(observations[r].second);
    }
    gp.fit(x, y);
    gp_ready = true;
  };

  for (std::size_t it = 0; it < options_.iterations; ++it) {
    CandidateDesign chosen;
    if (!gp_ready) {
      chosen = space_.random_candidate(rng);
    } else {
      // Maximise EI over a random candidate pool.
      double best_ei = -1.0;
      for (std::size_t k = 0; k < bayes_.acquisition_pool; ++k) {
        const CandidateDesign c = space_.random_candidate(rng);
        const auto [mu, var] = gp.predict_with_variance(features_of(c));
        const double ei = expected_improvement(mu, var, best_reward);
        if (ei > best_ei) {
          best_ei = ei;
          chosen = c;
        }
      }
    }

    const double reward = loop.submit(chosen);
    best_reward = std::max(best_reward, reward);

    observations.emplace_back(features_of(chosen), reward);
    if (observations.size() > bayes_.train_window) observations.pop_front();
    if (observations.size() >= bayes_.initial_random &&
        (it % bayes_.refit_every == 0 || !gp_ready))
      refit();
  }
}

}  // namespace yoso
