#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "base/contract.h"
#include "rl/controller.h"
#include "rl/reinforce.h"
#include "util/rng.h"

namespace yoso {
namespace {

std::vector<int> toy_cards() { return {3, 3, 3, 3, 3, 3}; }

/// Adam steps taken so far: the constructor starts version 1 and each
/// update() takes one Adam step and starts the next version.
long long adam_steps(const LstmController& ctrl) {
  return static_cast<long long>(ctrl.version()) - 1;
}

TEST(ReinforceTrainer, BaselineTracksRewards) {
  LstmController ctrl(toy_cards(), {});
  ReinforceOptions opt;
  opt.baseline_decay = 0.5;
  ReinforceTrainer trainer(ctrl, opt);
  EXPECT_DOUBLE_EQ(trainer.baseline_value(), 0.0);
  Rng rng(1);
  const Episode ep = trainer.propose(rng);
  trainer.feedback(ep, 2.0);
  EXPECT_DOUBLE_EQ(trainer.baseline_value(), 2.0);
  trainer.feedback(trainer.propose(rng), 4.0);
  EXPECT_DOUBLE_EQ(trainer.baseline_value(), 3.0);
  EXPECT_EQ(trainer.episodes_seen(), 2u);
}

TEST(ReinforceTrainer, LearnsToyObjective) {
  LstmController ctrl(toy_cards(), {});
  ReinforceTrainer trainer(ctrl, {});
  Rng rng(2);
  for (int it = 0; it < 1500; ++it) {
    const Episode ep = trainer.propose(rng);
    double r = 0.0;
    for (int a : ep.actions) r += a == 2 ? 1.0 : 0.0;
    trainer.feedback(ep, r / 6.0);
  }
  const auto best = ctrl.argmax_actions();
  int correct = 0;
  for (int a : best) correct += a == 2 ? 1 : 0;
  EXPECT_GE(correct, 5);
}

TEST(ReinforceTrainer, BatchedUpdatesDeferAdam) {
  LstmController ctrl(toy_cards(), {});
  ReinforceTrainer trainer(ctrl, {});
  Rng rng(3);
  const auto before = ctrl.argmax_actions();
  const std::uint64_t version = ctrl.version();
  // A round of four proposals, then four feedbacks: all pending, no Adam
  // step applied yet.
  std::vector<Episode> round;
  for (int i = 0; i < 4; ++i) round.push_back(trainer.propose(rng));
  for (const Episode& ep : round) trainer.feedback(ep, 1.0);
  EXPECT_EQ(ctrl.argmax_actions(), before);
  EXPECT_EQ(adam_steps(ctrl), 0);
  EXPECT_EQ(ctrl.version(), version);
  // The next round's first proposal applies the round as one step.
  (void)trainer.propose(rng);
  EXPECT_EQ(adam_steps(ctrl), 1);
  EXPECT_EQ(ctrl.version(), version + 1);
  EXPECT_EQ(trainer.episodes_seen(), 4u);
}

TEST(ReinforceTrainer, OneAdamStepPerRound) {
  LstmController ctrl(toy_cards(), {});
  ReinforceTrainer trainer(ctrl, {});
  Rng rng(6);
  long long rounds = 0;
  for (const int k : {1, 3, 8, 1, 5}) {
    std::vector<Episode> round;
    for (int i = 0; i < k; ++i) round.push_back(trainer.propose(rng));
    EXPECT_EQ(adam_steps(ctrl), rounds) << "after proposing a round of " << k;
    for (const Episode& ep : round) trainer.feedback(ep, 0.25 * k);
    ++rounds;
  }
  (void)trainer.propose(rng);
  EXPECT_EQ(adam_steps(ctrl), rounds);
  // A proposal with nothing fed back since the last step takes none.
  (void)trainer.propose(rng);
  EXPECT_EQ(adam_steps(ctrl), rounds);
}

TEST(ReinforceTrainer, ProposeRoundEqualsPerEpisodeProposals) {
  // YosoSearch proposes a round with propose_round(k); a caller that
  // proposes the same round one episode at a time must see the same
  // episodes and end at the same weights.
  LstmController lc(toy_cards(), {}), pc(toy_cards(), {});
  ReinforceTrainer lock(lc, {}), per(pc, {});
  Rng rl(8), rp(8);
  std::vector<Episode> round;
  for (const std::size_t k : {8u, 3u, 1u, 8u}) {
    lock.propose_round(k, rl, round);
    ASSERT_EQ(round.size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      const Episode ep = per.propose(rp);
      ASSERT_EQ(round[j].actions, ep.actions) << "k=" << k << " j=" << j;
      ASSERT_EQ(round[j].log_prob, ep.log_prob);
    }
    for (std::size_t j = 0; j < k; ++j) {
      double r = 0.0;
      for (int a : round[j].actions) r += a == 1 ? 1.0 : 0.0;
      lock.feedback(round[j], r);
      per.feedback(round[j], r);
    }
  }
  (void)lock.propose(rl);
  (void)per.propose(rp);
  const auto a = lc.params().values();
  const auto b = pc.params().values();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(ReinforceTrainer, StaleFeedbackRejected) {
  LstmController ctrl(toy_cards(), {});
  ReinforceTrainer trainer(ctrl, {});
  Rng rng(7);
  // The interleaving that used to mix weights: b is proposed under the same
  // policy as a, but a's round is applied before b is fed back.
  const Episode a = trainer.propose(rng);
  const Episode b = trainer.propose(rng);
  trainer.feedback(a, 1.0);
  (void)trainer.propose(rng);  // applies a's gradient
  EXPECT_THROW(trainer.feedback(b, 0.5), ContractViolation);
  EXPECT_THROW(trainer.feedback(a, 1.0), ContractViolation);
  EXPECT_EQ(trainer.episodes_seen(), 1u);
}

// Reference surrogate for the finite-difference check: an independent
// scalar LSTM over the controller's documented parameter layout (alloc
// order w_x, w_h, b, start, then per step embed_t (t >= 1), head_w_t,
// head_b_t), teacher-forced on recorded actions, in long double.
struct Layout {
  std::size_t w_x, w_h, b, start;
  std::vector<std::size_t> embed, head_w, head_b;
  std::size_t total;
};

Layout layout_of(const std::vector<int>& cards, std::size_t h,
                 std::size_t e) {
  Layout l;
  std::size_t off = 0;
  l.w_x = off;
  off += 4 * h * e;
  l.w_h = off;
  off += 4 * h * h;
  l.b = off;
  off += 4 * h;
  l.start = off;
  off += e;
  l.embed.assign(cards.size(), 0);
  l.head_w.assign(cards.size(), 0);
  l.head_b.assign(cards.size(), 0);
  for (std::size_t t = 0; t < cards.size(); ++t) {
    if (t >= 1) {
      l.embed[t] = off;
      off += static_cast<std::size_t>(cards[t - 1]) * e;
    }
    l.head_w[t] = off;
    off += static_cast<std::size_t>(cards[t]) * h;
    l.head_b[t] = off;
    off += static_cast<std::size_t>(cards[t]);
  }
  l.total = off;
  return l;
}

/// sum_j [-A_j log pi_theta(a_j) - beta H_j(theta)]; `log_probs` receives
/// each episode's log pi.
long double surrogate(const std::vector<double>& theta,
                      const std::vector<int>& cards, const Layout& l,
                      std::size_t h, std::size_t e,
                      const std::vector<std::vector<int>>& actions,
                      const std::vector<double>& adv, double beta,
                      std::vector<long double>* log_probs = nullptr) {
  const ControllerOptions opt;
  auto sig = [](long double v) { return 1.0L / (1.0L + std::exp(-v)); };
  long double total = 0.0L;
  for (std::size_t j = 0; j < actions.size(); ++j) {
    std::vector<long double> hs(h, 0.0L), cs(h, 0.0L), pre(4 * h);
    long double logp = 0.0L, ent = 0.0L;
    for (std::size_t t = 0; t < cards.size(); ++t) {
      const std::size_t xo =
          t == 0 ? l.start
                 : l.embed[t] + static_cast<std::size_t>(actions[j][t - 1]) * e;
      for (std::size_t r = 0; r < 4 * h; ++r) {
        long double acc = theta[l.b + r];
        for (std::size_t c = 0; c < e; ++c)
          acc += static_cast<long double>(theta[l.w_x + r * e + c]) *
                 theta[xo + c];
        for (std::size_t c = 0; c < h; ++c)
          acc += static_cast<long double>(theta[l.w_h + r * h + c]) * hs[c];
        pre[r] = acc;
      }
      for (std::size_t i = 0; i < h; ++i) {
        cs[i] = sig(pre[h + i]) * cs[i] +
                sig(pre[i]) * std::tanh(pre[2 * h + i]);
        hs[i] = sig(pre[3 * h + i]) * std::tanh(cs[i]);
      }
      const auto card = static_cast<std::size_t>(cards[t]);
      std::vector<long double> z(card);
      long double zmax = -1e30L;
      for (std::size_t k = 0; k < card; ++k) {
        long double u = theta[l.head_b[t] + k];
        for (std::size_t c = 0; c < h; ++c)
          u += static_cast<long double>(theta[l.head_w[t] + k * h + c]) * hs[c];
        z[k] = opt.tanh_constant * std::tanh(u / opt.temperature);
        zmax = std::max(zmax, z[k]);
      }
      long double denom = 0.0L;
      for (long double v : z) denom += std::exp(v - zmax);
      const long double log_denom = std::log(denom) + zmax;
      for (std::size_t k = 0; k < card; ++k) {
        const long double lp = z[k] - log_denom;
        ent -= std::exp(lp) * lp;
      }
      logp += z[static_cast<std::size_t>(actions[j][t])] - log_denom;
    }
    if (log_probs != nullptr) log_probs->push_back(logp);
    total += -adv[j] * logp - beta * ent;
  }
  return total;
}

TEST(ReinforceTrainer, RoundGradientMatchesFiniteDifferences) {
  // The pending gradient of a round of k = 4 episodes (4 proposes, then 4
  // feedbacks) is the gradient of the summed REINFORCE surrogate at the
  // parameters that sampled all four.  Under per-episode Adam steps this
  // cannot hold: episodes 2..4 would be backpropagated through moved
  // weights.
  const std::vector<int> cards = {4, 3, 5, 2, 6, 3};
  const ControllerOptions copt;  // paper sizes: hidden 120, embed 32
  const auto h = static_cast<std::size_t>(copt.hidden_size);
  const auto e = static_cast<std::size_t>(copt.embed_size);
  const Layout l = layout_of(cards, h, e);
  for (const double beta : {1e-4, 5e-2}) {
    LstmController ctrl(cards, copt);
    ASSERT_EQ(ctrl.param_count(), l.total);
    ReinforceOptions ropt;
    ropt.entropy_weight = beta;
    ReinforceTrainer trainer(ctrl, ropt);
    Rng rng(8);
    const double rewards[2][4] = {{0.2, 0.9, 0.4, 0.6}, {0.9, 0.1, 0.5, 0.3}};
    std::vector<Episode> round;
    std::vector<double> adv;
    for (const auto& rr : rewards) {  // a warm-up round, then the checked one
      round.clear();
      adv.clear();
      for (int j = 0; j < 4; ++j) round.push_back(trainer.propose(rng));
      for (int j = 0; j < 4; ++j) {
        adv.push_back(rr[j] - trainer.baseline_value());
        trainer.feedback(round[static_cast<std::size_t>(j)], rr[j]);
      }
    }
    ASSERT_EQ(adam_steps(ctrl), 1);
    const std::vector<double> theta(ctrl.params().values().begin(),
                                    ctrl.params().values().end());
    const auto g = ctrl.gradient();
    std::vector<std::vector<int>> actions;
    for (const Episode& ep : round) actions.push_back(ep.actions);

    std::vector<long double> ref_logp;
    (void)surrogate(theta, cards, l, h, e, actions, adv, beta, &ref_logp);
    for (std::size_t j = 0; j < round.size(); ++j)
      ASSERT_NEAR(static_cast<double>(ref_logp[j]), round[j].log_prob, 1e-9);

    // Probes: up to 6 entries with a non-negligible gradient from each
    // tensor, taken at a stride across the tensor.
    struct Tensor {
      const char* name;
      std::size_t begin, size;
    };
    const auto card = [&](std::size_t t) {
      return static_cast<std::size_t>(cards[t]);
    };
    const Tensor tensors[] = {{"w_x", l.w_x, 4 * h * e},
                              {"w_h", l.w_h, 4 * h * h},
                              {"b", l.b, 4 * h},
                              {"start", l.start, e},
                              {"embed", l.embed[1], card(0) * e},
                              {"embed", l.embed[4], card(3) * e},
                              {"head_w", l.head_w[0], card(0) * h},
                              {"head_w", l.head_w[5], card(5) * h},
                              {"head_b", l.head_b[2], card(2)}};
    int probes = 0;
    for (const auto& [name, begin, size] : tensors) {
      int taken = 0;
      const std::size_t stride = std::max<std::size_t>(1, size / 97);
      for (std::size_t o = 0; o < size && taken < 6; o += stride) {
        const std::size_t i = begin + o;
        if (std::abs(g[i]) < 1e-4) continue;
        std::vector<double> plus = theta, minus = theta;
        const double step = 1e-6;
        plus[i] += step;
        minus[i] -= step;
        const long double fd =
            (surrogate(plus, cards, l, h, e, actions, adv, beta) -
             surrogate(minus, cards, l, h, e, actions, adv, beta)) /
            (plus[i] - minus[i]);
        const auto fdd = static_cast<double>(fd);
        const double rel = std::abs(g[i] - fdd) /
                           std::max(std::abs(g[i]), std::abs(fdd));
        EXPECT_LE(rel, 1e-5) << name << " parameter " << i << ": analytic "
                             << g[i] << " vs finite difference " << fdd
                             << " (beta " << beta << ")";
        ++taken;
      }
      EXPECT_GE(taken, 4) << "too few probes with a visible gradient in "
                          << name;
      probes += taken;
    }
    EXPECT_GE(probes, 40);
  }
}

TEST(ReinforceTrainer, NoBaselineModeRuns) {
  LstmController ctrl(toy_cards(), {});
  ReinforceOptions opt;
  opt.use_baseline = false;
  ReinforceTrainer trainer(ctrl, opt);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) trainer.feedback(trainer.propose(rng), 0.5);
  EXPECT_EQ(trainer.episodes_seen(), 20u);
}

TEST(RandomSearcher, UniformOverSpace) {
  RandomSearcher searcher({2, 5});
  Rng rng(5);
  std::vector<int> counts0(2, 0), counts1(5, 0);
  for (int i = 0; i < 7000; ++i) {
    const auto a = searcher.propose(rng);
    ASSERT_EQ(a.size(), 2u);
    ++counts0[static_cast<std::size_t>(a[0])];
    ++counts1[static_cast<std::size_t>(a[1])];
  }
  EXPECT_NEAR(counts0[0], 3500, 350);
  for (int c : counts1) EXPECT_NEAR(c, 1400, 250);
}

}  // namespace
}  // namespace yoso
