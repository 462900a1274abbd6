#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "base/contract.h"
#include "rl/controller.h"
#include "rl/param_store.h"
#include "util/rng.h"

namespace yoso {
namespace {

std::vector<int> toy_cards() { return {2, 3, 4, 6}; }

TEST(ParamStore, AllocAndViews) {
  ParamStore store;
  Rng rng(1);
  const ParamView a = store.alloc(10, rng, 0.5);
  const ParamView b = store.alloc(5, rng);
  EXPECT_EQ(store.size(), 15u);
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, 10u);
  for (double v : store.value(a)) {
    EXPECT_GE(v, -0.5);
    EXPECT_LE(v, 0.5);
  }
}

TEST(ParamStore, AdamStepMovesAgainstGradient) {
  ParamStore store;
  Rng rng(2);
  const ParamView v = store.alloc(3, rng, 0.0);
  store.grad(v)[0] = 1.0;
  store.grad(v)[1] = -1.0;
  store.adam_step(0.1);
  EXPECT_LT(store.value(v)[0], 0.0);
  EXPECT_GT(store.value(v)[1], 0.0);
  EXPECT_DOUBLE_EQ(store.value(v)[2], 0.0);
}

TEST(ParamStore, GradNormAndScale) {
  ParamStore store;
  Rng rng(3);
  const ParamView v = store.alloc(2, rng, 0.0);
  store.grad(v)[0] = 3.0;
  store.grad(v)[1] = 4.0;
  EXPECT_DOUBLE_EQ(store.grad_norm(), 5.0);
}

TEST(Controller, RejectsBadActionSpaces) {
  EXPECT_THROW(LstmController({}, {}), std::invalid_argument);
  EXPECT_THROW(LstmController({2, 0}, {}), std::invalid_argument);
}

TEST(Controller, SampleRespectsCardinalities) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const Episode ep = ctrl.sample(rng);
    ASSERT_EQ(ep.actions.size(), 4u);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_GE(ep.actions[t], 0);
      EXPECT_LT(ep.actions[t], toy_cards()[t]);
    }
  }
}

TEST(Controller, LogProbNegativeEntropyPositive) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(5);
  const Episode ep = ctrl.sample(rng);
  EXPECT_LT(ep.log_prob, 0.0);
  EXPECT_GT(ep.entropy, 0.0);
  // Entropy can't exceed sum of log cardinalities.
  double max_ent = 0.0;
  for (int c : toy_cards()) max_ent += std::log(c);
  EXPECT_LE(ep.entropy, max_ent + 1e-9);
}

TEST(Controller, ProbabilitiesNormalised) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(6);
  const Episode ep = ctrl.sample(rng);
  for (int t = 0; t < ctrl.num_steps(); ++t) {
    const auto p = ctrl.step_probs(ep, t);
    ASSERT_EQ(p.size(), static_cast<std::size_t>(toy_cards()[t]));
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Controller, TanhConstantBoundsLogits) {
  // With squashing z in [-C, C], any softmax probability is bounded away
  // from 0 by e^{-2C} / card.
  ControllerOptions opt;
  opt.tanh_constant = 2.5;
  LstmController ctrl(toy_cards(), opt);
  Rng rng(7);
  const Episode ep = ctrl.sample(rng);
  const double floor = std::exp(-2.0 * 2.5) / 6.0;
  for (int t = 0; t < ctrl.num_steps(); ++t)
    for (double v : ctrl.step_probs(ep, t)) EXPECT_GE(v, floor * 0.99);
}

TEST(Controller, ArgmaxDeterministic) {
  LstmController ctrl(toy_cards(), {});
  const auto a1 = ctrl.argmax_actions();
  const auto a2 = ctrl.argmax_actions();
  EXPECT_EQ(a1, a2);
  ASSERT_EQ(a1.size(), 4u);
}

TEST(Controller, SameSeedSameBehaviour) {
  ControllerOptions opt;
  opt.seed = 77;
  LstmController a(toy_cards(), opt);
  LstmController b(toy_cards(), opt);
  Rng ra(8), rb(8);
  const Episode ea = a.sample(ra);
  const Episode eb = b.sample(rb);
  EXPECT_EQ(ea.actions, eb.actions);
  EXPECT_DOUBLE_EQ(ea.log_prob, eb.log_prob);
}

TEST(Controller, GradientAccumulationThenUpdateChangesPolicy) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(9);
  const auto before = ctrl.argmax_actions();
  // Strongly reinforce a specific episode many times.
  for (int i = 0; i < 50; ++i) {
    const Episode ep = ctrl.sample(rng);
    const double reward = ep.actions[0] == 1 ? 1.0 : -1.0;
    ctrl.accumulate_gradient(ep, reward, 0.0);
    ctrl.update(0.05);
  }
  // Policy should now prefer action 1 at step 0.
  int hits = 0;
  for (int i = 0; i < 100; ++i)
    hits += ctrl.sample(rng).actions[0] == 1 ? 1 : 0;
  EXPECT_GT(hits, 70);
  (void)before;
}

TEST(Controller, UpdateZeroesGradients) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(10);
  const Episode ep = ctrl.sample(rng);
  ctrl.accumulate_gradient(ep, 1.0, 1e-4);
  ctrl.update(0.01);
  // A second update with no accumulation must be a no-op on the params.
  const auto a1 = ctrl.argmax_actions();
  ctrl.update(0.01);
  EXPECT_EQ(ctrl.argmax_actions(), a1);
}

TEST(Controller, UpdateBumpsVersionAndSampleStampsIt) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(12);
  const std::uint64_t v0 = ctrl.version();
  const Episode a = ctrl.sample(rng);
  const Episode b = ctrl.sample(rng);
  EXPECT_EQ(a.version, v0);
  EXPECT_EQ(b.version, v0);
  EXPECT_NE(a.slot, b.slot);
  ctrl.update(0.01);
  EXPECT_EQ(ctrl.version(), v0 + 1);
  EXPECT_EQ(ctrl.sample(rng).version, v0 + 1);
}

TEST(Controller, StaleEpisodeRejected) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(13);
  const Episode old = ctrl.sample(rng);
  ctrl.update(0.01);
  EXPECT_THROW(ctrl.accumulate_gradient(old, 1.0, 1e-4), ContractViolation);
  EXPECT_THROW((void)ctrl.step_probs(old, 0), ContractViolation);
}

TEST(Controller, EpisodeFedBackOnlyOnce) {
  LstmController ctrl(toy_cards(), {});
  Rng rng(14);
  const Episode ep = ctrl.sample(rng);
  ctrl.accumulate_gradient(ep, 1.0, 1e-4);
  EXPECT_THROW(ctrl.accumulate_gradient(ep, 1.0, 1e-4), ContractViolation);
  EXPECT_THROW(ctrl.accumulate_gradient(Episode{}, 1.0, 1e-4),
               ContractViolation);
}

TEST(Controller, RoundGradientIsSumOfEpisodeGradients) {
  // A round's pending gradient is the sum of what each fed-back episode
  // contributes alone at the same weights, in any feedback order; an
  // episode not yet fed back contributes nothing, and may still be fed
  // back after gradient() has folded the others.
  ControllerOptions opt;
  opt.hidden_size = 16;
  opt.embed_size = 8;
  const double adv[3] = {0.7, -1.3, 0.4};
  auto alone = [&](int i) {
    LstmController one(toy_cards(), opt);
    Rng r(15);
    std::vector<Episode> eps;
    for (int j = 0; j <= i; ++j) eps.push_back(one.sample(r));
    one.accumulate_gradient(eps.back(), adv[i], 1e-2);
    const auto g = one.gradient();
    return std::vector<double>(g.begin(), g.end());
  };
  LstmController round(toy_cards(), opt);
  Rng rng(15);
  std::vector<Episode> eps;
  for (int i = 0; i < 3; ++i) eps.push_back(round.sample(rng));
  round.accumulate_gradient(eps[2], adv[2], 1e-2);
  round.accumulate_gradient(eps[0], adv[0], 1e-2);
  const auto g0 = alone(0), g1 = alone(1), g2 = alone(2);
  using Parts = std::initializer_list<const std::vector<double>*>;
  auto expect_sum = [&](Parts parts) {
    const auto got = round.gradient();
    for (std::size_t k = 0; k < got.size(); ++k) {
      double want = 0.0;
      for (const auto* p : parts) want += (*p)[k];
      ASSERT_NEAR(got[k], want, 1e-12 * (1.0 + std::abs(want)))
          << "parameter " << k;
    }
  };
  expect_sum({&g0, &g2});
  round.accumulate_gradient(eps[1], adv[1], 1e-2);
  expect_sum({&g0, &g1, &g2});
}

ControllerOptions lockstep_options() {
  ControllerOptions opt;
  opt.hidden_size = 24;
  opt.embed_size = 8;
  opt.seed = 31;
  return opt;
}

std::vector<int> lockstep_cards() { return {2, 3, 4, 6, 5, 7, 3}; }

TEST(Controller, SampleRoundEqualsSequentialSamples) {
  // k episodes stepped in lockstep must be exactly the k episodes that k
  // sample() calls draw from the same Rng state: actions, log-probs,
  // entropies and every step distribution, bit for bit, in a fresh round
  // and in a reused one after an update.
  for (const std::size_t k : {1u, 2u, 5u, 8u, 13u}) {
    LstmController lock(lockstep_cards(), lockstep_options());
    LstmController seq(lockstep_cards(), lockstep_options());
    Rng rl(100 + k), rs(100 + k);
    for (int round = 0; round < 2; ++round) {
      std::vector<Episode> eps;
      lock.sample_round(k, rl, eps);
      ASSERT_EQ(eps.size(), k);
      for (std::size_t e = 0; e < k; ++e) {
        const Episode want = seq.sample(rs);
        const Episode& got = eps[e];
        ASSERT_EQ(got.actions, want.actions) << "k=" << k << " e=" << e;
        ASSERT_EQ(got.log_prob, want.log_prob) << "k=" << k << " e=" << e;
        ASSERT_EQ(got.entropy, want.entropy) << "k=" << k << " e=" << e;
        ASSERT_EQ(got.slot, want.slot);
        for (int t = 0; t < lock.num_steps(); ++t) {
          const auto pg = lock.step_probs(got, t);
          const auto pw = seq.step_probs(want, t);
          ASSERT_TRUE(std::equal(pg.begin(), pg.end(), pw.begin(), pw.end()))
              << "k=" << k << " e=" << e << " t=" << t;
        }
        lock.accumulate_gradient(got, 0.5 - 0.1 * static_cast<double>(e),
                                 1e-2);
        seq.accumulate_gradient(want, 0.5 - 0.1 * static_cast<double>(e),
                                1e-2);
      }
      ASSERT_EQ(rl.next_u64(), rs.next_u64()) << "k=" << k;
      lock.update(0.01);
      seq.update(0.01);
    }
  }
}

TEST(Controller, LockstepBackwardIsBitIdenticalToPerEpisode) {
  // Feeding a round back in a shuffled order and backpropagating it in one
  // lockstep pass must give exactly the gradient of backpropagating each
  // episode alone, in slot order (gradient() after every feedback folds a
  // run of one slot), and exactly the same weights after update().
  for (const std::size_t k : {2u, 5u, 8u, 13u}) {
    LstmController lock(lockstep_cards(), lockstep_options());
    LstmController alone(lockstep_cards(), lockstep_options());
    Rng rl(7), ra(7), shuffle(k);
    std::vector<Episode> el, ea;
    lock.sample_round(k, rl, el);
    alone.sample_round(k, ra, ea);
    std::vector<double> adv(k);
    for (double& a : adv) a = shuffle.uniform(-2.0, 2.0);
    for (const std::size_t e : shuffle.permutation(k))
      lock.accumulate_gradient(el[e], adv[e], 3e-2);
    for (std::size_t e = 0; e < k; ++e) {
      alone.accumulate_gradient(ea[e], adv[e], 3e-2);
      (void)alone.gradient();
    }
    const auto gl = lock.gradient();
    const auto ga = alone.gradient();
    ASSERT_TRUE(std::equal(gl.begin(), gl.end(), ga.begin(), ga.end()))
        << "k=" << k;
    lock.update(0.01, 0.5);  // clipped
    alone.update(0.01, 0.5);
    const auto vl = lock.params().values();
    const auto va = alone.params().values();
    ASSERT_TRUE(std::equal(vl.begin(), vl.end(), va.begin(), va.end()))
        << "k=" << k;
  }
}

TEST(Controller, ParamCountScalesWithSpace) {
  LstmController small({2, 2}, {});
  LstmController large(std::vector<int>(44, 6), {});
  EXPECT_GT(large.param_count(), small.param_count());
  EXPECT_GT(small.param_count(), 0u);
}

class HiddenSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(HiddenSizeSweep, SamplesValidAtAnyWidth) {
  ControllerOptions opt;
  opt.hidden_size = GetParam();
  LstmController ctrl(toy_cards(), opt);
  Rng rng(11);
  const Episode ep = ctrl.sample(rng);
  EXPECT_EQ(ep.actions.size(), 4u);
  EXPECT_TRUE(std::isfinite(ep.log_prob));
}

INSTANTIATE_TEST_SUITE_P(Widths, HiddenSizeSweep,
                         ::testing::Values(8, 32, 120));

}  // namespace
}  // namespace yoso
