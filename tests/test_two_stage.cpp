#include <gtest/gtest.h>
#include <memory>

#include "accel/config.h"
#include "accel/simulator.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/two_stage.h"

namespace yoso {
namespace {

/// A deliberately tiny config space keeps exhaustive enumeration fast.
ConfigSpace tiny_space() {
  ConfigSpace cs;
  cs.pe_shapes = {{8, 8}, {16, 32}};
  cs.g_buf_kb_options = {108, 512};
  cs.r_buf_byte_options = {64, 512};
  return cs;
}

class TwoStageTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>(tiny_space());
    evaluator_ = std::make_unique<AccurateEvaluator>(
        default_skeleton(), SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    evaluator_.reset();
    space_.reset();
  }
  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<AccurateEvaluator> evaluator_;
};

std::unique_ptr<DesignSpace> TwoStageTest::space_;
std::unique_ptr<AccurateEvaluator> TwoStageTest::evaluator_;

TEST_F(TwoStageTest, EvaluatesEveryConfiguration) {
  const auto row = two_stage_best_config(reference_model("Darts_v1"), *space_,
                                         *evaluator_, balanced_reward());
  EXPECT_EQ(row.configs_evaluated, space_->config_space().size());
  EXPECT_EQ(row.name, "Darts_v1");
  EXPECT_DOUBLE_EQ(row.paper_test_error, 3.0);
}

TEST_F(TwoStageTest, KeepsTheGenotypeFixed) {
  const auto& model = reference_model("Darts_v2");
  const auto row =
      two_stage_best_config(model, *space_, *evaluator_, balanced_reward());
  EXPECT_TRUE(row.design.genotype == model.genotype);
}

TEST_F(TwoStageTest, ChosenConfigIsRewardOptimal) {
  const auto& model = reference_model("EnasNet");
  const RewardParams reward = balanced_reward();
  const auto row = two_stage_best_config(model, *space_, *evaluator_, reward);
  // Exhaustively verify no config beats the chosen one within its
  // feasibility class.
  for (const AcceleratorConfig& config : space_->config_space().enumerate()) {
    const EvalResult r =
        evaluator_->evaluate(CandidateDesign{model.genotype, config, {}});
    if (row.feasible && !reward.feasible(r)) continue;
    if (!row.feasible && reward.feasible(r))
      FAIL() << "feasible config existed but was not chosen";
    EXPECT_LE(reward.compute(r), row.reward + 1e-9)
        << config.to_string();
  }
}

TEST_F(TwoStageTest, PrefersFeasibleOverHigherScoringInfeasible) {
  // With a crushing latency threshold, only the biggest array may pass.
  RewardParams reward = balanced_reward();
  reward.t_lat_ms = 1.5;
  reward.t_eer_mj = 50.0;
  const auto row = two_stage_best_config(reference_model("Darts_v1"), *space_,
                                         *evaluator_, reward);
  if (row.feasible) {
    EXPECT_LE(row.result.latency_ms, reward.t_lat_ms);
  }
}

TEST_F(TwoStageTest, BaselineCoversAllSixModels) {
  const auto rows =
      two_stage_baseline(*space_, *evaluator_, balanced_reward());
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) {
    EXPECT_GT(row.result.energy_mj, 0.0);
    EXPECT_GT(row.result.latency_ms, 0.0);
    EXPECT_GT(row.reward, 0.0);
    EXPECT_EQ(row.configs_evaluated, space_->config_space().size());
  }
}

TEST_F(TwoStageTest, DifferentRewardsCanPickDifferentConfigs) {
  const auto& model = reference_model("PnasNet");
  const auto row_lat = two_stage_best_config(model, *space_, *evaluator_,
                                             latency_opt_reward());
  const auto row_eer = two_stage_best_config(model, *space_, *evaluator_,
                                             energy_opt_reward());
  // Both must be valid configs of the space (values, not identity).
  EXPECT_NO_THROW(space_->config_space().encode(row_lat.design.config));
  EXPECT_NO_THROW(space_->config_space().encode(row_eer.design.config));
  // The latency-optimised pick must not be slower than the energy pick.
  EXPECT_LE(row_lat.result.latency_ms, row_eer.result.latency_ms + 1e-9);
}

}  // namespace
}  // namespace yoso
