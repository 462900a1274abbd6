#include <gtest/gtest.h>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "arch/zoo.h"
#include "base/contract.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "nn/im2col.h"
#include "nn/metrics.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "surrogate/accuracy_model.h"
#include "util/thread_pool.h"

namespace yoso {
namespace {

TEST(Contract, RequirePassesSilently) {
  int evaluations = 0;
  auto count = [&] {
    ++evaluations;
    return std::string("ctx");
  };
  YOSO_REQUIRE(1 + 1 == 2, "never built: ", count());
  // Message arguments must not be evaluated on the passing path.
  EXPECT_EQ(evaluations, 0);
}

TEST(Contract, ViolationCarriesStructuredContext) {
  try {
    YOSO_REQUIRE(2 < 1, "got ", 42, " while expecting < ", 1);
    FAIL() << "YOSO_REQUIRE did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.expression(), "2 < 1");
    EXPECT_NE(e.file().find("test_contract.cpp"), std::string::npos);
    EXPECT_GT(e.line(), 0);
    EXPECT_EQ(e.message(), "got 42 while expecting < 1");
    const std::string what = e.what();
    EXPECT_NE(what.find("(2 < 1)"), std::string::npos);
    EXPECT_NE(what.find("test_contract.cpp"), std::string::npos);
    EXPECT_NE(what.find("got 42 while expecting < 1"), std::string::npos);
  }
}

TEST(Contract, MessageIsOptional) {
  try {
    YOSO_CHECK(false);
    FAIL() << "YOSO_CHECK did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_TRUE(e.message().empty());
    EXPECT_NE(std::string(e.what()).find("contract violation"),
              std::string::npos);
  }
}

TEST(Contract, ViolationIsCatchableAsInvalidArgument) {
  // Pre-contract call sites catch std::invalid_argument / std::logic_error;
  // the hierarchy keeps both working.
  EXPECT_THROW(YOSO_REQUIRE(false, "compat"), std::invalid_argument);
  EXPECT_THROW(YOSO_REQUIRE(false, "compat"), std::logic_error);
}

TEST(Contract, DcheckMatchesBuildType) {
#if !defined(NDEBUG) || defined(YOSO_ENABLE_DCHECKS)
  EXPECT_THROW(YOSO_DCHECK(false, "debug build checks"), ContractViolation);
#else
  // Release: compiled out entirely — the condition must not even run.
  int evaluations = 0;
  // The macro discards its arguments in this configuration, so keep the
  // probe referenced explicitly.
  [[maybe_unused]] auto probe = [&] {
    ++evaluations;
    return false;
  };
  YOSO_DCHECK(probe(), "release build is a no-op");
  EXPECT_EQ(evaluations, 0);
#endif
}

AcceleratorConfig base_config() {
  return AcceleratorConfig{16, 32, 512, 512, Dataflow::kOutputStationary};
}

std::vector<Layer> reference_layers() {
  return extract_layers(reference_model("Darts_v2").genotype,
                        default_skeleton());
}

TEST(Contract, SimulatorRejectsInvalidBatch) {
  const SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const std::vector<Layer> layers = reference_layers();
  try {
    sim.simulate(layers, base_config(), 0);
    FAIL() << "batch=0 accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(e.message().find("batch=0"), std::string::npos);
  }
}

TEST(Contract, SimulatorRejectsDegenerateArray) {
  const SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const std::vector<Layer> layers = reference_layers();
  AcceleratorConfig config = base_config();
  config.pe_rows = 0;
  EXPECT_THROW(sim.simulate(layers, config), ContractViolation);
}

TEST(Contract, RewardRejectsNonFiniteAccuracy) {
  const RewardParams params = balanced_reward();
  EvalResult r;
  r.accuracy = std::numeric_limits<double>::quiet_NaN();
  r.latency_ms = 1.0;
  r.energy_mj = 1.0;
  EXPECT_THROW(params.compute(r), ContractViolation);
}

TEST(Contract, GpPredictRejectsDimensionMismatch) {
  GpRegressor gp;
  const Matrix x = Matrix::from_rows({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.5}});
  const std::vector<double> y = {0.0, 1.0, 2.0};
  gp.fit(x, y);
  try {
    gp.predict(std::vector<double>{0.5});
    FAIL() << "dimension mismatch accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(e.message().find("feature dimension 1"), std::string::npos);
    EXPECT_NE(e.message().find("fitted dimension 2"), std::string::npos);
  }
}


// ---------------------------------------------------------------------------
// Guards the contract-coverage lint rule (tools/yoso_lint.py) forced into
// public entry points: every YOSO_REQUIRE/YOSO_CHECK it added gets a
// violation case here.  (LstmController::step_forward and
// GpRegressor::predict_rows also gained guards, but both are private
// methods whose public callers always pass in-range arguments.)

TEST(ContractCoverage, ThreadPoolRejectsAbsurdWorkerCount) {
  EXPECT_THROW(ThreadPool pool(2048), ContractViolation);
}

TEST(ContractCoverage, Im2colRejectsNonPositiveKernelOrStride) {
  const Tensor x({1, 1, 4, 4});
  EXPECT_THROW(im2col(x, 0, 1), ContractViolation);
  EXPECT_THROW(im2col(x, 3, 0), ContractViolation);
}

TEST(ContractCoverage, Col2imRejectsNonPositiveKernelOrStride) {
  const ColMatrix cols;
  EXPECT_THROW(col2im(cols, {1, 1, 4, 4}, 0, 1), ContractViolation);
  EXPECT_THROW(col2im(cols, {1, 1, 4, 4}, 3, 0), ContractViolation);
}

TEST(ContractCoverage, ConfusionMatrixAtIsBoundsChecked) {
  ConfusionMatrix cm(3);
  EXPECT_THROW(cm.at(3, 0), ContractViolation);
  EXPECT_THROW(cm.at(0, -1), ContractViolation);
  EXPECT_EQ(cm.at(2, 2), 0);
}

TEST(ContractCoverage, HistogramBucketIsBoundsChecked) {
  const std::vector<double> bounds = {1.0, 2.0};
  obs::Histogram h{std::span<const double>(bounds)};  // 3 buckets
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_THROW(h.bucket(3), ContractViolation);
}

TEST(ContractCoverage, GemvRejectsNullOperands) {
  const double a[4] = {1.0, 2.0, 3.0, 4.0};
  const double x[2] = {1.0, 1.0};
  EXPECT_THROW(kernels::gemv(a, x, nullptr, 2, 2), ContractViolation);
}

TEST(ContractCoverage, SgemmAbtRejectsOverflowingPanel) {
  const float a[1] = {0.0f};
  const float b[1] = {0.0f};
  float c[1] = {0.0f};
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(kernels::sgemm_abt(a, b, c, 1, huge, 3), ContractViolation);
}

TEST(ContractCoverage, PackRowsRejectsOverflowingPanel) {
  const double src[1] = {0.0};
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(kernels::pack_rows(src, huge, 3), ContractViolation);
}

TEST(ContractCoverage, GpPredictMeansPairRejectsNullOutput) {
  GpRegressor gp;
  const Matrix x = Matrix::from_rows({{0.0}, {1.0}, {2.0}});
  const std::vector<double> y = {0.0, 1.0, 2.0};
  gp.fit(x, y);
  const double xq[1] = {0.5};
  EXPECT_THROW(GpRegressor::predict_means_pair(gp, gp, xq, 1, nullptr,
                                               nullptr, nullptr),
               ContractViolation);
}

TEST(ContractCoverage, CodesignFeaturesIntoRejectsNullOutput) {
  const ArchFeatures af;
  const AcceleratorConfig config;
  EXPECT_THROW(codesign_features_into(af, config, nullptr),
               ContractViolation);
}

TEST(ContractCoverage, PredictBatchRejectsNullOutputs) {
  PerformancePredictor predictor(default_skeleton());
  const double features[1] = {0.0};
  EXPECT_THROW(predictor.predict_latency_energy_batch(features, 1, nullptr,
                                                      nullptr, nullptr),
               ContractViolation);
}

TEST(ContractCoverage, SkeletonForRejectsOutOfRangeIndices) {
  EXPECT_THROW(skeleton_for(SkeletonChoice{-1, 0}), ContractViolation);
  EXPECT_THROW(skeleton_for(SkeletonChoice{0, 99}), ContractViolation);
  EXPECT_THROW(skeleton_for(SkeletonChoice{3, 0}), ContractViolation);
}

TEST(ContractCoverage, SearchedSpaceDecodeRejectsOutOfRangeSkeleton) {
  const DesignSpace space(default_config_space(), SkeletonAxis::kSearched);
  std::vector<int> actions(static_cast<std::size_t>(space.num_actions()), 0);
  actions.back() = 3;
  EXPECT_THROW(space.decode(actions), ContractViolation);
}

TEST(ContractCoverage, FastEvaluatorRejectsZeroSamples) {
  const DesignSpace space(default_config_space(), SkeletonAxis::kSearched);
  const SystolicSimulator sim({}, SimFidelity::kAnalytical);
  EXPECT_THROW(FastEvaluator(space, default_skeleton(), sim,
                             {.predictor_samples = 0, .seed = 7}),
               ContractViolation);
}

#if !defined(NDEBUG) || defined(YOSO_ENABLE_DCHECKS)
TEST(ContractCoverage, TensorAtIsBoundsCheckedInDebug) {
  Tensor t({1, 1, 2, 2});
  EXPECT_THROW(t.at(0, 0, 2, 0), ContractViolation);
  EXPECT_THROW(t.at(-1, 0, 0, 0), ContractViolation);
}
#endif

}  // namespace
}  // namespace yoso
