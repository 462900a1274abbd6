// Batched/parallel evaluation engine: bit-identical results at any thread
// count (through the two-stage pipeline), memoization correctness, the
// shared-ExecContext contract, and the negative-reward regression on
// SearchResult::best_fast_reward.

#include <cmath>
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "core/alt_search.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace yoso {
namespace {

class ParallelSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>();
    skeleton_ = std::make_unique<NetworkSkeleton>(default_skeleton());
    SystolicSimulator sim({}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<FastEvaluator>(*space_, *skeleton_, sim,
                              FastEvaluatorOptions{.predictor_samples = 150, .seed = 9});
    accurate_ = std::make_unique<AccurateEvaluator>(
        *skeleton_, SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    fast_.reset();
    skeleton_.reset();
    space_.reset();
  }

  static SearchOptions base_options() {
    SearchOptions opt;
    opt.iterations = 120;
    opt.top_n = 5;
    opt.trace_every = 10;
    opt.reward = balanced_reward();
    opt.seed = 13;
    return opt;
  }

  static void expect_identical(const SearchResult& a, const SearchResult& b) {
    EXPECT_DOUBLE_EQ(a.best_fast_reward, b.best_fast_reward);
    EXPECT_EQ(a.iterations_run, b.iterations_run);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
      EXPECT_DOUBLE_EQ(a.trace[i].reward, b.trace[i].reward);
      EXPECT_TRUE(a.trace[i].candidate == b.trace[i].candidate) << "trace " << i;
    }
    ASSERT_EQ(a.finalists.size(), b.finalists.size());
    for (std::size_t i = 0; i < a.finalists.size(); ++i) {
      EXPECT_TRUE(a.finalists[i].candidate == b.finalists[i].candidate)
          << "finalist " << i;
      EXPECT_DOUBLE_EQ(a.finalists[i].fast_reward, b.finalists[i].fast_reward);
      EXPECT_DOUBLE_EQ(a.finalists[i].accurate_reward,
                       b.finalists[i].accurate_reward);
    }
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
      EXPECT_TRUE(a.best->candidate == b.best->candidate);
    }
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<NetworkSkeleton> skeleton_;
  static std::unique_ptr<FastEvaluator> fast_;
  static std::unique_ptr<AccurateEvaluator> accurate_;
};

std::unique_ptr<DesignSpace> ParallelSearchTest::space_;
std::unique_ptr<NetworkSkeleton> ParallelSearchTest::skeleton_;
std::unique_ptr<FastEvaluator> ParallelSearchTest::fast_;
std::unique_ptr<AccurateEvaluator> ParallelSearchTest::accurate_;

TEST_F(ParallelSearchTest, BatchMatchesSerialEvaluation) {
  // 90 misses span three pipeline chunks (kPipelineChunk = 32) with a
  // ragged tail, so the double-buffered stages and the chunk hand-off are
  // all exercised; the appended repeats exercise in-batch dedupe.
  Rng rng(4);
  std::vector<CandidateDesign> batch;
  for (int i = 0; i < 90; ++i) batch.push_back(space_->random_candidate(rng));
  batch.push_back(batch[2]);
  batch.push_back(batch[7]);
  batch.push_back(batch[40]);  // revisit from a later chunk
  for (std::size_t threads : {1u, 3u, 8u}) {
    fast_->set_exec_context(ExecContext::create(threads));
    fast_->clear_cache();
    const std::vector<EvalResult> results = fast_->evaluate_batch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EvalResult serial = fast_->evaluate(batch[i]);
      EXPECT_DOUBLE_EQ(results[i].accuracy, serial.accuracy) << i;
      EXPECT_DOUBLE_EQ(results[i].latency_ms, serial.latency_ms) << i;
      EXPECT_DOUBLE_EQ(results[i].energy_mj, serial.energy_mj) << i;
    }
  }
}

TEST_F(ParallelSearchTest, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(fast_->evaluate_batch({}).empty());
  EXPECT_TRUE(accurate_->evaluate_batch({}).empty());
}

TEST_F(ParallelSearchTest, MemoizationCachesDistinctDesigns) {
  fast_->set_exec_context(ExecContext::create(2));
  EXPECT_EQ(fast_->parallelism(), 2u);
  fast_->clear_cache();
  Rng rng(6);
  std::vector<CandidateDesign> unique;
  for (int i = 0; i < 10; ++i)
    unique.push_back(space_->random_candidate(rng));
  std::vector<CandidateDesign> batch = unique;  // every design twice
  batch.insert(batch.end(), unique.begin(), unique.end());
  fast_->evaluate_batch(batch);
  EXPECT_EQ(fast_->cache_size(), 10u);
  fast_->evaluate_batch(batch);  // pure cache hits
  EXPECT_EQ(fast_->cache_size(), 10u);
}

TEST_F(ParallelSearchTest, CacheContentsIndependentOfThreadCount) {
  // The insert log is merged in proposal order on the coordinator, so after
  // an over-capacity-free run the cache holds exactly the distinct designs —
  // the same set at every thread count.
  Rng rng(17);
  std::vector<CandidateDesign> batch;
  for (int i = 0; i < 70; ++i) batch.push_back(space_->random_candidate(rng));
  std::vector<std::size_t> sizes;
  for (std::size_t threads : {1u, 2u, 8u}) {
    fast_->set_exec_context(ExecContext::create(threads));
    fast_->clear_cache();
    fast_->evaluate_batch(batch);
    sizes.push_back(fast_->cache_size());
    // A second pass must be pure hits: the cache grew identically.
    fast_->evaluate_batch(batch);
    EXPECT_EQ(fast_->cache_size(), sizes.back()) << threads;
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[0], sizes[2]);
  EXPECT_EQ(sizes[0], 70u);
}

TEST_F(ParallelSearchTest, YosoSearchIdenticalAcrossThreadCounts) {
  SearchOptions opt = base_options();
  opt.batch_size = 8;
  fast_->clear_cache();
  const SearchResult r1 = YosoSearch(*space_, opt).run(
      *fast_, accurate_.get(), ExecContext::create(1));
  fast_->clear_cache();
  const SearchResult r2 = YosoSearch(*space_, opt).run(
      *fast_, accurate_.get(), ExecContext::create(2));
  fast_->clear_cache();
  const SearchResult r8 = YosoSearch(*space_, opt).run(
      *fast_, accurate_.get(), ExecContext::create(8));
  expect_identical(r1, r2);
  expect_identical(r1, r8);
}

TEST_F(ParallelSearchTest, RandomSearchIdenticalAcrossThreadsAndBatches) {
  SearchOptions opt = base_options();
  opt.batch_size = 1;
  fast_->clear_cache();
  const SearchResult serial = RandomSearchDriver(*space_, opt).run(
      *fast_, nullptr, ExecContext::create(1));
  // Random proposals are feedback-free, so even the batch size must not
  // change the outcome — only the evaluation schedule.
  opt.batch_size = 16;
  fast_->clear_cache();
  const SearchResult batched = RandomSearchDriver(*space_, opt).run(
      *fast_, nullptr, ExecContext::create(4));
  expect_identical(serial, batched);
}

TEST_F(ParallelSearchTest, BatchSizeOneMatchesLegacySerialLoop) {
  // batch_size = 1 must reproduce the pre-batching proposal/feedback
  // interleaving exactly, whatever the thread count.
  SearchOptions opt = base_options();
  opt.batch_size = 1;
  fast_->clear_cache();
  const SearchResult a = YosoSearch(*space_, opt).run(
      *fast_, nullptr, ExecContext::create(1));
  fast_->clear_cache();
  const SearchResult b = YosoSearch(*space_, opt).run(
      *fast_, nullptr, ExecContext::create(4));
  expect_identical(a, b);
}

TEST_F(ParallelSearchTest, SharedExecContextServesBothEvaluators) {
  // One context injected via run() must land in both evaluators — the
  // Fast+Accurate pair shares the pool instead of oversubscribing — and the
  // result must match a serial run bit for bit.  The Step-3 rerank fans the
  // accurate evaluator out over the same pool right after the fast batches
  // used it, which would deadlock or trip the nested-parallel_for contract
  // if the hand-off leaked.
  SearchOptions opt = base_options();
  opt.batch_size = 8;
  const ExecContextPtr shared = ExecContext::create(3);
  fast_->clear_cache();
  const SearchResult r = YosoSearch(*space_, opt).run(
      *fast_, accurate_.get(), shared);
  EXPECT_EQ(fast_->parallelism(), 3u);
  ASSERT_TRUE(r.best.has_value());
  fast_->clear_cache();
  const SearchResult serial = YosoSearch(*space_, opt).run(
      *fast_, accurate_.get(), ExecContext::create(1));
  expect_identical(serial, r);
}

TEST_F(ParallelSearchTest, AltDriversRunThroughSharedBase) {
  SearchOptions opt = base_options();
  opt.iterations = 60;
  const ExecContextPtr exec = ExecContext::create(2);
  const SearchResult evo =
      EvolutionarySearch(*space_, opt).run(*fast_, accurate_.get(), exec);
  EXPECT_EQ(evo.iterations_run, 60u);
  ASSERT_TRUE(evo.best.has_value());
  BayesOptOptions bopt;
  bopt.initial_random = 15;
  bopt.acquisition_pool = 8;
  const SearchResult bo =
      BayesOptSearch(*space_, opt, bopt).run(*fast_, accurate_.get(), exec);
  EXPECT_EQ(bo.iterations_run, 60u);
  ASSERT_TRUE(bo.best.has_value());
}

// ---------------------------------------------------------------- bugfix

/// Evaluator whose reward is negative for every candidate under a
/// penalty-heavy Eq. 2 parametrisation.
class FixedEvaluator : public Evaluator {
 public:
  explicit FixedEvaluator(EvalResult r) : result_(r) {}
  EvalResult evaluate(const CandidateDesign&) override { return result_; }

 private:
  EvalResult result_;
};

TEST(BestFastReward, ReportsNegativeBestInsteadOfZero) {
  // Large penalty terms make every reward negative; the old 0.0-initialised
  // best_fast_reward silently reported 0 here.
  RewardParams reward = balanced_reward();
  reward.alpha_lat = -4.0;  // pure-penalty latency term
  reward.alpha_eer = -4.0;
  FixedEvaluator fixed({0.5, 2.0, 18.0});
  const double expected = reward.compute({0.5, 2.0, 18.0});
  ASSERT_LT(expected, 0.0);

  DesignSpace space;
  SearchOptions opt;
  opt.iterations = 20;
  opt.top_n = 3;
  opt.reward = reward;
  opt.seed = 3;
  const SearchResult r = RandomSearchDriver(space, opt).run(fixed, nullptr);
  EXPECT_DOUBLE_EQ(r.best_fast_reward, expected);
  EXPECT_LT(r.best_fast_reward, 0.0);
}

TEST(BestFastReward, DefaultIsMinusInfinity) {
  const SearchResult r;
  EXPECT_TRUE(std::isinf(r.best_fast_reward));
  EXPECT_LT(r.best_fast_reward, 0.0);
}

}  // namespace
}  // namespace yoso
