// The searched skeleton axis (Table 1's <N_Cells, R_cells> plus stem width)
// of the one DesignSpace: 46-action encoding, skeleton resolution in both
// evaluators and in Step-1 sampling, and the full search stack — memo,
// pipeline, threads, refinement and every driver — on the searched space.

#include <gtest/gtest.h>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "core/alt_search.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace yoso {
namespace {

DesignSpace searched_space() {
  return DesignSpace(default_config_space(), SkeletonAxis::kSearched);
}

TEST(SkeletonSpace, FortySixActions) {
  const DesignSpace space = searched_space();
  EXPECT_EQ(space.num_actions(), 46);
  const auto cards = space.cardinalities();
  ASSERT_EQ(cards.size(), 46u);
  EXPECT_EQ(cards[44], 3);  // normal cells per stage {1,2,3}
  EXPECT_EQ(cards[45], 3);  // stem channels {16,24,32}
  EXPECT_EQ(space.action_names().size(), 46u);
  // The fixed space keeps its 44 cardinalities.
  const std::vector<int> fixed = DesignSpace().cardinalities();
  EXPECT_EQ(std::vector<int>(cards.begin(), cards.begin() + 44), fixed);
  EXPECT_GT(space.log10_size(), DesignSpace().log10_size());
}

TEST(SkeletonSpace, SkeletonForBuildsPaperPattern) {
  const NetworkSkeleton& s = skeleton_for(SkeletonChoice{1, 2});
  // Two normals per stage, stem 32: N N R N N R.
  ASSERT_EQ(s.cells.size(), 6u);
  EXPECT_EQ(s.cells[0], CellKind::kNormal);
  EXPECT_EQ(s.cells[1], CellKind::kNormal);
  EXPECT_EQ(s.cells[2], CellKind::kReduction);
  EXPECT_EQ(s.cells[3], CellKind::kNormal);
  EXPECT_EQ(s.cells[5], CellKind::kReduction);
  EXPECT_EQ(s.stem_channels, 32);
  EXPECT_EQ(s.input_height, default_skeleton().input_height);
  // One normal per stage: N R N R; three: N N N R N N N R.
  EXPECT_EQ(skeleton_for(SkeletonChoice{0, 0}).cells.size(), 4u);
  EXPECT_EQ(skeleton_for(SkeletonChoice{2, 0}).cells.size(), 8u);
  // Resolution returns the table entry, or the fallback when unset.
  EXPECT_EQ(&resolve_skeleton(SkeletonChoice{1, 2}, default_skeleton()), &s);
  const NetworkSkeleton tiny = tiny_skeleton();
  EXPECT_EQ(&resolve_skeleton(SkeletonChoice{}, tiny), &tiny);
}

TEST(SkeletonSpace, EncodeDecodeRoundTrip) {
  const DesignSpace space = searched_space();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    ASSERT_TRUE(c.skeleton.is_set());
    const auto actions = space.encode(c);
    ASSERT_EQ(actions.size(), 46u);
    EXPECT_TRUE(space.decode(actions) == c);
  }
}

TEST(SkeletonSpace, DecodeRejectsWrongLength) {
  const DesignSpace space = searched_space();
  EXPECT_THROW(space.decode(std::vector<int>(44, 0)), std::invalid_argument);
  EXPECT_THROW(DesignSpace().decode(std::vector<int>(46, 0)),
               std::invalid_argument);
}

TEST(SkeletonSpace, EncodeRejectsMismatchedChoice) {
  Rng rng(4);
  CandidateDesign c = DesignSpace().random_candidate(rng);
  EXPECT_FALSE(c.skeleton.is_set());
  EXPECT_THROW(searched_space().encode(c), std::invalid_argument);
  c.skeleton = SkeletonChoice{0, 1};
  EXPECT_THROW(DesignSpace().encode(c), std::invalid_argument);
}

TEST(SkeletonSpace, RandomCandidatesCoverSkeletons) {
  const DesignSpace space = searched_space();
  Rng rng(5);
  std::set<std::size_t> cell_counts;
  std::set<int> stems;
  for (int i = 0; i < 100; ++i) {
    const NetworkSkeleton& s =
        skeleton_for(space.random_candidate(rng).skeleton);
    cell_counts.insert(s.cells.size());
    stems.insert(s.stem_channels);
  }
  EXPECT_EQ(cell_counts.size(), 3u);  // 4, 6, 8 cells
  EXPECT_EQ(stems.size(), 3u);
}

TEST(SkeletonSpace, SearchedDrawsExtendTheFixedStream) {
  // The skeleton draws come after the config draws, so a searched space's
  // genotype and config stream matches the fixed space's first draw.
  Rng fixed_rng(8);
  Rng searched_rng(8);
  const CandidateDesign fixed = DesignSpace().random_candidate(fixed_rng);
  const CandidateDesign searched =
      searched_space().random_candidate(searched_rng);
  EXPECT_TRUE(fixed.genotype == searched.genotype);
  EXPECT_TRUE(fixed.config == searched.config);
}

TEST(SkeletonSpace, CandidateKeyCoversTheChoice) {
  Rng rng(6);
  CandidateDesign c = DesignSpace().random_candidate(rng);
  const std::string fixed_key = candidate_key(c);
  c.skeleton = SkeletonChoice{0, 2};
  const std::string a = candidate_key(c);
  c.skeleton = SkeletonChoice{2, 0};
  const std::string b = candidate_key(c);
  // A set choice appends its two indices to the unchanged fixed-space key.
  EXPECT_EQ(a.size(), fixed_key.size() + 2);
  EXPECT_EQ(a.substr(0, fixed_key.size()), fixed_key);
  EXPECT_NE(a, b);
}

TEST(SkeletonSpace, Step1SamplesDrawTheirOwnSkeletons) {
  const SystolicSimulator sim({}, SimFidelity::kAnalytical);
  Rng fixed_rng(12);
  const auto fixed = collect_samples(30, sim, default_config_space(),
                                     default_skeleton(), fixed_rng);
  for (const PerfSample& s : fixed) EXPECT_FALSE(s.skeleton.is_set());
  Rng rng(12);
  const auto samples =
      collect_samples(60, sim, default_config_space(), default_skeleton(),
                      rng, nullptr, SkeletonAxis::kSearched);
  // A sample's draws are genotype, config, then skeleton: the first
  // sample's design matches the fixed stream's first sample.
  EXPECT_TRUE(samples.front().genotype == fixed.front().genotype);
  EXPECT_TRUE(samples.front().config == fixed.front().config);
  std::set<int> normals;
  std::set<int> stems;
  for (const PerfSample& s : samples) {
    ASSERT_TRUE(s.skeleton.is_set());
    normals.insert(s.skeleton.normals);
    stems.insert(s.skeleton.stem);
    const SimulationResult r = sim.simulate_network(
        s.genotype, skeleton_for(s.skeleton), s.config);
    EXPECT_EQ(s.latency_ms, r.latency_ms);
    EXPECT_EQ(s.energy_mj, r.energy_mj);
  }
  EXPECT_EQ(normals.size(), 3u);
  EXPECT_EQ(stems.size(), 3u);
}

class SkeletonSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>(searched_space());
    SystolicSimulator sim({}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<FastEvaluator>(
        *space_, default_skeleton(), sim,
        FastEvaluatorOptions{.predictor_samples = 180, .seed = 7});
    accurate_ = std::make_unique<AccurateEvaluator>(
        default_skeleton(), SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    fast_.reset();
    space_.reset();
  }

  static SearchOptions options() {
    SearchOptions opt;
    opt.iterations = 96;
    opt.top_n = 5;
    opt.trace_every = 4;
    opt.reward = energy_opt_reward();
    opt.seed = 13;
    return opt;
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<FastEvaluator> fast_;
  static std::unique_ptr<AccurateEvaluator> accurate_;
};

std::unique_ptr<DesignSpace> SkeletonSearchTest::space_;
std::unique_ptr<FastEvaluator> SkeletonSearchTest::fast_;
std::unique_ptr<AccurateEvaluator> SkeletonSearchTest::accurate_;

TEST_F(SkeletonSearchTest, EvaluatorsRespondToSkeleton) {
  Rng rng(9);
  CandidateDesign c = space_->random_candidate(rng);
  c.skeleton = SkeletonChoice{0, 0};  // smallest
  const EvalResult small = accurate_->evaluate(c);
  c.skeleton = SkeletonChoice{2, 2};  // largest
  const EvalResult large = accurate_->evaluate(c);
  EXPECT_GT(large.energy_mj, small.energy_mj);
  EXPECT_GT(large.latency_ms, small.latency_ms);
  // Bigger skeleton -> better (or equal) accuracy in the surrogate.
  EXPECT_GE(large.accuracy, small.accuracy - 0.02);
  // The skeleton is simulated, not the evaluator's own.
  const SimulationResult sim =
      accurate_->simulator().simulate_network(
          c.genotype, skeleton_for(c.skeleton), c.config);
  EXPECT_EQ(large.energy_mj, sim.energy_mj);
}

TEST_F(SkeletonSearchTest, FastPredictorTracksSkeletonScale) {
  Rng rng(11);
  CandidateDesign c = space_->random_candidate(rng);
  c.skeleton = SkeletonChoice{0, 0};
  const EvalResult small = fast_->evaluate(c);
  c.skeleton = SkeletonChoice{2, 2};
  const EvalResult large = fast_->evaluate(c);
  EXPECT_GT(large.energy_mj, small.energy_mj);
  EXPECT_NE(large.accuracy, small.accuracy);
}

TEST_F(SkeletonSearchTest, UnsetChoiceScoresOnTheEvaluatorSkeleton) {
  Rng rng(14);
  CandidateDesign c = DesignSpace().random_candidate(rng);
  const EvalResult unset = fast_->evaluate(c);
  c.skeleton = SkeletonChoice{1, 1};  // equals default_skeleton()
  const EvalResult same = fast_->evaluate(c);
  EXPECT_EQ(unset.accuracy, same.accuracy);
  EXPECT_EQ(unset.latency_ms, same.latency_ms);
  EXPECT_EQ(unset.energy_mj, same.energy_mj);
}

TEST_F(SkeletonSearchTest, SkeletonOnlyDifferenceGetsDistinctMemoEntries) {
  Rng rng(15);
  CandidateDesign a = space_->random_candidate(rng);
  a.skeleton = SkeletonChoice{0, 0};
  CandidateDesign b = a;
  b.skeleton = SkeletonChoice{2, 2};
  EXPECT_NE(candidate_key(a), candidate_key(b));
  fast_->clear_cache();
  const std::vector<CandidateDesign> batch = {a, b, a, b};
  const std::vector<EvalResult> r = fast_->evaluate_batch(batch);
  EXPECT_EQ(fast_->cache_size(), 2u);
  EXPECT_NE(r[0].energy_mj, r[1].energy_mj);
  EXPECT_EQ(r[2].energy_mj, r[0].energy_mj);
  EXPECT_EQ(r[3].energy_mj, r[1].energy_mj);
  // The memo hit path serves the same results on the next batch.
  const std::vector<EvalResult> again = fast_->evaluate_batch(batch);
  EXPECT_EQ(again[1].latency_ms, r[1].latency_ms);
}

TEST_F(SkeletonSearchTest, BatchMatchesSerialEvaluation) {
  Rng rng(16);
  std::vector<CandidateDesign> batch;
  for (int i = 0; i < 70; ++i) batch.push_back(space_->random_candidate(rng));
  for (std::size_t threads : {1u, 3u}) {
    fast_->set_exec_context(ExecContext::create(threads));
    fast_->clear_cache();
    const std::vector<EvalResult> results = fast_->evaluate_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EvalResult serial = fast_->evaluate(batch[i]);
      EXPECT_DOUBLE_EQ(results[i].accuracy, serial.accuracy) << i;
      EXPECT_DOUBLE_EQ(results[i].latency_ms, serial.latency_ms) << i;
      EXPECT_DOUBLE_EQ(results[i].energy_mj, serial.energy_mj) << i;
    }
  }
  fast_->set_exec_context(nullptr);
}

TEST_F(SkeletonSearchTest, SearchRunsAndReranks) {
  SearchOptions opt = options();
  opt.iterations = 150;
  const SearchResult r = YosoSearch(*space_, opt).run(*fast_, accurate_.get());
  EXPECT_EQ(r.iterations_run, 150u);
  EXPECT_FALSE(r.finalists.empty());
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.best->candidate.skeleton.is_set());
  EXPECT_GT(r.best_fast_reward, 0.0);
  for (std::size_t i = 1; i < r.finalists.size(); ++i)
    EXPECT_GE(r.finalists[i - 1].accurate_reward,
              r.finalists[i].accurate_reward);
  // Finalists are scored on their own skeletons by the accurate evaluator.
  for (const RankedCandidate& f : r.finalists) {
    const EvalResult truth = accurate_->evaluate(f.candidate);
    EXPECT_EQ(f.accurate_result.energy_mj, truth.energy_mj);
  }
}

TEST_F(SkeletonSearchTest, YosoSearchBitIdenticalAcrossThreadCounts) {
  SearchOptions opt = options();
  opt.batch_size = 8;
  SearchResult runs[3];
  const std::size_t threads[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    fast_->clear_cache();
    runs[t] = YosoSearch(*space_, opt)
                  .run(*fast_, accurate_.get(),
                       ExecContext::create(threads[t]));
  }
  fast_->set_exec_context(nullptr);
  accurate_->set_exec_context(nullptr);
  for (int t = 1; t < 3; ++t) {
    const SearchResult& a = runs[0];
    const SearchResult& b = runs[t];
    EXPECT_EQ(a.best_fast_reward, b.best_fast_reward);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].reward, b.trace[i].reward) << "trace " << i;
      EXPECT_TRUE(a.trace[i].candidate == b.trace[i].candidate);
    }
    ASSERT_EQ(a.finalists.size(), b.finalists.size());
    for (std::size_t i = 0; i < a.finalists.size(); ++i) {
      EXPECT_TRUE(a.finalists[i].candidate == b.finalists[i].candidate);
      EXPECT_EQ(a.finalists[i].fast_reward, b.finalists[i].fast_reward);
      EXPECT_EQ(a.finalists[i].accurate_reward,
                b.finalists[i].accurate_reward);
    }
  }
}

TEST_F(SkeletonSearchTest, AlternativeDriversComplete) {
  SearchOptions opt = options();
  opt.iterations = 60;
  opt.batch_size = 4;
  std::vector<std::unique_ptr<SearchDriver>> drivers;
  drivers.push_back(std::make_unique<RandomSearchDriver>(*space_, opt));
  drivers.push_back(std::make_unique<EvolutionarySearch>(
      *space_, opt, EvolutionOptions{.population = 16, .tournament = 4}));
  drivers.push_back(std::make_unique<BayesOptSearch>(
      *space_, opt,
      BayesOptOptions{.initial_random = 20, .refit_every = 10,
                      .acquisition_pool = 16}));
  for (const auto& driver : drivers) {
    const SearchResult r = driver->run(*fast_, accurate_.get());
    EXPECT_EQ(r.iterations_run, 60u);
    ASSERT_TRUE(r.best.has_value());
    EXPECT_TRUE(r.best->candidate.skeleton.is_set());
  }
}

TEST(SkeletonSearchRefine, RefinementFoldsSearchedCandidates) {
  const DesignSpace space = searched_space();
  const SystolicSimulator sim({}, SimFidelity::kAnalytical);
  FastEvaluator fast(space, default_skeleton(), sim,
                     FastEvaluatorOptions{.predictor_samples = 120,
                                          .seed = 3,
                                          .predictor_backend =
                                              GpBackend::kSparse,
                                          .inducing_points = 64});
  AccurateEvaluator accurate(default_skeleton(), sim);
  SearchOptions opt;
  opt.iterations = 48;
  opt.batch_size = 8;
  opt.top_n = 4;
  opt.seed = 21;
  opt.predictor = GpBackend::kSparse;
  opt.inducing_points = 64;
  opt.refine_every = 16;
  const SearchResult r = YosoSearch(space, opt).run(fast, &accurate);
  EXPECT_EQ(r.refinements, 3u);
  EXPECT_EQ(fast.predictor().refinements(), 3u);
}

}  // namespace
}  // namespace yoso
