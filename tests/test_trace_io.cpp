#include <gtest/gtest.h>
#include <sstream>

#include "arch/network.h"
#include "core/design_space.h"
#include "core/search.h"
#include "core/serialize.h"
#include "core/trace_io.h"
#include "util/rng.h"

namespace yoso {
namespace {

SearchResult make_result(std::size_t points) {
  DesignSpace space;
  Rng rng(7);
  SearchResult r;
  for (std::size_t i = 0; i < points; ++i) {
    SearchTracePoint p;
    p.iteration = i * 10;
    p.reward = 1.0 + 0.01 * static_cast<double>(i);
    p.result = {0.95, 0.8, 5.0 + static_cast<double>(i)};
    p.candidate = space.random_candidate(rng);
    r.trace.push_back(std::move(p));

    RankedCandidate f;
    f.candidate = space.random_candidate(rng);
    f.fast_reward = 2.0;
    f.accurate_reward = 1.9;
    f.accurate_result = {0.96, 0.7, 4.5};
    f.feasible = i % 2 == 0;
    r.finalists.push_back(std::move(f));
  }
  return r;
}

TEST(TraceIo, RoundTrip) {
  const SearchResult r = make_result(5);
  std::ostringstream os;
  write_trace_csv(os, r);
  std::istringstream is(os.str());
  const auto trace = read_trace_csv(is);
  ASSERT_EQ(trace.size(), r.trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].iteration, r.trace[i].iteration);
    EXPECT_NEAR(trace[i].reward, r.trace[i].reward, 1e-9);
    EXPECT_NEAR(trace[i].result.energy_mj, r.trace[i].result.energy_mj, 1e-9);
    EXPECT_EQ(trace[i].candidate, r.trace[i].candidate);
  }
}

TEST(TraceIo, RoundTripKeepsSkeletonChoice) {
  // Searched-space designs read back as the same designs, skeleton
  // included, from both the trace and the finalists CSV.
  DesignSpace searched(default_config_space(), SkeletonAxis::kSearched);
  Rng rng(9);
  SearchResult r = make_result(4);
  for (SearchTracePoint& p : r.trace)
    p.candidate = searched.random_candidate(rng);
  for (RankedCandidate& f : r.finalists)
    f.candidate = searched.random_candidate(rng);
  std::ostringstream os;
  write_trace_csv(os, r);
  std::istringstream is(os.str());
  const auto trace = read_trace_csv(is);
  ASSERT_EQ(trace.size(), r.trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(trace[i].candidate.skeleton.is_set());
    EXPECT_EQ(trace[i].candidate, r.trace[i].candidate);
  }
  std::ostringstream fs;
  write_finalists_csv(fs, r);
  std::istringstream fis(fs.str());
  std::string line;
  std::getline(fis, line);  // header
  for (const RankedCandidate& f : r.finalists) {
    ASSERT_TRUE(std::getline(fis, line));
    // The candidate is the last field and the only one after the 7th comma.
    std::size_t pos = 0;
    for (int c = 0; c < 7; ++c) pos = line.find(',', pos) + 1;
    EXPECT_EQ(parse_candidate(line.substr(pos)), f.candidate);
  }
}

TEST(TraceIo, HeaderMismatchThrows) {
  std::istringstream is("bogus,header\n");
  EXPECT_THROW(read_trace_csv(is), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW(read_trace_csv(empty), std::invalid_argument);
}

TEST(TraceIo, MalformedRowNamesLine) {
  const SearchResult r = make_result(1);
  std::ostringstream os;
  write_trace_csv(os, r);
  const std::string text = os.str() + "not,enough\n";
  std::istringstream is(text);
  try {
    read_trace_csv(is);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceIo, BlankLinesSkipped) {
  const SearchResult r = make_result(2);
  std::ostringstream os;
  write_trace_csv(os, r);
  std::istringstream is(os.str() + "\n\n");
  EXPECT_EQ(read_trace_csv(is).size(), 2u);
}

TEST(TraceIo, FinalistsCsvWellFormed) {
  const SearchResult r = make_result(3);
  std::ostringstream os;
  write_finalists_csv(os, r);
  const std::string text = os.str();
  // Header + 3 rows.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(text.find("rank,fast_reward"), std::string::npos);
  EXPECT_NE(text.find("normal="), std::string::npos);
}

}  // namespace
}  // namespace yoso
