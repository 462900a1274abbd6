#include <gtest/gtest.h>
#include <string>

#include "accel/config.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "arch/ops.h"
#include "core/design_space.h"
#include "core/serialize.h"
#include "util/rng.h"

namespace yoso {
namespace {

TEST(Serialize, CellRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const CellGenotype cell = random_cell(rng);
    EXPECT_EQ(parse_cell(serialize_cell(cell)), cell);
  }
}

TEST(Serialize, GenotypeRoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const Genotype g = random_genotype(rng);
    EXPECT_EQ(parse_genotype(serialize_genotype(g)), g);
  }
}

TEST(Serialize, GenotypeFormatIsStable) {
  Genotype g;
  for (int n = 0; n < kInteriorNodes; ++n) {
    g.normal.nodes.push_back({0, 1, Op::kConv3x3, Op::kMaxPool3x3});
    g.reduction.nodes.push_back({n, n + 1, Op::kDwConv5x5, Op::kAvgPool3x3});
  }
  const std::string s = serialize_genotype(g);
  EXPECT_EQ(s.rfind("normal=0,1,conv3x3,maxpool3x3;", 0), 0u);
  EXPECT_NE(s.find("|reduction=0,1,dwconv5x5,avgpool3x3;"), std::string::npos);
}

TEST(Serialize, ParseCellRejectsMalformed) {
  EXPECT_THROW(parse_cell(""), std::invalid_argument);
  EXPECT_THROW(parse_cell("0,1,conv3x3"), std::invalid_argument);
  EXPECT_THROW(parse_cell("0,1,conv3x3,notanop;0,1,conv3x3,conv3x3"),
               std::invalid_argument);
  EXPECT_THROW(parse_cell("x,1,conv3x3,conv3x3"), std::invalid_argument);
}

TEST(Serialize, ParseCellRejectsInvalidStructure) {
  // Right syntax, wrong node count.
  EXPECT_THROW(parse_cell("0,1,conv3x3,conv3x3"), std::invalid_argument);
  // Forward reference in an otherwise complete cell.
  std::string text;
  for (int n = 0; n < kInteriorNodes; ++n) {
    if (n > 0) text += ";";
    text += "0,6,conv3x3,conv3x3";  // node 2 cannot read node 6
  }
  EXPECT_THROW(parse_cell(text), std::invalid_argument);
}

TEST(Serialize, ParseGenotypeRejectsMissingParts) {
  EXPECT_THROW(parse_genotype("normal=0,1,conv3x3,conv3x3"),
               std::invalid_argument);
  EXPECT_THROW(parse_genotype("foo=x|reduction=y"), std::invalid_argument);
}

TEST(Serialize, ConfigRoundTrip) {
  const ConfigSpace space = default_config_space();
  for (const AcceleratorConfig& c : space.enumerate())
    EXPECT_EQ(parse_accelerator_config(c.to_string()), c);
}

TEST(Serialize, ConfigParsesPaperNotation) {
  const AcceleratorConfig c = parse_accelerator_config("16*32/512KB/512B/OS");
  EXPECT_EQ(c.pe_rows, 16);
  EXPECT_EQ(c.pe_cols, 32);
  EXPECT_EQ(c.g_buf_kb, 512);
  EXPECT_EQ(c.r_buf_bytes, 512);
  EXPECT_EQ(c.dataflow, Dataflow::kOutputStationary);
}

TEST(Serialize, ConfigAcceptsLowercaseUnits) {
  const AcceleratorConfig c = parse_accelerator_config("8*8/108kb/64b/NLR");
  EXPECT_EQ(c.g_buf_kb, 108);
  EXPECT_EQ(c.r_buf_bytes, 64);
}

TEST(Serialize, ConfigRejectsMalformed) {
  EXPECT_THROW(parse_accelerator_config(""), std::invalid_argument);
  EXPECT_THROW(parse_accelerator_config("16x32/512KB/512B/OS"),
               std::invalid_argument);
  EXPECT_THROW(parse_accelerator_config("16*32/512/512B/OS"),
               std::invalid_argument);
  EXPECT_THROW(parse_accelerator_config("16*32/512KB/512B/XX"),
               std::invalid_argument);
  EXPECT_THROW(parse_accelerator_config("16*32/512KB/512B"),
               std::invalid_argument);
  EXPECT_THROW(parse_accelerator_config("-4*32/512KB/512B/OS"),
               std::invalid_argument);
}

TEST(Serialize, CandidateRoundTrip) {
  DesignSpace space;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    EXPECT_EQ(parse_candidate(serialize_candidate(c)), c);
  }
}

TEST(Serialize, SearchedSkeletonCandidateRoundTrip) {
  // A searched-space candidate carries its skeleton choice through the
  // text form; the fixed-space text is unchanged (no suffix).
  DesignSpace searched(default_config_space(), SkeletonAxis::kSearched);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const CandidateDesign c = searched.random_candidate(rng);
    ASSERT_TRUE(c.skeleton.is_set());
    const std::string text = serialize_candidate(c);
    EXPECT_EQ(parse_candidate(text), c) << text;
  }
  CandidateDesign c = searched.random_candidate(rng);
  c.skeleton = {2, 1};  // 3 normal cells per stage, 24 stem channels
  const std::string text = serialize_candidate(c);
  EXPECT_EQ(text.substr(text.size() - 5), "#3x24");
  c.skeleton = {};
  EXPECT_EQ(serialize_candidate(c), text.substr(0, text.size() - 5));
}

TEST(Serialize, SkeletonSuffixRangeChecked) {
  DesignSpace space;
  Rng rng(5);
  const std::string base = serialize_candidate(space.random_candidate(rng));
  EXPECT_NO_THROW(parse_candidate(base + "#1x16"));
  for (const char* bad : {"#4x24", "#0x24", "#2x20", "#2", "#2x24x1", "#ax24",
                          "#"})
    EXPECT_THROW(parse_candidate(base + bad), std::invalid_argument) << bad;
  CandidateDesign c = space.random_candidate(rng);
  c.skeleton = {3, 0};
  EXPECT_THROW(serialize_candidate(c), std::invalid_argument);
}

TEST(Serialize, CandidateRejectsMissingSeparator) {
  EXPECT_THROW(parse_candidate("no-at-sign-here"), std::invalid_argument);
}

}  // namespace
}  // namespace yoso
