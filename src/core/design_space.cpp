#include "core/design_space.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "accel/config.h"
#include "arch/encoding.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "util/rng.h"

namespace yoso {

std::string candidate_key(const CandidateDesign& candidate) {
  std::string key;
  key.reserve(4 * 2 * kInteriorNodes + 9);
  const auto put8 = [&key](int v) { key.push_back(static_cast<char>(v)); };
  const auto put16 = [&key](int v) {
    key.push_back(static_cast<char>(v & 0xff));
    key.push_back(static_cast<char>((v >> 8) & 0xff));
  };
  for (const CellGenotype* cell :
       {&candidate.genotype.normal, &candidate.genotype.reduction}) {
    for (const NodeSpec& n : cell->nodes) {
      put8(n.input_a);
      put8(n.input_b);
      put8(static_cast<int>(n.op_a));
      put8(static_cast<int>(n.op_b));
    }
  }
  put8(candidate.config.pe_rows);
  put8(candidate.config.pe_cols);
  put16(candidate.config.g_buf_kb);
  put16(candidate.config.r_buf_bytes);
  put8(static_cast<int>(candidate.config.dataflow));
  // Fixed-skeleton keys are unchanged; a set choice appends two bytes, so
  // the two kinds never collide.
  if (candidate.skeleton.is_set()) {
    put8(candidate.skeleton.normals);
    put8(candidate.skeleton.stem);
  }
  return key;
}

namespace {

constexpr int kSkeletonActions = 2;
constexpr int kNormalsCard = static_cast<int>(kSearchedNormalsPerStage.size());
constexpr int kStemCard = static_cast<int>(kSearchedStemChannels.size());

}  // namespace

DesignSpace::DesignSpace(ConfigSpace config_space, SkeletonAxis skeleton_axis)
    : config_space_(std::move(config_space)),
      skeleton_axis_(skeleton_axis),
      dnn_steps_(dnn_action_steps()) {}

int DesignSpace::num_actions() const {
  return kDnnActionCount + ConfigSpace::kActionCount +
         (skeleton_axis_ == SkeletonAxis::kSearched ? kSkeletonActions : 0);
}

std::vector<int> DesignSpace::cardinalities() const {
  std::vector<int> cards;
  cards.reserve(static_cast<std::size_t>(num_actions()));
  for (const ActionStep& s : dnn_steps_) cards.push_back(s.cardinality);
  for (int a = 0; a < ConfigSpace::kActionCount; ++a)
    cards.push_back(config_space_.cardinality(a));
  if (skeleton_axis_ == SkeletonAxis::kSearched) {
    cards.push_back(kNormalsCard);
    cards.push_back(kStemCard);
  }
  return cards;
}

std::vector<std::string> DesignSpace::action_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(num_actions()));
  for (const ActionStep& s : dnn_steps_) names.push_back(s.name);
  names.push_back("hw.pe_shape");
  names.push_back("hw.g_buf");
  names.push_back("hw.r_buf");
  names.push_back("hw.dataflow");
  if (skeleton_axis_ == SkeletonAxis::kSearched) {
    names.push_back("skel.normals_per_stage");
    names.push_back("skel.stem_channels");
  }
  return names;
}

CandidateDesign DesignSpace::decode(const std::vector<int>& actions) const {
  if (actions.size() != static_cast<std::size_t>(num_actions()))
    throw std::invalid_argument("DesignSpace::decode: expected " +
                                std::to_string(num_actions()) + " actions");
  CandidateDesign c;
  c.genotype = decode_genotype(
      std::span<const int>(actions).first(kDnnActionCount));
  const auto hw_begin = actions.begin() + kDnnActionCount;
  const std::vector<int> hw(hw_begin, hw_begin + ConfigSpace::kActionCount);
  c.config = config_space_.decode(hw);
  if (skeleton_axis_ == SkeletonAxis::kSearched) {
    const int normals = actions[actions.size() - 2];
    const int stem = actions.back();
    YOSO_REQUIRE(normals >= 0 && normals < kNormalsCard && stem >= 0 &&
                     stem < kStemCard,
                 "DesignSpace::decode: skeleton actions (", normals, ", ",
                 stem, ") out of range");
    c.skeleton = {static_cast<std::int8_t>(normals),
                  static_cast<std::int8_t>(stem)};
  }
  return c;
}

std::vector<int> DesignSpace::encode(const CandidateDesign& candidate) const {
  const bool searched = skeleton_axis_ == SkeletonAxis::kSearched;
  if (candidate.skeleton.is_set() != searched)
    throw std::invalid_argument(
        "DesignSpace::encode: skeleton choice does not match the space");
  std::vector<int> actions = encode_genotype(candidate.genotype);
  for (int a : config_space_.encode(candidate.config)) actions.push_back(a);
  if (searched) {
    actions.push_back(candidate.skeleton.normals);
    actions.push_back(candidate.skeleton.stem);
  }
  return actions;
}

CandidateDesign DesignSpace::random_candidate(Rng& rng) const {
  CandidateDesign c;
  c.genotype = random_genotype(rng);
  std::vector<int> hw(ConfigSpace::kActionCount);
  for (int a = 0; a < ConfigSpace::kActionCount; ++a)
    hw[static_cast<std::size_t>(a)] =
        rng.uniform_int(0, config_space_.cardinality(a) - 1);
  c.config = config_space_.decode(hw);
  // Skeleton draws come after the config draws, so a fixed space consumes
  // exactly the stream it always has.
  if (skeleton_axis_ == SkeletonAxis::kSearched)
    c.skeleton = random_skeleton_choice(rng);
  return c;
}

double DesignSpace::log10_size() const {
  double size = std::log10(genotype_space_size()) +
                std::log10(static_cast<double>(config_space_.size()));
  if (skeleton_axis_ == SkeletonAxis::kSearched)
    size += std::log10(static_cast<double>(kNormalsCard * kStemCard));
  return size;
}

}  // namespace yoso
