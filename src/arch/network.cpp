#include "arch/network.h"

#include <stdexcept>

#include "arch/genotype.h"
#include "arch/ops.h"
#include "base/contract.h"
#include "util/rng.h"

namespace yoso {

NetworkSkeleton default_skeleton() {
  NetworkSkeleton s;
  s.cells = {CellKind::kNormal, CellKind::kNormal, CellKind::kReduction,
             CellKind::kNormal, CellKind::kNormal, CellKind::kReduction};
  s.stem_channels = 24;
  s.input_height = 32;
  s.input_width = 32;
  s.input_channels = 3;
  s.num_classes = 10;
  return s;
}

NetworkSkeleton tiny_skeleton(int input_hw, int stem_channels) {
  NetworkSkeleton s;
  s.cells = {CellKind::kNormal, CellKind::kReduction};
  s.stem_channels = stem_channels;
  s.input_height = input_hw;
  s.input_width = input_hw;
  s.input_channels = 3;
  s.num_classes = 10;
  return s;
}

const NetworkSkeleton& skeleton_for(SkeletonChoice choice) {
  constexpr int kNormals = static_cast<int>(kSearchedNormalsPerStage.size());
  constexpr int kStems = static_cast<int>(kSearchedStemChannels.size());
  YOSO_REQUIRE(choice.normals >= 0 && choice.normals < kNormals &&
                   choice.stem >= 0 && choice.stem < kStems,
               "skeleton_for: choice (", int{choice.normals}, ", ",
               int{choice.stem}, ") out of range");
  static const auto table = [] {
    std::array<NetworkSkeleton,
               kSearchedNormalsPerStage.size() * kSearchedStemChannels.size()>
        t;
    for (std::size_t d = 0; d < kSearchedNormalsPerStage.size(); ++d) {
      for (std::size_t w = 0; w < kSearchedStemChannels.size(); ++w) {
        NetworkSkeleton& s = t[d * kSearchedStemChannels.size() + w];
        const auto normals =
            static_cast<std::size_t>(kSearchedNormalsPerStage[d]);
        s = default_skeleton();
        s.cells.assign(2 * (normals + 1), CellKind::kNormal);  // N^d R N^d R
        s.cells[normals] = CellKind::kReduction;
        s.cells.back() = CellKind::kReduction;
        s.stem_channels = kSearchedStemChannels[w];
      }
    }
    return t;
  }();
  return table[static_cast<std::size_t>(choice.normals * kStems + choice.stem)];
}

SkeletonChoice random_skeleton_choice(Rng& rng) {
  SkeletonChoice c;
  c.normals = static_cast<std::int8_t>(rng.uniform_int(
      0, static_cast<int>(kSearchedNormalsPerStage.size()) - 1));
  c.stem = static_cast<std::int8_t>(
      rng.uniform_int(0, static_cast<int>(kSearchedStemChannels.size()) - 1));
  return c;
}

std::int64_t Layer::macs() const {
  const auto oh = static_cast<std::int64_t>(out_h());
  const auto ow = static_cast<std::int64_t>(out_w());
  switch (kind) {
    case LayerKind::kConv:
      return oh * ow * kernel * kernel * in_c * out_c;
    case LayerKind::kDwConv:
      return oh * ow * kernel * kernel * in_c;
    case LayerKind::kPool:
      return 0;
    case LayerKind::kFullyConnected:
      return static_cast<std::int64_t>(in_c) * out_c;
  }
  throw std::logic_error("Layer::macs: invalid kind");
}

std::int64_t Layer::params() const {
  switch (kind) {
    case LayerKind::kConv:
      return static_cast<std::int64_t>(kernel) * kernel * in_c * out_c;
    case LayerKind::kDwConv:
      return static_cast<std::int64_t>(kernel) * kernel * in_c;
    case LayerKind::kPool:
      return 0;
    case LayerKind::kFullyConnected:
      return static_cast<std::int64_t>(in_c) * out_c + out_c;
  }
  throw std::logic_error("Layer::params: invalid kind");
}

std::int64_t Layer::input_accesses() const {
  const auto oh = static_cast<std::int64_t>(out_h());
  const auto ow = static_cast<std::int64_t>(out_w());
  switch (kind) {
    case LayerKind::kConv:
    case LayerKind::kDwConv:
    case LayerKind::kPool:
      return oh * ow * kernel * kernel * in_c;
    case LayerKind::kFullyConnected:
      return in_c;
  }
  throw std::logic_error("Layer::input_accesses: invalid kind");
}

std::int64_t Layer::output_elements() const {
  switch (kind) {
    case LayerKind::kFullyConnected:
      return out_c;
    default:
      return static_cast<std::int64_t>(out_h()) * out_w() * out_c;
  }
}

namespace {

/// Shape of a cell output as it flows between cells.
struct FeatureShape {
  int channels = 0;
  int h = 0;
  int w = 0;
};

}  // namespace

std::vector<Layer> extract_layers(const Genotype& g,
                                  const NetworkSkeleton& skeleton) {
  std::string error;
  if (!validate_genotype(g, &error))
    throw std::invalid_argument("extract_layers: invalid genotype: " + error);
  if (skeleton.cells.empty())
    throw std::invalid_argument("extract_layers: empty skeleton");

  std::vector<Layer> layers;
  // Stem + per-cell (2 preprocess + 2 ops per interior node) + GAP + FC.
  layers.reserve(3 + skeleton.cells.size() *
                         (2 + 2 * static_cast<std::size_t>(kInteriorNodes)));

  // Stem: 3x3 conv input_channels -> stem_channels.
  Layer stem;
  stem.kind = LayerKind::kConv;
  stem.in_h = skeleton.input_height;
  stem.in_w = skeleton.input_width;
  stem.in_c = skeleton.input_channels;
  stem.out_c = skeleton.stem_channels;
  stem.kernel = 3;
  stem.stride = 1;
  stem.name = "stem";
  layers.push_back(stem);

  FeatureShape prev{skeleton.stem_channels, skeleton.input_height,
                    skeleton.input_width};
  FeatureShape prev_prev = prev;

  int filters = skeleton.stem_channels;

  for (std::size_t ci = 0; ci < skeleton.cells.size(); ++ci) {
    const CellKind kind = skeleton.cells[ci];
    const bool reduce = kind == CellKind::kReduction;
    if (reduce) filters *= 2;
    const CellGenotype& cell = reduce ? g.reduction : g.normal;
    const std::string cell_tag = "cell" + std::to_string(ci);

    // Node spatial size inside this cell (after any reduction stride).
    const int node_h = reduce ? (prev.h + 1) / 2 : prev.h;
    const int node_w = reduce ? (prev.w + 1) / 2 : prev.w;

    // Preprocessing 1x1 convs map both inputs to `filters` channels and,
    // when the previous cell reduced, also align node-0's spatial size.
    auto add_preprocess = [&](const FeatureShape& src, int target_h,
                              const char* tag) {
      Layer pre;
      pre.kind = LayerKind::kConv;
      pre.in_h = src.h;
      pre.in_w = src.w;
      pre.in_c = src.channels;
      pre.out_c = filters;
      pre.kernel = 1;
      pre.stride = src.h > target_h ? 2 : 1;
      pre.name = cell_tag + ".pre" + tag;
      layers.push_back(pre);
    };
    add_preprocess(prev_prev, prev.h, "0");
    add_preprocess(prev, prev.h, "1");

    // Interior nodes: every op works on `filters` channels.  In a reduction
    // cell, edges reading node 0 or 1 (the cell inputs) have stride 2.
    for (int n = 0; n < kInteriorNodes; ++n) {
      const NodeSpec& spec = cell.nodes[static_cast<std::size_t>(n)];
      const int node_index = n + 2;
      auto add_op = [&](Op op, int input_node, const char* branch) {
        const bool from_input = input_node < 2;
        const bool strided = reduce && from_input;
        Layer l;
        l.in_c = filters;
        l.out_c = filters;
        l.kernel = op_kernel_size(op);
        l.stride = strided ? 2 : 1;
        l.in_h = strided ? prev.h : node_h;
        l.in_w = strided ? prev.w : node_w;
        l.name = cell_tag + ".node" + std::to_string(node_index) + "." + branch;
        if (op_is_conv(op)) {
          l.kind = LayerKind::kConv;
        } else if (op_is_depthwise(op)) {
          l.kind = LayerKind::kDwConv;
        } else {
          l.kind = LayerKind::kPool;
          l.is_max_pool = op == Op::kMaxPool3x3;
        }
        layers.push_back(l);
      };
      add_op(spec.op_a, spec.input_a, "a");
      add_op(spec.op_b, spec.input_b, "b");
    }

    const auto loose = loose_end_nodes(cell);
    FeatureShape out;
    out.channels = static_cast<int>(loose.size()) * filters;
    out.h = node_h;
    out.w = node_w;
    prev_prev = prev;
    prev = out;
  }

  // Classifier: global average pooling (modelled as a pool over the whole
  // map) followed by a fully connected layer.
  Layer gap;
  gap.kind = LayerKind::kPool;
  gap.in_h = prev.h;
  gap.in_w = prev.w;
  gap.in_c = prev.channels;
  gap.out_c = prev.channels;
  gap.kernel = prev.h;
  gap.stride = prev.h;
  gap.is_max_pool = false;
  gap.name = "global_avg_pool";
  layers.push_back(gap);

  Layer fc;
  fc.kind = LayerKind::kFullyConnected;
  fc.in_h = 1;
  fc.in_w = 1;
  fc.in_c = prev.channels;
  fc.out_c = skeleton.num_classes;
  fc.kernel = 1;
  fc.stride = 1;
  fc.name = "classifier";
  layers.push_back(fc);

  return layers;
}

NetworkStats network_stats(const std::vector<Layer>& layers) {
  NetworkStats s;
  s.num_layers = layers.size();
  for (const Layer& l : layers) {
    s.total_macs += l.macs();
    s.total_params += l.params();
    if (l.params() > 0) ++s.num_weight_layers;
  }
  return s;
}

}  // namespace yoso
