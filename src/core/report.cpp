#include "core/report.h"

#include <sstream>
#include <stdexcept>

#include "accel/area.h"
#include "accel/roofline.h"
#include "accel/simulator.h"
#include "arch/network.h"
#include "core/design_space.h"
#include "core/reward.h"
#include "core/search.h"
#include "core/serialize.h"
#include "util/table.h"

namespace yoso {

namespace {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return "conv";
    case LayerKind::kDwConv: return "dwconv";
    case LayerKind::kPool: return "pool";
    case LayerKind::kFullyConnected: return "fc";
  }
  return "?";
}

}  // namespace

std::string render_design_report(const SearchResult& result,
                                 const NetworkSkeleton& search_skeleton,
                                 const RewardParams& reward,
                                 const ReportOptions& options) {
  if (!result.best.has_value())
    throw std::invalid_argument("render_design_report: no best candidate");
  const RankedCandidate& best = *result.best;
  const CandidateDesign& design = best.candidate;
  const NetworkSkeleton& skeleton =
      resolve_skeleton(design.skeleton, search_skeleton);

  std::ostringstream os;
  os << "# YOSO co-design report\n\n";

  // --- summary ---
  os << "## Solution\n\n"
     << "| metric | value | threshold |\n|---|---|---|\n"
     << "| test error | "
     << TextTable::fmt((1.0 - best.accurate_result.accuracy) * 100.0, 2)
     << " % | - |\n"
     << "| energy / inference | "
     << TextTable::fmt(best.accurate_result.energy_mj, 2) << " mJ | "
     << TextTable::fmt(reward.t_eer_mj, 1) << " mJ |\n"
     << "| latency / inference | "
     << TextTable::fmt(best.accurate_result.latency_ms, 2) << " ms | "
     << TextTable::fmt(reward.t_lat_ms, 1) << " ms |\n"
     << "| feasible | " << (best.feasible ? "yes" : "**no**") << " | - |\n"
     << "| composite reward | " << TextTable::fmt(best.accurate_reward, 3)
     << " | - |\n\n"
     << "reward: `" << reward.to_string() << "`\n\n";

  // --- accelerator ---
  const AreaBreakdown area = estimate_area(design.config);
  os << "## Accelerator\n\n"
     << "configuration: `" << design.config.to_string() << "` ("
     << design.config.num_pes() << " PEs)\n\n"
     << "| area component | mm^2 |\n|---|---|\n"
     << "| PE array | " << TextTable::fmt(area.pe_mm2, 2) << " |\n"
     << "| register buffers | " << TextTable::fmt(area.rbuf_mm2, 2) << " |\n"
     << "| global buffer | " << TextTable::fmt(area.gbuf_mm2, 2) << " |\n"
     << "| dataflow muxing | " << TextTable::fmt(area.mux_mm2, 2) << " |\n"
     << "| routing / clock | " << TextTable::fmt(area.routing_mm2, 2)
     << " |\n"
     << "| **total** | **" << TextTable::fmt(area.total_mm2, 2) << "** |\n\n";

  // --- energy breakdown from the cycle-level simulator ---
  SystolicSimulator simulator({}, SimFidelity::kCycleLevel);
  const auto layers = extract_layers(design.genotype, skeleton);
  const SimulationResult sim = simulator.simulate(layers, design.config);
  os << "## Energy breakdown\n\n"
     << "| level | mJ |\n|---|---|\n"
     << "| DRAM | " << TextTable::fmt(sim.dram_mj, 2) << " |\n"
     << "| global buffer | " << TextTable::fmt(sim.gbuf_mj, 2) << " |\n"
     << "| register files | " << TextTable::fmt(sim.rbuf_mj, 2) << " |\n"
     << "| MACs | " << TextTable::fmt(sim.mac_mj, 2) << " |\n"
     << "| static | " << TextTable::fmt(sim.static_mj, 2) << " |\n\n"
     << "mean PE utilisation: " << TextTable::fmt(sim.mean_utilization, 2)
     << "\n\n";

  // --- roofline ---
  const RooflineSummary roof = roofline_analysis(layers, design.config);
  os << "## Roofline\n\n"
     << "array peak " << TextTable::fmt(roof.peak_gmacs, 0)
     << " GMAC/s, machine balance "
     << TextTable::fmt(roof.balance_intensity, 1) << " MACs/byte; "
     << roof.memory_bound_layers << " of " << roof.layers.size()
     << " weight layers are memory-bound; MAC-weighted roofline efficiency "
     << TextTable::fmt(roof.mean_efficiency * 100.0, 0) << " %.\n\n";

  // --- network ---
  const NetworkStats stats = network_stats(layers);
  os << "## Network\n\n"
     << stats.num_layers << " layers, "
     << stats.total_macs / 1000000 << " MMACs, "
     << stats.total_params / 1000 << " k parameters ("
     << skeleton.cells.size() << " cells, stem " << skeleton.stem_channels
     << ")\n\n";
  if (options.include_genotype)
    os << "```\n" << serialize_genotype(design.genotype) << "\n```\n\n";

  if (options.include_layer_table) {
    os << "### Layers\n\n| # | name | kind | in | out | k | s | MMACs |\n"
       << "|---|---|---|---|---|---|---|---|\n";
    const int limit =
        std::min<int>(options.max_layers, static_cast<int>(layers.size()));
    for (int i = 0; i < limit; ++i) {
      const Layer& l = layers[static_cast<std::size_t>(i)];
      os << "| " << i << " | " << l.name << " | " << layer_kind_name(l.kind)
         << " | " << l.in_h << "x" << l.in_w << "x" << l.in_c << " | "
         << l.out_h() << "x" << l.out_w() << "x" << l.out_c << " | "
         << l.kernel << " | " << l.stride << " | "
         << TextTable::fmt(static_cast<double>(l.macs()) / 1e6, 2) << " |\n";
    }
    if (limit < static_cast<int>(layers.size()))
      os << "| ... | (" << layers.size() - static_cast<std::size_t>(limit)
         << " more) | | | | | | |\n";
    os << "\n";
  }

  // --- search provenance ---
  os << "## Search\n\n"
     << result.iterations_run << " iterations; best fast reward "
     << TextTable::fmt(result.best_fast_reward, 3) << "; "
     << result.finalists.size()
     << " finalists reranked with the accurate evaluator.\n";
  return os.str();
}

}  // namespace yoso
