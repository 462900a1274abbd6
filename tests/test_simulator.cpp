#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "arch/zoo.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace yoso {
namespace {

AcceleratorConfig base_config() {
  return AcceleratorConfig{16, 32, 512, 512, Dataflow::kOutputStationary};
}

TEST(Simulator, EnergyBreakdownSumsToTotal) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v2").genotype;
  const auto r = sim.simulate_network(g, default_skeleton(), base_config());
  EXPECT_NEAR(r.energy_mj,
              r.dram_mj + r.gbuf_mj + r.rbuf_mj + r.mac_mj + r.static_mj,
              1e-9);
  EXPECT_GT(r.dram_mj, 0.0);
  EXPECT_GT(r.mac_mj, 0.0);
}

TEST(Simulator, ResultsInPaperDecade) {
  // Calibration guard: reference nets on a large config should land in the
  // paper's reported decade (a few mJ, around a millisecond).
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  for (const auto& m : reference_models()) {
    const auto r =
        sim.simulate_network(m.genotype, default_skeleton(), base_config());
    EXPECT_GT(r.energy_mj, 2.0) << m.name;
    EXPECT_LT(r.energy_mj, 40.0) << m.name;
    EXPECT_GT(r.latency_ms, 0.2) << m.name;
    EXPECT_LT(r.latency_ms, 8.0) << m.name;
  }
}

TEST(Simulator, BiggerNetworkCostsMore) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto small = sim.simulate_network(
      reference_model("Darts_v1").genotype, default_skeleton(), base_config());
  const auto big = sim.simulate_network(
      reference_model("PnasNet").genotype, default_skeleton(), base_config());
  EXPECT_GT(big.energy_mj, small.energy_mj);
  EXPECT_GT(big.latency_ms, small.latency_ms);
}

TEST(Simulator, MorePesReduceLatency) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v2").genotype;
  AcceleratorConfig small = base_config();
  small.pe_rows = 8;
  small.pe_cols = 8;
  const auto rs = sim.simulate_network(g, default_skeleton(), small);
  const auto rb = sim.simulate_network(g, default_skeleton(), base_config());
  EXPECT_GT(rs.latency_ms, rb.latency_ms);
}

TEST(Simulator, OutputStationaryBeatsNoLocalReuse) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v2").genotype;
  AcceleratorConfig nlr = base_config();
  nlr.dataflow = Dataflow::kNoLocalReuse;
  const auto r_os = sim.simulate_network(g, default_skeleton(), base_config());
  const auto r_nlr = sim.simulate_network(g, default_skeleton(), nlr);
  EXPECT_LT(r_os.latency_ms, r_nlr.latency_ms);
  EXPECT_LT(r_os.energy_mj, r_nlr.energy_mj);
}

TEST(Simulator, CycleLevelRefinesAnalytical) {
  const auto& g = reference_model("EnasNet").genotype;
  SystolicSimulator fast({}, SimFidelity::kAnalytical);
  SystolicSimulator slow({}, SimFidelity::kCycleLevel);
  const auto ra = fast.simulate_network(g, default_skeleton(), base_config());
  const auto rc = slow.simulate_network(g, default_skeleton(), base_config());
  // Same energy model; cycle-level latency differs but stays within 2x.
  EXPECT_NEAR(rc.energy_mj, ra.energy_mj, ra.energy_mj * 0.25);
  EXPECT_GT(rc.latency_ms, ra.latency_ms * 0.5);
  EXPECT_LT(rc.latency_ms, ra.latency_ms * 2.0);
}

TEST(Simulator, DeterministicAcrossCalls) {
  SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  const auto& g = reference_model("NasNet-A").genotype;
  const auto r1 = sim.simulate_network(g, default_skeleton(), base_config());
  const auto r2 = sim.simulate_network(g, default_skeleton(), base_config());
  EXPECT_DOUBLE_EQ(r1.energy_mj, r2.energy_mj);
  EXPECT_DOUBLE_EQ(r1.latency_ms, r2.latency_ms);
}

TEST(Simulator, PerLayerResultsPresent) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto skeleton = default_skeleton();
  const auto layers =
      extract_layers(reference_model("Darts_v1").genotype, skeleton);
  const auto r = sim.simulate(layers, base_config());
  ASSERT_EQ(r.layers.size(), layers.size());
  double cycles = 0.0;
  for (const auto& lr : r.layers) {
    EXPECT_GT(lr.cycles, 0.0);
    EXPECT_GE(lr.energy_pj, 0.0);
    cycles += lr.cycles;
  }
  EXPECT_NEAR(cycles, r.total_cycles, 1e-6);
}

TEST(Simulator, MeanUtilizationBounded) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto r = sim.simulate_network(reference_model("Darts_v2").genotype,
                                      default_skeleton(), base_config());
  EXPECT_GT(r.mean_utilization, 0.1);
  EXPECT_LE(r.mean_utilization, 1.0);
}

TEST(Simulator, StaticEnergyGrowsWithIdleHardware) {
  // Same network, larger array and buffer -> more static energy even if
  // latency shrinks only modestly.
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  const auto& g = reference_model("Darts_v1").genotype;
  AcceleratorConfig small{8, 8, 108, 64, Dataflow::kOutputStationary};
  AcceleratorConfig large{16, 32, 1024, 1024, Dataflow::kOutputStationary};
  const auto rs = sim.simulate_network(g, default_skeleton(), small);
  const auto rl = sim.simulate_network(g, default_skeleton(), large);
  EXPECT_GT(rl.static_mj / rl.latency_ms, rs.static_mj / rs.latency_ms);
}

TEST(Simulator, BatchOfRandomCandidatesIsFinite) {
  SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  Rng rng(123);
  const auto skeleton = default_skeleton();
  for (int i = 0; i < 10; ++i) {
    const auto g = random_genotype(rng);
    const auto r = sim.simulate_network(g, skeleton, base_config());
    EXPECT_TRUE(std::isfinite(r.energy_mj));
    EXPECT_TRUE(std::isfinite(r.latency_ms));
    EXPECT_GT(r.energy_mj, 0.0);
    EXPECT_GT(r.latency_ms, 0.0);
  }
}

/// FNV-1a over the byte patterns of the doubles fed to it.
class Fnv1a {
 public:
  void mix(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

AcceleratorConfig random_config(const ConfigSpace& space, Rng& rng) {
  std::vector<int> actions(ConfigSpace::kActionCount);
  for (int a = 0; a < ConfigSpace::kActionCount; ++a)
    actions[a] = rng.uniform_int(0, space.cardinality(a) - 1);
  return space.decode(actions);
}

TEST(Simulator, GoldenDigestIsPinned) {
  // Every modelled double of 40 random (genotype, config, skeleton) probes
  // at both fidelities and batch 1 and 8.  Any change to the simulator's
  // outputs (or to the probe draws) moves the digest; a speed-only change
  // must leave it exactly where it is.
  const ConfigSpace space = default_config_space();
  const SystolicSimulator cycle({}, SimFidelity::kCycleLevel);
  const SystolicSimulator analytical({}, SimFidelity::kAnalytical);
  const NetworkSkeleton fixed = default_skeleton();
  Rng rng(20201118);
  Fnv1a digest;
  constexpr int kProbes = 40;
  for (int i = 0; i < kProbes; ++i) {
    const Genotype g = random_genotype(rng);
    const AcceleratorConfig config = random_config(space, rng);
    // Half the probes take a searched skeleton (stage depth, stem width).
    const NetworkSkeleton& skeleton =
        i % 2 == 0 ? fixed : skeleton_for(random_skeleton_choice(rng));
    const auto layers = extract_layers(g, skeleton);
    for (const SystolicSimulator* sim : {&cycle, &analytical}) {
      for (int batch : {1, 8}) {
        const SimulationResult r = sim->simulate(layers, config, batch);
        digest.mix(r.total_cycles);
        digest.mix(r.latency_ms);
        digest.mix(r.energy_mj);
        for (const LayerSimResult& lr : r.layers) {
          digest.mix(lr.cycles);
          digest.mix(lr.energy_pj);
        }
      }
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest.value()));
  EXPECT_STREQ(hex, "e40cae7c5c1ef618");
}

void expect_same_layer(const LayerSimResult& a, const LayerSimResult& b,
                       const std::string& where) {
  EXPECT_EQ(a.mapping.tile.t_co, b.mapping.tile.t_co) << where;
  EXPECT_EQ(a.mapping.tile.t_ci, b.mapping.tile.t_ci) << where;
  EXPECT_EQ(a.mapping.tile.t_h, b.mapping.tile.t_h) << where;
  EXPECT_EQ(a.mapping.utilization, b.mapping.utilization) << where;
  EXPECT_EQ(a.mapping.macs, b.mapping.macs) << where;
  EXPECT_EQ(a.mapping.compute_cycles, b.mapping.compute_cycles) << where;
  EXPECT_EQ(a.mapping.stall_cycles, b.mapping.stall_cycles) << where;
  EXPECT_EQ(a.mapping.total_cycles, b.mapping.total_cycles) << where;
  EXPECT_EQ(a.mapping.dram_bytes, b.mapping.dram_bytes) << where;
  EXPECT_EQ(a.mapping.dram_weight_bytes, b.mapping.dram_weight_bytes)
      << where;
  EXPECT_EQ(a.mapping.gbuf_bytes, b.mapping.gbuf_bytes) << where;
  EXPECT_EQ(a.mapping.rbuf_bytes, b.mapping.rbuf_bytes) << where;
  EXPECT_EQ(a.mapping.buffer_overflow, b.mapping.buffer_overflow) << where;
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.energy_pj, b.energy_pj) << where;
}

TEST(Simulator, EveryLayerMatchesItsStandaloneSimulation) {
  // A layer's result inside a network must be exactly what simulating it
  // alone gives: the per-layer model carries no state between layers, so a
  // repeated shape may reuse an earlier layer's result.
  const ConfigSpace space = default_config_space();
  const SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  Rng rng(77);
  std::vector<std::pair<std::string, Genotype>> nets;
  for (int i = 0; i < 3; ++i)
    nets.emplace_back("random" + std::to_string(i), random_genotype(rng));
  for (const char* name : {"Darts_v2", "NasNet-A"})
    nets.emplace_back(name, reference_model(name).genotype);
  for (const auto& [name, g] : nets) {
    const AcceleratorConfig config = random_config(space, rng);
    const auto layers = extract_layers(g, default_skeleton());
    for (int batch : {1, 8}) {
      const SimulationResult whole = sim.simulate(layers, config, batch);
      ASSERT_EQ(whole.layers.size(), layers.size());
      for (std::size_t i = 0; i < layers.size(); ++i) {
        const SimulationResult alone = sim.simulate({layers[i]}, config, batch);
        expect_same_layer(whole.layers[i], alone.layers[0],
                          name + " " + layers[i].name + " batch " +
                              std::to_string(batch));
      }
    }
  }
}

TEST(Simulator, ReuseKeysOnShapeNotName) {
  const SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  const AcceleratorConfig config = base_config();
  Layer base;
  base.kind = LayerKind::kConv;
  base.in_h = base.in_w = 16;
  base.in_c = 48;
  base.out_c = 64;
  base.kernel = 3;
  base.name = "cell0.node2.a";

  // Same shape, different provenance: identical results.
  Layer renamed = base;
  renamed.name = "cell3.node5.b";
  const auto pair = sim.simulate({base, renamed}, config);
  expect_same_layer(pair.layers[0], pair.layers[1], "renamed");
  expect_same_layer(pair.layers[1], sim.simulate({renamed}, config).layers[0],
                    "renamed alone");

  // One shape field changed: the later layer must get its own result, not
  // the earlier layer's.
  std::vector<std::pair<std::string, Layer>> variants;
  const auto variant = [&](const std::string& field, auto edit) {
    Layer l = base;
    edit(l);
    variants.emplace_back(field, l);
  };
  variant("kind", [](Layer& l) { l.kind = LayerKind::kDwConv; });
  variant("in_h", [](Layer& l) { l.in_h = 8; });
  variant("in_w", [](Layer& l) { l.in_w = 8; });
  variant("in_c", [](Layer& l) { l.in_c = 24; });
  variant("out_c", [](Layer& l) { l.out_c = 32; });
  variant("kernel", [](Layer& l) { l.kernel = 5; });
  variant("stride", [](Layer& l) { l.stride = 2; });
  for (const auto& [field, l] : variants) {
    const auto r = sim.simulate({base, l}, config);
    const auto alone = sim.simulate({l}, config);
    expect_same_layer(r.layers[1], alone.layers[0], field);
    EXPECT_NE(r.layers[1].cycles, r.layers[0].cycles) << field;
  }
  Layer pool = base;
  pool.kind = LayerKind::kPool;
  pool.out_c = pool.in_c;
  Layer max_pool = pool;
  max_pool.is_max_pool = true;
  const auto pools = sim.simulate({pool, max_pool}, config);
  expect_same_layer(pools.layers[1], sim.simulate({max_pool}, config).layers[0],
                    "is_max_pool");
}

TEST(Simulator, WalkedAndReusedCountersCoverEveryLayer) {
  obs::metrics_registry().reset();
  obs::set_enabled(true);
  const SystolicSimulator sim({}, SimFidelity::kCycleLevel);
  Rng rng(5);
  const auto layers = extract_layers(random_genotype(rng), default_skeleton());
  sim.simulate(layers, base_config());
  obs::set_enabled(false);
  std::set<std::tuple<LayerKind, int, int, int, int, int, int, bool>> shapes;
  for (const Layer& l : layers)
    shapes.emplace(l.kind, l.in_h, l.in_w, l.in_c, l.out_c, l.kernel,
                   l.stride, l.is_max_pool);
  const auto walked =
      obs::metrics_registry().counter("sim.layers_walked").value();
  const auto reused =
      obs::metrics_registry().counter("sim.layers_reused").value();
  obs::metrics_registry().reset();
  EXPECT_EQ(walked + reused, layers.size());
  EXPECT_EQ(walked, shapes.size());
  EXPECT_GT(reused, 0u);  // cells repeat within a stage
}

class GbufSweep : public ::testing::TestWithParam<int> {};

TEST_P(GbufSweep, EnergyFiniteAcrossBufferSizes) {
  SystolicSimulator sim({}, SimFidelity::kAnalytical);
  AcceleratorConfig cfg = base_config();
  cfg.g_buf_kb = GetParam();
  const auto r = sim.simulate_network(reference_model("Darts_v2").genotype,
                                      default_skeleton(), cfg);
  EXPECT_TRUE(std::isfinite(r.energy_mj));
  EXPECT_GT(r.energy_mj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GbufSweep,
                         ::testing::Values(108, 196, 256, 512, 1024));

}  // namespace
}  // namespace yoso
