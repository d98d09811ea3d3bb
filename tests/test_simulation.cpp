// Integration tests of the EconCast simulation: Lemma 2 (empirical state
// occupancy matches the Gibbs distribution under frozen η), Theorem 1 in
// practice (adaptive η converges and the measured throughput matches T^σ),
// budget adherence, both variants, both modes, and non-clique behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "econcast/simulation.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "oracle/nonclique_oracle.h"

namespace {

using namespace econcast;
using namespace econcast::proto;
using model::Mode;

model::NodeSet paper_nodes(std::size_t n = 5) {
  return model::homogeneous(n, 10.0, 500.0, 500.0);
}

SimConfig base_config(double sigma, double duration, std::uint64_t seed) {
  SimConfig cfg;
  cfg.sigma = sigma;
  cfg.duration = duration;
  cfg.warmup = duration * 0.2;
  cfg.seed = seed;
  return cfg;
}

TEST(SimulationLemma2, FrozenEtaOccupancyMatchesGibbs) {
  // Freeze η at η* and compare the empirical network-state distribution with
  // the stationary law (19) — the Lemma 2 cross-check.
  const auto nodes = paper_nodes(4);
  const double sigma = 0.5;
  const auto p4 = gibbs::solve_p4(nodes, Mode::kGroupput, sigma);
  SimConfig cfg = base_config(sigma, 4e6, 1234);
  cfg.adapt_multiplier = false;
  cfg.eta_init = p4.eta;
  cfg.track_state_occupancy = true;
  Simulation sim(nodes, model::Topology::clique(4), cfg);
  const SimResult r = sim.run();

  gibbs::ExactGibbs g(nodes, Mode::kGroupput, sigma);
  const auto pi = g.distribution(p4.eta);
  double l1 = 0.0;
  for (std::size_t k = 0; k < pi.size(); ++k)
    l1 += std::abs(pi[k] - r.state_occupancy[k]);
  EXPECT_LT(l1, 0.02) << "total variation too large";
}

TEST(SimulationLemma2, FrozenEtaThroughputMatchesGibbsExpectation) {
  const auto nodes = paper_nodes(5);
  const auto p4 = gibbs::solve_p4(nodes, Mode::kGroupput, 0.5);
  SimConfig cfg = base_config(0.5, 6e6, 77);
  cfg.adapt_multiplier = false;
  cfg.eta_init = p4.eta;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  EXPECT_NEAR(r.groupput, p4.throughput, 0.12 * p4.throughput);
  EXPECT_NEAR(r.listen_fraction[0], p4.alpha[0], 0.08 * p4.alpha[0]);
  EXPECT_NEAR(r.transmit_fraction[0], p4.beta[0], 0.08 * p4.beta[0]);
}

TEST(SimulationAdaptive, ConvergesToAnalyticThroughput) {
  // §VII-A: the simulated T̃^σ matches T^σ for σ = 0.5.
  const auto nodes = paper_nodes(5);
  const auto p4 = gibbs::solve_p4(nodes, Mode::kGroupput, 0.5);
  SimConfig cfg = base_config(0.5, 3e6, 42);
  cfg.warmup = 1e6;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  EXPECT_NEAR(r.groupput, p4.throughput, 0.15 * p4.throughput);
  // The adapted multiplier lands near η*.
  EXPECT_NEAR(r.final_eta[0], p4.eta[0], 0.5 * p4.eta[0]);
}

TEST(SimulationAdaptive, PowerWithinBudget) {
  const auto nodes = paper_nodes(5);
  SimConfig cfg = base_config(0.5, 3e6, 7);
  cfg.warmup = 1e6;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  for (const double p : r.avg_power) EXPECT_NEAR(p, 10.0, 0.8);
}

TEST(SimulationAdaptive, AnyputModeMatchesAnalytic) {
  const auto nodes = paper_nodes(5);
  const auto p4 = gibbs::solve_p4(nodes, Mode::kAnyput, 0.5);
  SimConfig cfg = base_config(0.5, 3e6, 99);
  cfg.mode = Mode::kAnyput;
  cfg.warmup = 1e6;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  EXPECT_NEAR(r.anyput, p4.throughput, 0.15 * p4.throughput);
}

TEST(SimulationAdaptive, HeterogeneousNodesMeetIndividualBudgets) {
  // Table II-style heterogeneous budgets; every node must consume at its own
  // rate without knowing the others' parameters.
  model::NodeSet nodes{{5.0, 500.0, 500.0},
                       {10.0, 500.0, 500.0},
                       {50.0, 500.0, 500.0},
                       {100.0, 500.0, 500.0}};
  SimConfig cfg = base_config(0.5, 4e6, 5);
  cfg.warmup = 2e6;
  Simulation sim(nodes, model::Topology::clique(4), cfg);
  const SimResult r = sim.run();
  for (std::size_t i = 0; i < nodes.size(); ++i)
    EXPECT_NEAR(r.avg_power[i], nodes[i].budget, 0.15 * nodes[i].budget)
        << "node " << i;
}

TEST(SimulationBurstiness, CaptureBurstsMatchAnalyticAtHalfSigma) {
  const auto nodes = paper_nodes(5);
  const auto p4 = gibbs::solve_p4(nodes, Mode::kGroupput, 0.5);
  SimConfig cfg = base_config(0.5, 4e6, 3);
  cfg.adapt_multiplier = false;
  cfg.eta_init = p4.eta;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  // Eq. (34) at σ = 0.5, N = 5 gives ~8 packets per received burst.
  EXPECT_NEAR(r.burst_lengths.mean(), 8.0, 1.5);
}

TEST(SimulationBurstiness, AnyputBurstIndependentOfN) {
  // Eq. (35): B_a = e^{1/σ} for any N.
  for (const std::size_t n : {5u, 10u}) {
    const auto nodes = paper_nodes(n);
    const auto p4 = gibbs::solve_p4(nodes, Mode::kAnyput, 0.5);
    SimConfig cfg = base_config(0.5, 3e6, 17 + n);
    cfg.mode = Mode::kAnyput;
    cfg.adapt_multiplier = false;
    cfg.eta_init = p4.eta;
    Simulation sim(nodes, model::Topology::clique(n), cfg);
    const SimResult r = sim.run();
    EXPECT_NEAR(r.burst_lengths.mean(), std::exp(2.0), 1.0) << "N=" << n;
  }
}

TEST(SimulationVariants, NonCaptureMatchesCaptureThroughput) {
  // Lemma 2 holds for both variants: same stationary law, same throughput.
  const auto nodes = paper_nodes(5);
  const auto p4 = gibbs::solve_p4(nodes, Mode::kGroupput, 0.5);
  SimConfig cfg = base_config(0.5, 5e6, 11);
  cfg.variant = Variant::kNonCapture;
  cfg.adapt_multiplier = false;
  cfg.eta_init = p4.eta;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  EXPECT_NEAR(r.groupput, p4.throughput, 0.15 * p4.throughput);
  // NC releases after every packet: bursts are single packets.
  EXPECT_NEAR(r.burst_lengths.mean(), 1.0, 1e-9);
}

TEST(SimulationEstimators, DegradedEstimatesReduceButKeepThroughput) {
  // §V-C: estimates need not be accurate; poor estimates reduce throughput.
  // Adaptation on: with lossy estimates the protocol re-invests the energy
  // it saves on aborted bursts, so throughput degrades but stays useful.
  // The energy guard keeps the adaptation transient physical (without it, a
  // burst started at η ≈ 0 with all nodes listening can hold the channel for
  // e^{16} packet-times at σ = 0.25).
  const auto nodes = paper_nodes(5);
  SimConfig perfect_cfg = base_config(0.25, 3e6, 23);
  perfect_cfg.warmup = 1e6;
  perfect_cfg.energy_guard = true;
  perfect_cfg.initial_energy = 5e5;
  SimConfig lossy_cfg = perfect_cfg;
  lossy_cfg.estimator.kind = EstimatorKind::kBinomialThinning;
  lossy_cfg.estimator.detect_prob = 0.5;
  const SimResult perfect =
      Simulation(nodes, model::Topology::clique(5), perfect_cfg).run();
  const SimResult lossy =
      Simulation(nodes, model::Topology::clique(5), lossy_cfg).run();
  EXPECT_GT(lossy.groupput, 0.1 * perfect.groupput);
  EXPECT_LT(lossy.groupput, perfect.groupput);
}

TEST(SimulationGuard, BoundsGiantCapturesAtSmallSigma) {
  // Adaptive start from η = 0 at σ = 0.25: without the guard a single early
  // burst can capture the listeners for ~e^{16} packet-times; with the guard
  // listeners brown out, the burst dies, and the run produces many bursts.
  const auto nodes = paper_nodes(5);
  SimConfig cfg = base_config(0.25, 1e6, 23);  // the seed that triggers it
  cfg.energy_guard = true;
  cfg.initial_energy = 5e5;  // receivers can pay for ~1000 listen-packets
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  EXPECT_GT(r.bursts, 100u);
  EXPECT_LT(r.burst_lengths.max(), 2e4);
}

TEST(SimulationGuard, StorageNeverFarBelowFloor) {
  const auto nodes = paper_nodes(5);
  SimConfig cfg = base_config(0.5, 5e5, 3);
  cfg.energy_guard = true;
  cfg.initial_energy = 1000.0;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  // With the guard, a node can overdraw by at most ~one packet of transmit
  // beyond the floor (the affordability check is at packet granularity).
  for (const double p : r.avg_power) EXPECT_LE(p, 10.0 * 1.3);
}

TEST(SimulationNonClique, GridAchievesFractionOfOracle) {
  // Fig. 6: EconCast on a grid reaches ~10-25% of T*_nc at σ = 0.25-0.5.
  const std::size_t k = 3;
  const auto nodes = paper_nodes(k * k);
  const auto topo = model::Topology::grid(k, k);
  const auto bounds = oracle::nonclique_groupput(nodes, topo);
  SimConfig cfg = base_config(0.5, 3e6, 31);
  cfg.warmup = 1e6;
  Simulation sim(nodes, topo, cfg);
  const SimResult r = sim.run();
  const double ratio = r.groupput / bounds.lower.throughput;
  EXPECT_GT(ratio, 0.03);
  EXPECT_LT(ratio, 1.0);
}

TEST(SimulationNonClique, LineTopologyRunsAndRespectsBudgets) {
  const auto nodes = paper_nodes(4);
  SimConfig cfg = base_config(0.5, 2e6, 13);
  cfg.warmup = 1e6;
  Simulation sim(nodes, model::Topology::line(4), cfg);
  const SimResult r = sim.run();
  for (const double p : r.avg_power) EXPECT_LT(p, 13.0);
  EXPECT_GT(r.packets_sent, 0u);
}

TEST(SimulationDeterminism, SameSeedSameResult) {
  const auto nodes = paper_nodes(5);
  const SimConfig cfg = base_config(0.5, 2e5, 100);
  const SimResult a = Simulation(nodes, model::Topology::clique(5), cfg).run();
  const SimResult b = Simulation(nodes, model::Topology::clique(5), cfg).run();
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.groupput, b.groupput);
}

TEST(SimulationDeterminism, DifferentSeedsDiffer) {
  const auto nodes = paper_nodes(5);
  SimConfig a_cfg = base_config(0.5, 2e5, 100);
  SimConfig b_cfg = base_config(0.5, 2e5, 101);
  const SimResult a = Simulation(nodes, model::Topology::clique(5), a_cfg).run();
  const SimResult b = Simulation(nodes, model::Topology::clique(5), b_cfg).run();
  EXPECT_NE(a.events_processed, b.events_processed);
}

/// The multiplier boundaries a run handles: ⌊duration / τ⌋ for a constant
/// τ, and for Theorem 1's τ_k = k the largest k with k(k + 1)/2 <= duration.
std::uint64_t boundaries(const SimConfig& cfg) {
  if (cfg.multiplier.schedule == StepSchedule::kConstant)
    return static_cast<std::uint64_t>(cfg.duration / cfg.multiplier.tau);
  std::uint64_t k = 0;
  while (static_cast<double>((k + 1) * (k + 2) / 2) <= cfg.duration) ++k;
  return k;
}

/// One configuration's exact output: every counter, and every per-node
/// double bit for bit (hex-float literals).
struct SimGolden {
  const char* name;
  model::NodeSet nodes;
  model::Topology topology;
  SimConfig cfg;
  double groupput, anyput;
  std::uint64_t packets_sent, packets_received, bursts, corrupted_receptions,
      events_processed;
  std::size_t latency_count;
  std::vector<double> avg_power, final_eta;
  std::uint64_t pushes, pops, cancels;
  std::size_t peak_live;
};

TEST(SimulationGolden, BitForBit) {
  // Any change to the event handling, the event order, the RNG draw order
  // or the queue's accounting shows up here. Two queue savings moved only
  // the queue counters, and no other value here:
  // - A transition or guard draw past the pending multiplier boundary never
  //   enters the queue, because the boundary re-samples it before it could
  //   pop. That lowered pushes, cancels and peak_live.
  // - One kIntervalEnd per boundary updates every node, where each node had
  //   its own. That lowered pushes, pops and peak_live. events_processed
  //   still counts a boundary once per node, so it exceeds pops by
  //   (N - 1) × boundaries.
  //
  // (a) Grid with the energy guard: brown-outs exercise the kEnergyDepleted
  // slot, and the warmup snapshot (a kCustom push at t = 0) ties in time
  // with the boundary at 200 τ and must pop before it.
  SimConfig grid = base_config(0.5, 3e4, 11);
  grid.warmup = 200 * grid.multiplier.tau;
  grid.multiplier.eta_init = 0.01;
  grid.energy_guard = true;
  grid.initial_energy = 1e4;
  // (b) Non-capture anyput clique: every listener join/leave re-samples the
  // listening neighbours, replacing their live transitions.
  SimConfig noncapture = base_config(0.5, 4e4, 5);
  noncapture.mode = Mode::kAnyput;
  noncapture.variant = Variant::kNonCapture;
  // (c) Theorem 1 schedule: τ_k = k grows interval by interval (power
  // scaled down so the unscaled step δ_k keeps η near σ/L).
  SimConfig theorem1 = base_config(0.5, 4e4, 3);
  theorem1.multiplier.schedule = StepSchedule::kTheorem1;
  // (d) The N = 25 capture-groupput clique under the Fig. 6 guard at
  // σ = 0.75, as perfbench's cache-replay fills it: most re-samples after a
  // carrier toggle draw past the node's interval end.
  SimConfig clique25 = base_config(0.75, 1e6, 25);
  clique25.warmup = 4e5;
  clique25.energy_guard = true;
  clique25.initial_energy = 5e5;
  // (e) Non-capture groupput ring with per-node frozen multipliers: hidden
  // terminals corrupt receptions, and boundaries re-sample without moving
  // η.
  SimConfig ring = base_config(0.5, 1e5, 6);
  ring.variant = Variant::kNonCapture;
  ring.adapt_multiplier = false;
  ring.eta_init = {0.0035, 0.004, 0.0045, 0.005, 0.0055, 0.006};
  const SimGolden goldens[] = {
      {"grid3x3-guard", paper_nodes(9), model::Topology::grid(3, 3), grid,
       0x1.758e219652bd4p-7, 0x1.758e219652bd4p-7, 1423, 228, 35, 2, 10700,
       15,
       {0x1.078267842ba65p+3, 0x1.f98f575462139p+2, 0x1.f534fd3fafed6p+2,
        0x1.0cec8e4b93c6ap+3, 0x1.0bf5e88a7bafbp+3, 0x1.f430c43f87696p+2,
        0x1.097a0786a64e4p+3, 0x1.0a48e4688e69cp+3, 0x1.df1cad27ac168p+2},
       {0x1.3f014c255d92dp-8, 0x1.238b095b82c83p-8, 0x1.2f48836eb303cp-8,
        0x1.3dcbed0cb0936p-8, 0x1.35c40702df864p-8, 0x1.1c747f114972ap-8,
        0x1.33d7515499a03p-8, 0x1.46a166eb6f718p-8, 0x1.1fb09998779eep-8},
       6466, 5900, 560, 9},
      {"clique6-noncapture-anyput", paper_nodes(6),
       model::Topology::clique(6), noncapture, 0x1.0cccccccccccdp-6,
       0x1.0cccccccccccdp-6, 1847, 525, 525, 0, 14537, 94,
       {0x1.47e37023dc275p+3, 0x1.3dc9279b2b6p+3, 0x1.3c3628bf8112dp+3,
        0x1.3b86366ae55aep+3, 0x1.33b9cc37207d7p+3, 0x1.45e83bec1fcc3p+3},
       {0x1.51663036f99ffp-8, 0x1.36c5c7dc1c086p-8, 0x1.2ada5fbed262cp-8,
        0x1.1eae1a121173fp-8, 0x1.37fc6b8238f74p-8, 0x1.4e7ebc948ccf4p-8},
       15516, 10537, 4976, 8},
      {"clique5-theorem1", model::homogeneous(5, 0.01, 0.5, 0.5),
       model::Topology::clique(5), theorem1, 0x1.816a7ef9db22dp+1,
       0x1.fbdf3b645a1cbp-1, 31801, 96354, 305, 0, 42735, 207,
       {0x1.bba44fedf15ddp-2, 0x1.9638400639a7dp-2, 0x1.838e792c92b96p-2,
        0x1.8b91a230df014p-2, 0x1.a77ddea032fc6p-2},
       {0x1.6ef60431c08dap-2, 0x1.b0dc6f5e621e9p-2, 0x1.e7f3a182c8334p-2,
        0x1.825b9ad4422c9p-1, 0x1.72fb1ace52d0fp-1},
       43659, 41607, 2050, 7},
      {"clique25-fig6-guard", paper_nodes(25), model::Topology::clique(25),
       clique25, 0x1.21981221b249p-3, 0x1.abb7cd19b2112p-4, 131757, 84842,
       12775, 0, 1117903, 8416,
       {0x1.4482774183d84p+3, 0x1.3c05dca3f6fe4p+3, 0x1.447f982b643aep+3,
        0x1.451fa858239f7p+3, 0x1.407547dec1ceap+3, 0x1.3dab5ce3176a3p+3,
        0x1.3318b4dc1ede7p+3, 0x1.419fc1c012c7bp+3, 0x1.4051b82d92cdep+3,
        0x1.3618f4a8b1929p+3, 0x1.3de7b3dfa4b38p+3, 0x1.3c926b32c21dep+3,
        0x1.3f8462bd5bdd5p+3, 0x1.3f849ebb7228bp+3, 0x1.3f6c1a3dc1adbp+3,
        0x1.40979e1da529cp+3, 0x1.3cfc0243fdec1p+3, 0x1.3440b226408e6p+3,
        0x1.3e11a8e3960d6p+3, 0x1.4019617ee8268p+3, 0x1.40ae70a352c08p+3,
        0x1.4085e75add7dep+3, 0x1.32a2e5af477bdp+3, 0x1.40b6e4f0d32e3p+3,
        0x1.4108a082873f1p+3},
       {0x1.8ed38f1c10796p-7, 0x1.ccf96fd7ff4b9p-8, 0x1.8da44e7353f0ap-7,
        0x1.95cef6edf242cp-7, 0x1.c996dba7b87ap-8, 0x1.bc7d740706e75p-8,
        0x1.d6f51fad40609p-8, 0x1.2924676ef374dp-7, 0x1.15307569efe81p-7,
        0x1.ea96cd29531c7p-8, 0x1.c88bd0a1535dcp-8, 0x1.92e006f5f1079p-8,
        0x1.e4d61eb79350ap-8, 0x1.e1e1b00b7d87dp-8, 0x1.090715e577e72p-7,
        0x1.dc6d8e792ecb4p-8, 0x1.3a34ff09d59ap-7, 0x1.f46f8d02cfedcp-8,
        0x1.553c4c23a95a1p-7, 0x1.bc84386a905abp-8, 0x1.caf01e8692a8ep-8,
        0x1.4084e7ea82bacp-7, 0x1.02249ea89bc6p-7, 0x1.f3bb27312acbap-8,
        0x1.08720bcd5b98fp-7},
       1142837, 637903, 504927, 27},
      {"ring6-noncapture-frozen", paper_nodes(6), model::Topology::ring(6),
       ring, 0x1.b089a02752546p-7, 0x1.9b3d07c84b5ddp-7, 6652, 1056, 1004,
       22, 42027, 200,
       {0x1.049f110d8fb09p+5, 0x1.558833eadf311p+4, 0x1.cb42d04048ef2p+3,
        0x1.d11e968858505p+2, 0x1.3018b6144abb5p+2, 0x1.7173f7ae18e9bp+1},
       {0x1.cac083126e979p-9, 0x1.0624dd2f1a9fcp-8, 0x1.26e978d4fdf3bp-8,
        0x1.47ae147ae147bp-8, 0x1.6872b020c49bap-8, 0x1.89374bc6a7efap-8},
       37114, 32027, 5084, 7},
  };
  for (const SimGolden& g : goldens) {
    SCOPED_TRACE(g.name);
    const SimResult r = Simulation(g.nodes, g.topology, g.cfg).run();
    EXPECT_EQ(r.groupput, g.groupput);  // exact double equality
    EXPECT_EQ(r.anyput, g.anyput);
    EXPECT_EQ(r.packets_sent, g.packets_sent);
    EXPECT_EQ(r.packets_received, g.packets_received);
    EXPECT_EQ(r.bursts, g.bursts);
    EXPECT_EQ(r.corrupted_receptions, g.corrupted_receptions);
    EXPECT_EQ(r.events_processed, g.events_processed);
    EXPECT_EQ(r.latencies.count(), g.latency_count);
    EXPECT_EQ(r.avg_power, g.avg_power);
    EXPECT_EQ(r.final_eta, g.final_eta);
    EXPECT_EQ(r.queue_stats.pushes, g.pushes);
    EXPECT_EQ(r.queue_stats.pops, g.pops);
    EXPECT_EQ(r.events_processed,
              r.queue_stats.pops + (g.nodes.size() - 1) * boundaries(g.cfg));
    EXPECT_EQ(r.queue_stats.cancels, g.cancels);
    EXPECT_EQ(r.queue_stats.peak_live, g.peak_live);
  }
}

TEST(SimulationLatency, SamplesRequireSleepAndAreNonnegative) {
  const auto nodes = paper_nodes(5);
  SimConfig cfg = base_config(0.25, 2e6, 19);
  cfg.warmup = 5e5;
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  SimResult r = sim.run();
  ASSERT_GT(r.latencies.count(), 10u);
  for (const double s : r.latencies.samples()) EXPECT_GE(s, 0.0);
}

TEST(SimulationLatency, LargerNReducesLatency) {
  // §VII-D: more nodes -> each node receives more often.
  auto mean_latency = [](std::size_t n) {
    const auto nodes = paper_nodes(n);
    SimConfig cfg;
    cfg.sigma = 0.5;
    cfg.duration = 3e6;
    cfg.warmup = 5e5;
    cfg.seed = 4;
    Simulation sim(nodes, model::Topology::clique(n), cfg);
    return sim.run().latencies.mean();
  };
  EXPECT_LT(mean_latency(10), mean_latency(5));
}

TEST(SimulationConfig, Validation) {
  const auto nodes = paper_nodes(3);
  SimConfig bad_sigma;
  bad_sigma.sigma = 0.0;
  EXPECT_THROW(Simulation(nodes, model::Topology::clique(3), bad_sigma),
               std::invalid_argument);
  SimConfig bad_warmup;
  bad_warmup.duration = 10.0;
  bad_warmup.warmup = 20.0;
  EXPECT_THROW(Simulation(nodes, model::Topology::clique(3), bad_warmup),
               std::invalid_argument);
  SimConfig bad_occ;
  bad_occ.track_state_occupancy = true;
  EXPECT_THROW(Simulation(nodes, model::Topology::line(3), bad_occ),
               std::invalid_argument);
  SimConfig bad_eta;
  bad_eta.eta_init = {0.0, 0.0};  // wrong size
  EXPECT_THROW(Simulation(nodes, model::Topology::clique(3), bad_eta),
               std::invalid_argument);
  SimConfig ok;
  EXPECT_THROW(Simulation(nodes, model::Topology::clique(4), ok),
               std::invalid_argument);  // size mismatch
}

// Property sweep: protocol invariants hold for every combination of
// variant, mode, and topology shape.
struct SweepParam {
  Variant variant;
  model::Mode mode;
  int topology;  // 0 = clique, 1 = grid, 2 = ring
};

class SimulationSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SimulationSweep, ProtocolInvariants) {
  const SweepParam p = GetParam();
  const std::size_t n = p.topology == 1 ? 9 : 6;
  const auto nodes = paper_nodes(n);
  const model::Topology topo =
      p.topology == 0   ? model::Topology::clique(n)
      : p.topology == 1 ? model::Topology::grid(3, 3)
                        : model::Topology::ring(n);
  SimConfig cfg;
  cfg.variant = p.variant;
  cfg.mode = p.mode;
  cfg.sigma = 0.5;
  cfg.duration = 8e5;
  cfg.warmup = 3e5;
  cfg.seed = 1234;
  Simulation sim(nodes, topo, cfg);
  const SimResult r = sim.run();

  // Power stays near the budget; throughput is positive and bounded by the
  // structural maxima; anyput <= groupput <= degree_max * anyput.
  for (const double power : r.avg_power) EXPECT_LT(power, 10.0 * 1.5);
  EXPECT_GT(r.packets_sent, 0u);
  EXPECT_GE(r.groupput, r.anyput - 1e-12);
  EXPECT_LE(r.groupput, static_cast<double>(n - 1) * r.anyput + 1e-12);
  EXPECT_LE(r.anyput, 1.0);
  // Non-capture never extends bursts.
  if (p.variant == Variant::kNonCapture && r.bursts > 0) {
    EXPECT_DOUBLE_EQ(r.burst_lengths.max(), 1.0);
  }
  // Fractions are probabilities.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.listen_fraction[i], 0.0);
    EXPECT_LE(r.listen_fraction[i] + r.transmit_fraction[i], 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantModeTopology, SimulationSweep,
    ::testing::Values(
        SweepParam{Variant::kCapture, Mode::kGroupput, 0},
        SweepParam{Variant::kCapture, Mode::kGroupput, 1},
        SweepParam{Variant::kCapture, Mode::kGroupput, 2},
        SweepParam{Variant::kCapture, Mode::kAnyput, 0},
        SweepParam{Variant::kCapture, Mode::kAnyput, 1},
        SweepParam{Variant::kCapture, Mode::kAnyput, 2},
        SweepParam{Variant::kNonCapture, Mode::kGroupput, 0},
        SweepParam{Variant::kNonCapture, Mode::kGroupput, 1},
        SweepParam{Variant::kNonCapture, Mode::kGroupput, 2},
        SweepParam{Variant::kNonCapture, Mode::kAnyput, 0},
        SweepParam{Variant::kNonCapture, Mode::kAnyput, 1},
        SweepParam{Variant::kNonCapture, Mode::kAnyput, 2}));

TEST(SimulationAccounting, FractionsAndCreditsConsistent) {
  const auto nodes = paper_nodes(5);
  SimConfig cfg = base_config(0.5, 1e6, 55);
  Simulation sim(nodes, model::Topology::clique(5), cfg);
  const SimResult r = sim.run();
  // Total transmit fraction should match packets sent (unit packets).
  double beta_sum = 0.0;
  for (const double b : r.transmit_fraction) beta_sum += b;
  EXPECT_NEAR(beta_sum * r.measured_window,
              static_cast<double>(r.packets_sent), 60.0);
  // Groupput cannot exceed total listen time.
  double alpha_sum = 0.0;
  for (const double a : r.listen_fraction) alpha_sum += a;
  EXPECT_LE(r.groupput, alpha_sum + 1e-9);
  // Anyput <= groupput <= (N-1) anyput.
  EXPECT_LE(r.anyput, r.groupput + 1e-12);
  EXPECT_LE(r.groupput, 4.0 * r.anyput + 1e-12);
}

}  // namespace
