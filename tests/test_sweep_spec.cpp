// Tests for the declarative sweep builder: cross-product size and order,
// deterministic naming, cell_index round-trips, axis specialization of the
// protocol parameters, named topology and node-set kinds, and validation.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/scenario_runner.h"
#include "runner/sweep_spec.h"

namespace {

using namespace econcast;
using runner::Scenario;
using runner::SweepSpec;

TEST(SweepSpec, DefaultsToSinglePaperCell) {
  const SweepSpec sweep("one");
  EXPECT_EQ(sweep.cell_count(), 1u);
  const std::vector<Scenario> batch = sweep.expand();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].nodes.size(), 5u);
  EXPECT_EQ(batch[0].topology.size(), 5u);
  EXPECT_TRUE(batch[0].topology.is_clique());
  EXPECT_EQ(batch[0].protocol.name, "econcast");
  EXPECT_EQ(batch[0].name, "one/econcast/groupput/N5/rho10_L500_X500/s0.5");
}

TEST(SweepSpec, CrossProductSizeAndIndexRoundTrip) {
  const SweepSpec sweep =
      SweepSpec("grid")
          .protocols({protocol::p4_spec(model::Mode::kGroupput, 0.5),
                      protocol::panda_spec()})
          .modes({model::Mode::kGroupput, model::Mode::kAnyput})
          .node_counts({3, 5, 10})
          .powers({{10.0, 500.0, 500.0}, {10.0, 900.0, 100.0}})
          .sigmas({0.25, 0.5})
          .replicates(3);
  EXPECT_EQ(sweep.cell_count(), 2u * 2u * 3u * 2u * 2u * 3u);
  const std::vector<Scenario> batch = sweep.expand();
  ASSERT_EQ(batch.size(), sweep.cell_count());

  // Every cell index lands on a scenario whose axes match the arguments.
  const std::size_t i = sweep.cell_index(1, 1, 2, 1, 0, 0, 2);
  const Scenario& s = batch[i];
  EXPECT_EQ(s.protocol.name, "panda");
  EXPECT_EQ(s.nodes.size(), 10u);
  EXPECT_EQ(s.nodes[0].listen_power, 900.0);
  EXPECT_NE(s.name.find("/s0.25"), std::string::npos) << s.name;
  EXPECT_NE(s.name.find("/r2"), std::string::npos) << s.name;

  // Indices enumerate the batch exactly once.
  std::set<std::size_t> seen;
  for (std::size_t p = 0; p < 2; ++p)
    for (std::size_t m = 0; m < 2; ++m)
      for (std::size_t n = 0; n < 3; ++n)
        for (std::size_t pw = 0; pw < 2; ++pw)
          for (std::size_t sg = 0; sg < 2; ++sg)
            for (std::size_t r = 0; r < 3; ++r)
              seen.insert(sweep.cell_index(p, m, n, pw, 0, sg, r));
  EXPECT_EQ(seen.size(), batch.size());
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), batch.size() - 1);

  EXPECT_THROW(sweep.cell_index(2), std::out_of_range);
  EXPECT_THROW(sweep.cell_index(0, 0, 0, 0, 1), std::out_of_range);
  EXPECT_THROW(sweep.cell_index(0, 0, 0, 0, 0, 0, 3), std::out_of_range);
}

TEST(SweepSpec, ExpansionIsDeterministic) {
  const auto make = [] {
    return SweepSpec("det")
        .protocols({protocol::econcast_spec({}), protocol::birthday_spec()})
        .node_counts({4, 6})
        .sigmas({0.25, 0.5, 0.75})
        .replicates(2);
  };
  const std::vector<Scenario> a = make().expand();
  const std::vector<Scenario> b = make().expand();
  ASSERT_EQ(a.size(), b.size());
  std::set<std::string> names;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    names.insert(a[i].name);
  }
  EXPECT_EQ(names.size(), a.size()) << "scenario names must be unique";
}

TEST(SweepSpec, AxesSpecializeProtocolParams) {
  const SweepSpec sweep =
      SweepSpec("spec")
          .protocols({protocol::econcast_spec({}),
                      protocol::p4_spec(model::Mode::kGroupput, 0.5)})
          .modes({model::Mode::kAnyput})
          .sigmas({0.1});
  const std::vector<Scenario> batch = sweep.expand();
  ASSERT_EQ(batch.size(), 2u);
  const auto& econcast =
      std::get<protocol::EconCastParams>(batch[0].protocol.params);
  EXPECT_EQ(econcast.config.mode, model::Mode::kAnyput);
  EXPECT_EQ(econcast.config.sigma, 0.1);
  const auto& p4 = std::get<protocol::P4Params>(batch[1].protocol.params);
  EXPECT_EQ(p4.mode, model::Mode::kAnyput);
  EXPECT_EQ(p4.sigma, 0.1);
}

TEST(SweepSpec, SampledNodeSetPairsNetworksAcrossCells) {
  // The fig2 design: every (protocol, mode, σ) cell at a given
  // (h, replicate) must see the identical §VII-B network, and that network
  // must be exactly the replicate-th draw of the per-h model stream.
  const SweepSpec sweep =
      SweepSpec("het")
          .protocols({protocol::p4_spec(model::Mode::kGroupput, 0.5),
                      protocol::oracle_spec(model::Mode::kGroupput)})
          .modes({model::Mode::kGroupput, model::Mode::kAnyput})
          .sigmas({0.25, 0.5})
          .replicates(3)
          .sampled_node_set({50.0, 150.0}, /*sample_seed=*/99);
  EXPECT_EQ(sweep.node_set_kind(), "sampled");
  EXPECT_EQ(sweep.cell_count(), 2u * 2u * 1u * 1u * 2u * 2u * 3u);
  const std::vector<Scenario> batch = sweep.expand();
  ASSERT_EQ(batch.size(), sweep.cell_count());

  const auto same_nodes = [](const model::NodeSet& a,
                             const model::NodeSet& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].budget != b[i].budget ||
          a[i].listen_power != b[i].listen_power ||
          a[i].transmit_power != b[i].transmit_power)
        return false;
    return true;
  };

  for (std::size_t h_i = 0; h_i < 2; ++h_i) {
    const double h = h_i == 0 ? 50.0 : 150.0;
    util::Rng rng(runner::derive_seed(99, static_cast<std::uint64_t>(h)));
    const auto stream = model::sample_heterogeneous_batch(5, h, 3, rng);
    for (std::size_t r = 0; r < 3; ++r) {
      const model::NodeSet& expected = stream[r];
      for (std::size_t p = 0; p < 2; ++p)
        for (std::size_t m = 0; m < 2; ++m)
          for (std::size_t sg = 0; sg < 2; ++sg) {
            const Scenario& s =
                batch[sweep.cell_index(p, m, 0, 0, h_i, sg, r)];
            EXPECT_TRUE(same_nodes(s.nodes, expected))
                << s.name << " at h=" << h << " r=" << r;
          }
    }
    // Replicates are distinct draws, not copies.
    EXPECT_FALSE(same_nodes(stream[0], stream[1]));
  }

  // h shows up in the cell names (and only for the sampled kind).
  EXPECT_NE(batch[0].name.find("/h50/"), std::string::npos) << batch[0].name;
  EXPECT_NE(batch[sweep.cell_index(0, 0, 0, 0, 1)].name.find("/h150/"),
            std::string::npos);
}

TEST(SweepSpec, NamedNodeSetSetterResetsHeterogeneityAxis) {
  SweepSpec sweep("reset");
  sweep.sampled_node_set({10.0, 100.0, 250.0}, 7);
  EXPECT_EQ(sweep.cell_count(), 3u);
  sweep.node_set("homogeneous");
  EXPECT_EQ(sweep.node_set_kind(), "homogeneous");
  EXPECT_EQ(sweep.cell_count(), 1u);  // h axis back to its degenerate value
  EXPECT_EQ(sweep.expand()[0].name,
            "reset/econcast/groupput/N5/rho10_L500_X500/s0.5");

  EXPECT_THROW(sweep.node_set("exotic"), std::invalid_argument);
  // "sampled" needs its parameters; the string form points at the right API.
  EXPECT_THROW(sweep.node_set("sampled"), std::invalid_argument);
  EXPECT_THROW(sweep.sampled_node_set({}, 7), std::invalid_argument);
  // h outside the §VII-B range is caught by validate()/expand().
  EXPECT_THROW(SweepSpec("bad-h").sampled_node_set({5.0}, 1).expand(),
               std::invalid_argument);
  // Sampled networks ignore the power point, so a multi-power sampled sweep
  // would be bitwise-duplicate cells under distinct names — rejected.
  EXPECT_THROW(SweepSpec("dup")
                   .powers({{10.0, 500.0, 500.0}, {10.0, 900.0, 100.0}})
                   .sampled_node_set({50.0}, 1)
                   .validate(),
               std::invalid_argument);
}

TEST(SweepSpec, EdgeListTopologyExpandsAndValidates) {
  const runner::EdgeList ring{{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const SweepSpec sweep =
      SweepSpec("ring4").node_counts({4}).topology(4, ring);
  EXPECT_EQ(sweep.topology_kind(), "edge_list");
  EXPECT_EQ(sweep.edge_list_nodes(), 4u);
  const std::vector<Scenario> batch = sweep.expand();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].topology.size(), 4u);
  EXPECT_EQ(batch[0].topology.edge_count(), 4u);
  EXPECT_TRUE(batch[0].topology.adjacent(3, 0));
  EXPECT_FALSE(batch[0].topology.adjacent(0, 2));

  // The node-count axis must match the explicit graph.
  EXPECT_THROW(SweepSpec("bad").node_counts({5}).topology(4, ring).expand(),
               std::invalid_argument);
  // Bad graphs are rejected at set time.
  EXPECT_THROW(SweepSpec("loop").topology(3, {{1, 1}}),
               std::invalid_argument);
  // The named-kind setter cannot produce an edge list.
  EXPECT_THROW(SweepSpec("named").topology("edge_list"),
               std::invalid_argument);
}

TEST(SweepSpec, NamedTopologyKindsExpandToTheirGraphs) {
  // Every cell's topology is built from the spec's named kind alone, on
  // each node count of the axis.
  const std::pair<const char*, model::Topology (*)(std::size_t)> kinds[] = {
      {"clique", &model::Topology::clique},
      {"line", &model::Topology::line},
      {"ring", &model::Topology::ring},
      {"grid", [](std::size_t n) { return model::Topology::grid(3, n / 3); }},
  };
  for (const auto& [kind, make] : kinds) {
    SCOPED_TRACE(kind);
    const std::vector<Scenario> batch =
        SweepSpec("kinds").topology(kind).node_counts({9}).expand();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].topology.edges(), make(9).edges());
  }
}

TEST(SweepSpec, GridValidationNamesTheOffendingCount) {
  SweepSpec sweep("g");
  sweep.topology("grid").node_counts({9, 7});
  try {
    sweep.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos) << e.what();
  }
  EXPECT_THROW(sweep.expand(), std::invalid_argument);
  sweep.node_counts({9, 16});
  EXPECT_NO_THROW(sweep.validate());
}

TEST(SweepSpec, PowerRatioAxisMatchesFig3Construction) {
  const auto points = runner::power_ratio_axis({1.0 / 9, 1.0, 9.0}, 10.0,
                                               1000.0);
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_EQ(p.budget, 10.0);
    EXPECT_NEAR(p.listen_power + p.transmit_power, 1000.0, 1e-9);
  }
  EXPECT_NEAR(points[0].transmit_power / points[0].listen_power, 1.0 / 9,
              1e-12);
  EXPECT_NEAR(points[1].listen_power, 500.0, 1e-9);
  EXPECT_NEAR(points[2].transmit_power / points[2].listen_power, 9.0, 1e-9);
  EXPECT_THROW(runner::power_ratio_axis({0.0}, 10.0, 1000.0),
               std::invalid_argument);
}

TEST(SweepSpec, RejectsEmptyAxesAndZeroReplicates) {
  SweepSpec sweep("bad");
  EXPECT_THROW(sweep.protocols({}), std::invalid_argument);
  EXPECT_THROW(sweep.modes({}), std::invalid_argument);
  EXPECT_THROW(sweep.node_counts({}), std::invalid_argument);
  EXPECT_THROW(sweep.powers({}), std::invalid_argument);
  EXPECT_THROW(sweep.sigmas({}), std::invalid_argument);
  EXPECT_THROW(sweep.replicates(0), std::invalid_argument);
}

TEST(SweepSpec, ExpandedBatchRunsMixedProtocols) {
  // End-to-end: a tiny mixed sweep through the runner, bit-identical across
  // thread counts (the SweepSpec + derive_seed determinism contract).
  proto::SimConfig cfg;
  cfg.duration = 1e4;
  cfg.warmup = 1e3;
  protocol::TestbedParams testbed;
  testbed.duration_ms = 10.0 * 60.0 * 1000.0;
  testbed.warmup_ms = 60.0 * 1000.0;
  const SweepSpec sweep = SweepSpec("mix")
                              .protocols({protocol::econcast_spec(cfg),
                                          protocol::testbed_spec(testbed),
                                          protocol::oracle_spec(
                                              model::Mode::kGroupput)})
                              .node_counts({4})
                              .sigmas({0.5})
                              .replicates(2);
  const auto batch = sweep.expand();
  const auto serial = runner::ScenarioRunner({1, 11, true}).run(batch);
  const auto parallel = runner::ScenarioRunner({4, 11, true}).run(batch);
  ASSERT_EQ(serial.results.size(), 6u);
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].groupput, parallel.results[i].groupput);
    EXPECT_EQ(serial.results[i].packets_received,
              parallel.results[i].packets_received);
  }
  // Replicates differ by derived seed only — the oracle cells (analytic)
  // must agree exactly, the stochastic cells should not.
  EXPECT_EQ(serial.results[sweep.cell_index(2, 0, 0, 0, 0, 0, 0)].groupput,
            serial.results[sweep.cell_index(2, 0, 0, 0, 0, 0, 1)].groupput);
}

}  // namespace
