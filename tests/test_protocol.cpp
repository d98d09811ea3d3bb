// Tests for the protocol layer: the name table and the up-front spec check,
// protocol::run's equivalence against the direct module calls (same seed →
// bit-identical values), network-requirement validation, and the sweep-axis
// specialization helper.
#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <variant>

#include "baselines/birthday.h"
#include "baselines/panda.h"
#include "baselines/searchlight.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "protocol/protocol.h"

namespace {

using namespace econcast;
using protocol::ProtocolSpec;
using protocol::SimResult;

const model::NodeSet& paper_nodes() {
  static const model::NodeSet nodes =
      model::homogeneous(5, 10.0, 500.0, 500.0);
  return nodes;
}

// -------------------------------------------------------------- name table --

TEST(ProtocolNames, BuiltinsRegistered) {
  const char* const names[] = {"econcast", "econcast-p4",
                               "oracle",   "panda",
                               "birthday", "searchlight-bound",
                               "econcast-testbed"};
  // One name per ProtocolParams alternative, in alternative order, and each
  // name maps back to its own alternative.
  ASSERT_EQ(std::size(names), std::variant_size_v<protocol::ProtocolParams>);
  for (std::size_t i = 0; i < std::size(names); ++i) {
    SCOPED_TRACE(names[i]);
    const auto params = protocol::params_for(names[i]);
    ASSERT_TRUE(params.has_value());
    EXPECT_EQ(params->index(), i);
    EXPECT_EQ(protocol::protocol_name(*params), names[i]);
    EXPECT_NO_THROW(protocol::check(ProtocolSpec{names[i], *params, 1}));
  }
  EXPECT_FALSE(protocol::params_for("carrier-pigeon").has_value());
  EXPECT_FALSE(protocol::params_for("").has_value());
  // The spec constructors and the default spec carry matching names.
  for (const ProtocolSpec& spec :
       {ProtocolSpec{}, protocol::econcast_spec({}),
        protocol::p4_spec(model::Mode::kGroupput, 0.5),
        protocol::oracle_spec(model::Mode::kGroupput), protocol::panda_spec(),
        protocol::birthday_spec(), protocol::searchlight_spec(),
        protocol::testbed_spec()}) {
    SCOPED_TRACE(spec.name);
    EXPECT_EQ(spec.name, protocol::protocol_name(spec.params));
  }
}

TEST(ProtocolNames, UnknownNameThrows) {
  ProtocolSpec spec;
  spec.name = "carrier-pigeon";
  EXPECT_THROW(protocol::check(spec), std::invalid_argument);
  EXPECT_THROW(
      protocol::run(spec, paper_nodes(), model::Topology::clique(5), 1),
      std::invalid_argument);
}

TEST(ProtocolNames, WrongParamsTypeThrows) {
  ProtocolSpec spec = protocol::panda_spec();
  spec.name = "birthday";  // birthday named, PandaParams carried
  EXPECT_THROW(protocol::check(spec), std::invalid_argument);
  EXPECT_THROW(
      protocol::run(spec, paper_nodes(), model::Topology::clique(5), 1),
      std::invalid_argument);
}

// ------------------------------------------------------ run ≡ direct calls --

TEST(ProtocolAdapters, EconCastMatchesDirectSimulation) {
  proto::SimConfig cfg;
  cfg.sigma = 0.5;
  cfg.duration = 2e4;
  cfg.warmup = 1e3;
  const SimResult via_run = protocol::run(
      protocol::econcast_spec(cfg), paper_nodes(), model::Topology::clique(5),
      /*seed=*/321);
  cfg.seed = 321;
  proto::Simulation direct(paper_nodes(), model::Topology::clique(5), cfg);
  const proto::SimResult expected = direct.run();
  EXPECT_EQ(via_run.groupput, expected.groupput);
  EXPECT_EQ(via_run.anyput, expected.anyput);
  EXPECT_EQ(via_run.avg_power, expected.avg_power);
  EXPECT_EQ(via_run.listen_fraction, expected.listen_fraction);
  EXPECT_EQ(via_run.packets_sent, expected.packets_sent);
  EXPECT_EQ(via_run.packets_received, expected.packets_received);
  EXPECT_EQ(via_run.latencies.samples(), expected.latencies.samples());
  EXPECT_EQ(via_run.extra("events_processed"),
            static_cast<double>(expected.events_processed));
  EXPECT_EQ(via_run.extra("bursts"),
            static_cast<double>(expected.bursts));
}

TEST(ProtocolAdapters, PandaAnalyticMatchesOptimizer) {
  const SimResult via_run =
      protocol::run(protocol::panda_spec(), paper_nodes(),
                    model::Topology::clique(5), /*seed=*/1);
  const baselines::PandaDesign design =
      baselines::optimize_panda(5, 10.0, 500.0, 500.0);
  EXPECT_EQ(via_run.groupput, design.throughput);
  ASSERT_EQ(via_run.avg_power.size(), 5u);
  EXPECT_EQ(via_run.avg_power[0], design.power);
  EXPECT_EQ(via_run.extra("wake_rate"), design.wake_rate);
  EXPECT_EQ(via_run.extra("listen_window"), design.listen_window);
}

TEST(ProtocolAdapters, BirthdayAnalyticMatchesOptimizer) {
  const SimResult via_run =
      protocol::run(protocol::birthday_spec(), paper_nodes(),
                    model::Topology::clique(5), /*seed=*/1);
  const baselines::BirthdayDesign design = baselines::optimize_birthday(
      5, 10.0, 500.0, 500.0, model::Mode::kGroupput);
  EXPECT_EQ(via_run.groupput, design.throughput);
  EXPECT_EQ(via_run.extra("p_transmit"), design.p_transmit);
  EXPECT_EQ(via_run.extra("p_listen"), design.p_listen);
}

TEST(ProtocolAdapters, P4AndOracleMatchSolvers) {
  const SimResult p4 =
      protocol::run(protocol::p4_spec(model::Mode::kGroupput, 0.5),
                    paper_nodes(), model::Topology::clique(5), 1);
  EXPECT_EQ(p4.groupput,
            gibbs::solve_p4(paper_nodes(), model::Mode::kGroupput, 0.5)
                .throughput);
  EXPECT_EQ(p4.anyput, 0.0);

  const SimResult t_star =
      protocol::run(protocol::oracle_spec(model::Mode::kGroupput),
                    paper_nodes(), model::Topology::clique(5), 1);
  EXPECT_EQ(t_star.groupput, oracle::groupput(paper_nodes()).throughput);
}

TEST(ProtocolAdapters, SearchlightBoundMatchesAnalysis) {
  const SimResult via_run =
      protocol::run(protocol::searchlight_spec(), paper_nodes(),
                    model::Topology::clique(5), /*seed=*/1);
  baselines::SearchlightConfig cfg;
  cfg.budget = 10.0;
  cfg.listen_power = 500.0;
  const baselines::SearchlightResult expected =
      baselines::analyze_searchlight(cfg);
  EXPECT_EQ(via_run.groupput, expected.groupput_upper_bound(5));
  EXPECT_EQ(via_run.extra("worst_latency_seconds"),
            expected.worst_latency_seconds);
  EXPECT_EQ(via_run.extra("period_slots"),
            static_cast<double>(expected.period_slots));
}

// ---------------------------------------------------- network requirements --

TEST(ProtocolAdapters, BaselinesRejectUnsupportedNetworks) {
  const auto heterogeneous = [] {
    model::NodeSet nodes = model::homogeneous(4, 10.0, 500.0, 500.0);
    nodes[2].budget = 20.0;
    return nodes;
  }();
  const auto homogeneous = model::homogeneous(4, 10.0, 500.0, 500.0);
  const auto clique = model::Topology::clique(4);
  const auto line = model::Topology::line(4);

  for (const ProtocolSpec& spec :
       {protocol::panda_spec(), protocol::birthday_spec(),
        protocol::searchlight_spec()}) {
    SCOPED_TRACE(spec.name);
    EXPECT_THROW(protocol::run(spec, heterogeneous, clique, 1),
                 std::invalid_argument);
    EXPECT_THROW(protocol::run(spec, homogeneous, line, 1),
                 std::invalid_argument);
  }
  // EconCast is the protocol that removes those requirements: it accepts
  // both the heterogeneous population and the non-clique topology.
  proto::SimConfig cfg;
  cfg.duration = 1e3;
  const ProtocolSpec econcast = protocol::econcast_spec(cfg);
  EXPECT_NO_THROW(protocol::run(econcast, heterogeneous, clique, 1));
  EXPECT_NO_THROW(protocol::run(econcast, homogeneous, line, 1));
}

// ------------------------------------------------------------- specialized --

TEST(ProtocolSpecs, SpecializedAppliesModeAndSigmaWhereMeaningful) {
  const auto specialized_econcast = protocol::specialized(
      protocol::econcast_spec({}), model::Mode::kAnyput, 0.25);
  const auto& ec =
      std::get<protocol::EconCastParams>(specialized_econcast.params);
  EXPECT_EQ(ec.config.mode, model::Mode::kAnyput);
  EXPECT_EQ(ec.config.sigma, 0.25);

  const auto specialized_p4 = protocol::specialized(
      protocol::p4_spec(model::Mode::kGroupput, 0.5), model::Mode::kAnyput,
      0.1);
  const auto& p4 = std::get<protocol::P4Params>(specialized_p4.params);
  EXPECT_EQ(p4.mode, model::Mode::kAnyput);
  EXPECT_EQ(p4.sigma, 0.1);

  protocol::PandaParams panda_params;
  panda_params.wake_rate = 0.5;
  const auto specialized_panda = protocol::specialized(
      protocol::panda_spec(panda_params), model::Mode::kAnyput, 0.1);
  EXPECT_EQ(std::get<protocol::PandaParams>(specialized_panda.params).wake_rate,
            0.5);  // untouched: Panda has no mode/σ knob

  const auto specialized_birthday = protocol::specialized(
      protocol::birthday_spec(), model::Mode::kAnyput, 0.1);
  EXPECT_EQ(std::get<protocol::BirthdayParams>(specialized_birthday.params).mode,
            model::Mode::kAnyput);
}

}  // namespace
