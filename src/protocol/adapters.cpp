// protocol::run and the seven protocols it dispatches to: EconCast
// (discrete-event sim, P4 analytic, testbed firmware), the prior-art
// baselines (Panda, Birthday, the Searchlight bound) and the oracle, each
// mapped onto the unified protocol::SimResult so runner::ScenarioRunner can
// mix them in one batch.
#include <stdexcept>
#include <string>
#include <utility>

#include "baselines/birthday.h"
#include "baselines/panda.h"
#include "baselines/searchlight.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "protocol/protocol.h"
#include "testbed/firmware.h"

namespace econcast::protocol {

namespace {

// ---------------------------------------------------------------- helpers --

void require_clique(const model::Topology& topology,
                    std::string_view protocol) {
  if (!topology.is_clique())
    throw std::invalid_argument(std::string(protocol) +
                                ": requires a clique topology");
}

const model::NodeParams& require_homogeneous(const model::NodeSet& nodes,
                                             std::string_view protocol) {
  if (nodes.empty())
    throw std::invalid_argument(std::string(protocol) + ": empty node set");
  if (!model::is_homogeneous(nodes))
    throw std::invalid_argument(
        std::string(protocol) +
        ": requires homogeneous nodes (one of the coordination requirements "
        "EconCast removes)");
  return nodes.front();
}

std::vector<double> power_from_fractions(const model::NodeSet& nodes,
                                         const std::vector<double>& alpha,
                                         const std::vector<double>& beta) {
  std::vector<double> power(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    power[i] =
        alpha[i] * nodes[i].listen_power + beta[i] * nodes[i].transmit_power;
  return power;
}

// Each run_one overload runs one protocol; `name` is the protocol's name,
// for the network-requirement errors.

// ----------------------------------------------------------- EconCastParams --

SimResult run_one(const EconCastParams& params, std::string_view /*name*/,
                  const model::NodeSet& nodes, const model::Topology& topology,
                  std::uint64_t seed) {
  proto::SimConfig config = params.config;
  config.seed = seed;
  proto::Simulation sim(nodes, topology, std::move(config));
  proto::SimResult r = sim.run();
  SimResult out;
  out.measured_window = r.measured_window;
  out.groupput = r.groupput;
  out.anyput = r.anyput;
  out.avg_power = std::move(r.avg_power);
  out.listen_fraction = std::move(r.listen_fraction);
  out.transmit_fraction = std::move(r.transmit_fraction);
  out.burst_lengths = r.burst_lengths;
  out.latencies = std::move(r.latencies);
  out.packets_sent = r.packets_sent;
  out.packets_received = r.packets_received;
  out.extras["bursts"] = static_cast<double>(r.bursts);
  out.extras["corrupted_receptions"] =
      static_cast<double>(r.corrupted_receptions);
  out.extras["events_processed"] = static_cast<double>(r.events_processed);
  return out;
}

// ----------------------------------------------------------------- P4Params --

SimResult run_one(const P4Params& params, std::string_view name,
                  const model::NodeSet& nodes, const model::Topology& topology,
                  std::uint64_t /*seed*/) {
  require_clique(topology, name);
  const gibbs::P4Result p4 = gibbs::solve_p4(nodes, params.mode, params.sigma);
  SimResult out;
  (params.mode == model::Mode::kGroupput ? out.groupput : out.anyput) =
      p4.throughput;
  out.avg_power = power_from_fractions(nodes, p4.alpha, p4.beta);
  out.listen_fraction = p4.alpha;
  out.transmit_fraction = p4.beta;
  out.extras["objective"] = p4.objective;
  out.extras["iterations"] = static_cast<double>(p4.iterations);
  out.extras["converged"] = p4.converged ? 1.0 : 0.0;
  return out;
}

// ------------------------------------------------------------- OracleParams --

SimResult run_one(const OracleParams& params, std::string_view name,
                  const model::NodeSet& nodes, const model::Topology& topology,
                  std::uint64_t /*seed*/) {
  require_clique(topology, name);
  const oracle::OracleSolution sol = oracle::solve(nodes, params.mode);
  SimResult out;
  (params.mode == model::Mode::kGroupput ? out.groupput : out.anyput) =
      sol.throughput;
  out.avg_power = power_from_fractions(nodes, sol.alpha, sol.beta);
  out.listen_fraction = sol.alpha;
  out.transmit_fraction = sol.beta;
  return out;
}

// -------------------------------------------------------------- PandaParams --

SimResult run_one(const PandaParams& params, std::string_view name,
                  const model::NodeSet& nodes, const model::Topology& topology,
                  std::uint64_t /*seed*/) {
  require_clique(topology, name);
  const model::NodeParams node = require_homogeneous(nodes, name);
  const std::size_t n = nodes.size();

  baselines::PandaDesign design;
  if (params.optimize) {
    design = baselines::optimize_panda(n, node.budget, node.listen_power,
                                       node.transmit_power);
  } else {
    design.wake_rate = params.wake_rate;
    design.listen_window = params.listen_window;
    design.throughput = baselines::panda_throughput(n, design.wake_rate,
                                                    design.listen_window);
    design.power =
        baselines::panda_power(n, design.wake_rate, design.listen_window,
                               node.listen_power, node.transmit_power);
  }

  SimResult out;
  out.groupput = design.throughput;
  out.avg_power.assign(n, design.power);
  out.extras["wake_rate"] = design.wake_rate;
  out.extras["listen_window"] = design.listen_window;
  return out;
}

// ----------------------------------------------------------- BirthdayParams --

SimResult run_one(const BirthdayParams& params, std::string_view name,
                  const model::NodeSet& nodes, const model::Topology& topology,
                  std::uint64_t /*seed*/) {
  require_clique(topology, name);
  const model::NodeParams node = require_homogeneous(nodes, name);
  const std::size_t n = nodes.size();

  double p_transmit = params.p_transmit;
  double p_listen = params.p_listen;
  if (params.optimize) {
    const baselines::BirthdayDesign design = baselines::optimize_birthday(
        n, node.budget, node.listen_power, node.transmit_power, params.mode);
    p_transmit = design.p_transmit;
    p_listen = design.p_listen;
  }

  SimResult out;
  out.groupput = baselines::birthday_throughput(n, p_transmit, p_listen,
                                                model::Mode::kGroupput);
  out.anyput = baselines::birthday_throughput(n, p_transmit, p_listen,
                                              model::Mode::kAnyput);
  out.listen_fraction.assign(n, p_listen);
  out.transmit_fraction.assign(n, p_transmit);
  out.avg_power.assign(n, p_listen * node.listen_power +
                              p_transmit * node.transmit_power);
  out.extras["p_transmit"] = p_transmit;
  out.extras["p_listen"] = p_listen;
  return out;
}

// -------------------------------------------------------- SearchlightParams --

SimResult run_one(const SearchlightParams& params, std::string_view name,
                  const model::NodeSet& nodes, const model::Topology& topology,
                  std::uint64_t /*seed*/) {
  require_clique(topology, name);
  const model::NodeParams node = require_homogeneous(nodes, name);
  baselines::SearchlightConfig config;
  config.budget = node.budget;
  config.listen_power = node.listen_power;
  config.slot_seconds = params.slot_seconds;
  config.beacon_seconds = params.beacon_seconds;
  const baselines::SearchlightResult r = baselines::analyze_searchlight(config);
  SimResult out;
  out.groupput = r.groupput_upper_bound(nodes.size());
  out.extras["period_slots"] = static_cast<double>(r.period_slots);
  out.extras["duty_cycle"] = r.duty_cycle;
  out.extras["worst_latency_seconds"] = r.worst_latency_seconds;
  out.extras["mean_latency_seconds"] = r.mean_latency_seconds;
  out.extras["rendezvous_per_second"] = r.rendezvous_per_second;
  out.extras["pairwise_throughput"] = r.pairwise_throughput;
  return out;
}

// ------------------------------------------------------------ TestbedParams --

SimResult run_one(const TestbedParams& params, std::string_view name,
                  const model::NodeSet& nodes, const model::Topology& topology,
                  std::uint64_t seed) {
  require_clique(topology, name);
  const model::NodeParams node = require_homogeneous(nodes, name);
  testbed::TestbedConfig config;
  config.n = nodes.size();
  config.budget_mw = node.budget;
  config.hw.listen_power_mw = node.listen_power;
  config.hw.transmit_power_mw = node.transmit_power;
  config.sigma = params.sigma;
  config.duration_ms = params.duration_ms;
  config.warmup_ms = params.warmup_ms;
  config.observer = params.observer;
  config.seed = seed;
  const testbed::TestbedResult r = testbed::run_testbed(config);
  SimResult out;
  out.measured_window = r.measured_window_ms;
  out.groupput = r.groupput;
  out.avg_power = r.actual_power_mw;
  out.packets_sent = r.packets;
  out.extras["bursts"] = static_cast<double>(r.bursts);
  out.extras["battery_ratio_mean"] = r.battery_ratio_mean;
  out.extras["battery_ratio_min"] = r.battery_ratio_min;
  out.extras["battery_ratio_max"] = r.battery_ratio_max;
  out.extras["pings_sent"] = static_cast<double>(r.pings_sent);
  out.extras["pings_lost_collision"] =
      static_cast<double>(r.pings_lost_collision);
  out.extras["pings_lost_decode"] = static_cast<double>(r.pings_lost_decode);
  return out;
}

}  // namespace

SimResult run(const ProtocolSpec& spec, const model::NodeSet& nodes,
              const model::Topology& topology, std::uint64_t seed) {
  check(spec);
  return std::visit(
      [&](const auto& params) {
        return run_one(params, spec.name, nodes, topology, seed);
      },
      spec.params);
}

}  // namespace econcast::protocol
