// Built-in Protocol adapters: EconCast (discrete-event sim, P4 analytic,
// testbed firmware), the prior-art baselines (Panda, Birthday, the
// Searchlight bound) and the oracle, all mapped onto the unified
// protocol::SimResult so runner::ScenarioRunner can mix them in one batch.
#include <cmath>
#include <stdexcept>
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

void require_clique(const model::Topology& topology, const char* protocol) {
  if (!topology.is_clique())
    throw std::invalid_argument(std::string(protocol) +
                                ": requires a clique topology");
}

const model::NodeParams& require_homogeneous(const model::NodeSet& nodes,
                                             const char* protocol) {
  if (nodes.empty())
    throw std::invalid_argument(std::string(protocol) + ": empty node set");
  if (!model::is_homogeneous(nodes))
    throw std::invalid_argument(
        std::string(protocol) +
        ": requires homogeneous nodes (one of the coordination requirements "
        "EconCast removes)");
  return nodes.front();
}

template <typename Params>
const Params& expect_params(const ProtocolParams& params,
                            const char* protocol) {
  const Params* p = std::get_if<Params>(&params);
  if (p == nullptr)
    throw std::invalid_argument(std::string("protocol '") + protocol +
                                "': ProtocolSpec carries parameters of the "
                                "wrong type");
  return *p;
}

/// A Sim whose whole run is one deferred computation (the analytic
/// protocols and the thin simulator wrappers below).
class LambdaSim final : public Sim {
 public:
  explicit LambdaSim(std::function<SimResult()> fn) : fn_(std::move(fn)) {}
  SimResult run() override { return fn_(); }

 private:
  std::function<SimResult()> fn_;
};

std::vector<double> power_from_fractions(const model::NodeSet& nodes,
                                         const std::vector<double>& alpha,
                                         const std::vector<double>& beta) {
  std::vector<double> power(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    power[i] =
        alpha[i] * nodes[i].listen_power + beta[i] * nodes[i].transmit_power;
  return power;
}

// --------------------------------------------------------------- econcast --

class EconCastProtocol final : public Protocol {
 public:
  explicit EconCastProtocol(EconCastParams params)
      : params_(std::move(params)) {}

  std::string name() const override { return "econcast"; }

  std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                const model::Topology& topology,
                                std::uint64_t seed) const override {
    proto::SimConfig config = params_.config;
    config.seed = seed;
    return std::make_unique<LambdaSim>(
        [sim = std::make_shared<proto::Simulation>(nodes, topology,
                                                   std::move(config))] {
          proto::SimResult r = sim->run();
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
          out.extras["events_processed"] =
              static_cast<double>(r.events_processed);
          return out;
        });
  }

 private:
  EconCastParams params_;
};

// ------------------------------------------------------------ econcast-p4 --

class P4Protocol final : public Protocol {
 public:
  explicit P4Protocol(P4Params params) : params_(params) {}

  std::string name() const override { return "econcast-p4"; }

  std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                const model::Topology& topology,
                                std::uint64_t /*seed*/) const override {
    require_clique(topology, "econcast-p4");
    return std::make_unique<LambdaSim>([nodes, params = params_] {
      const gibbs::P4Result p4 =
          gibbs::solve_p4(nodes, params.mode, params.sigma);
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
    });
  }

 private:
  P4Params params_;
};

// ----------------------------------------------------------------- oracle --

class OracleProtocol final : public Protocol {
 public:
  explicit OracleProtocol(OracleParams params) : params_(params) {}

  std::string name() const override { return "oracle"; }

  std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                const model::Topology& topology,
                                std::uint64_t /*seed*/) const override {
    require_clique(topology, "oracle");
    return std::make_unique<LambdaSim>([nodes, params = params_] {
      const oracle::OracleSolution sol = oracle::solve(nodes, params.mode);
      SimResult out;
      (params.mode == model::Mode::kGroupput ? out.groupput : out.anyput) =
          sol.throughput;
      out.avg_power = power_from_fractions(nodes, sol.alpha, sol.beta);
      out.listen_fraction = sol.alpha;
      out.transmit_fraction = sol.beta;
      return out;
    });
  }

 private:
  OracleParams params_;
};

// ------------------------------------------------------------------ panda --

class PandaProtocol final : public Protocol {
 public:
  explicit PandaProtocol(PandaParams params) : params_(params) {}

  std::string name() const override { return "panda"; }

  std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                const model::Topology& topology,
                                std::uint64_t seed) const override {
    require_clique(topology, "panda");
    const model::NodeParams node = require_homogeneous(nodes, "panda");
    const std::size_t n = nodes.size();

    baselines::PandaDesign design;
    if (params_.optimize) {
      design = baselines::optimize_panda(n, node.budget, node.listen_power,
                                         node.transmit_power);
    } else {
      design.wake_rate = params_.wake_rate;
      design.listen_window = params_.listen_window;
      design.throughput = baselines::panda_throughput(n, design.wake_rate,
                                                      design.listen_window);
      design.power =
          baselines::panda_power(n, design.wake_rate, design.listen_window,
                                 node.listen_power, node.transmit_power);
    }

    if (!params_.simulate) {
      return std::make_unique<LambdaSim>([n, design] {
        SimResult out;
        out.groupput = design.throughput;
        out.avg_power.assign(n, design.power);
        out.extras["wake_rate"] = design.wake_rate;
        out.extras["listen_window"] = design.listen_window;
        return out;
      });
    }
    return std::make_unique<LambdaSim>(
        [n, node, design, duration = params_.duration, seed] {
          const baselines::PandaSimDetail d = baselines::simulate_panda_detailed(
              n, design.wake_rate, design.listen_window, duration, seed);
          SimResult out;
          out.measured_window = d.duration;
          out.groupput = static_cast<double>(d.receptions) / d.duration;
          out.anyput = static_cast<double>(d.packets_received_any) / d.duration;
          out.packets_sent = d.packets;
          out.packets_received = d.receptions;
          out.listen_fraction.resize(n);
          out.transmit_fraction.resize(n);
          out.avg_power.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            out.listen_fraction[i] = d.listen_time[i] / d.duration;
            out.transmit_fraction[i] = d.transmit_time[i] / d.duration;
            out.avg_power[i] =
                out.listen_fraction[i] * node.listen_power +
                out.transmit_fraction[i] * node.transmit_power;
          }
          out.extras["wake_rate"] = design.wake_rate;
          out.extras["listen_window"] = design.listen_window;
          return out;
        });
  }

 private:
  PandaParams params_;
};

// --------------------------------------------------------------- birthday --

class BirthdayProtocol final : public Protocol {
 public:
  explicit BirthdayProtocol(BirthdayParams params) : params_(params) {}

  std::string name() const override { return "birthday"; }

  std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                const model::Topology& topology,
                                std::uint64_t seed) const override {
    require_clique(topology, "birthday");
    const model::NodeParams node = require_homogeneous(nodes, "birthday");
    const std::size_t n = nodes.size();

    double p_transmit = params_.p_transmit;
    double p_listen = params_.p_listen;
    if (params_.optimize) {
      const baselines::BirthdayDesign design = baselines::optimize_birthday(
          n, node.budget, node.listen_power, node.transmit_power,
          params_.mode);
      p_transmit = design.p_transmit;
      p_listen = design.p_listen;
    }

    if (!params_.simulate) {
      return std::make_unique<LambdaSim>([n, node, p_transmit, p_listen] {
        SimResult out;
        out.groupput = baselines::birthday_throughput(
            n, p_transmit, p_listen, model::Mode::kGroupput);
        out.anyput = baselines::birthday_throughput(n, p_transmit, p_listen,
                                                    model::Mode::kAnyput);
        out.listen_fraction.assign(n, p_listen);
        out.transmit_fraction.assign(n, p_transmit);
        out.avg_power.assign(n, p_listen * node.listen_power +
                                    p_transmit * node.transmit_power);
        out.extras["p_transmit"] = p_transmit;
        out.extras["p_listen"] = p_listen;
        return out;
      });
    }
    return std::make_unique<LambdaSim>(
        [n, node, p_transmit, p_listen, slots = params_.slots, seed] {
          const baselines::BirthdaySimDetail d =
              baselines::simulate_birthday_detailed(n, p_transmit, p_listen,
                                                    slots, seed);
          const double window = static_cast<double>(d.slots);
          SimResult out;
          out.measured_window = window;
          out.groupput = d.groupput_credit / window;
          out.anyput = d.anyput_credit / window;
          out.packets_sent = d.packets;
          out.packets_received =
              static_cast<std::uint64_t>(d.groupput_credit);
          out.listen_fraction.resize(n);
          out.transmit_fraction.resize(n);
          out.avg_power.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            out.listen_fraction[i] =
                static_cast<double>(d.listen_slots[i]) / window;
            out.transmit_fraction[i] =
                static_cast<double>(d.transmit_slots[i]) / window;
            out.avg_power[i] =
                out.listen_fraction[i] * node.listen_power +
                out.transmit_fraction[i] * node.transmit_power;
          }
          out.extras["p_transmit"] = p_transmit;
          out.extras["p_listen"] = p_listen;
          return out;
        });
  }

 private:
  BirthdayParams params_;
};

// ------------------------------------------------------ searchlight-bound --

class SearchlightBoundProtocol final : public Protocol {
 public:
  explicit SearchlightBoundProtocol(SearchlightParams params)
      : params_(params) {}

  std::string name() const override { return "searchlight-bound"; }

  std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                const model::Topology& topology,
                                std::uint64_t /*seed*/) const override {
    require_clique(topology, "searchlight-bound");
    const model::NodeParams node =
        require_homogeneous(nodes, "searchlight-bound");
    baselines::SearchlightConfig config;
    config.budget = node.budget;
    config.listen_power = node.listen_power;
    config.slot_seconds = params_.slot_seconds;
    config.beacon_seconds = params_.beacon_seconds;
    return std::make_unique<LambdaSim>([n = nodes.size(), config] {
      const baselines::SearchlightResult r =
          baselines::analyze_searchlight(config);
      SimResult out;
      out.groupput = r.groupput_upper_bound(n);
      out.extras["period_slots"] = static_cast<double>(r.period_slots);
      out.extras["duty_cycle"] = r.duty_cycle;
      out.extras["worst_latency_seconds"] = r.worst_latency_seconds;
      out.extras["mean_latency_seconds"] = r.mean_latency_seconds;
      out.extras["rendezvous_per_second"] = r.rendezvous_per_second;
      out.extras["pairwise_throughput"] = r.pairwise_throughput;
      return out;
    });
  }

 private:
  SearchlightParams params_;
};

// ------------------------------------------------------- econcast-testbed --

class TestbedProtocol final : public Protocol {
 public:
  explicit TestbedProtocol(TestbedParams params) : params_(params) {}

  std::string name() const override { return "econcast-testbed"; }

  std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                const model::Topology& topology,
                                std::uint64_t seed) const override {
    require_clique(topology, "econcast-testbed");
    const model::NodeParams node =
        require_homogeneous(nodes, "econcast-testbed");
    testbed::TestbedConfig config;
    config.n = nodes.size();
    config.budget_mw = node.budget;
    config.hw.listen_power_mw = node.listen_power;
    config.hw.transmit_power_mw = node.transmit_power;
    config.sigma = params_.sigma;
    config.duration_ms = params_.duration_ms;
    config.warmup_ms = params_.warmup_ms;
    config.observer = params_.observer;
    config.seed = seed;
    return std::make_unique<LambdaSim>([config] {
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
      out.extras["pings_lost_decode"] =
          static_cast<double>(r.pings_lost_decode);
      return out;
    });
  }

 private:
  TestbedParams params_;
};

template <typename ProtocolT, typename ParamsT>
ProtocolRegistry::Factory make_factory(const char* name) {
  return [name](const ProtocolParams& params) {
    return std::make_shared<ProtocolT>(expect_params<ParamsT>(params, name));
  };
}

}  // namespace

void register_builtin_protocols(ProtocolRegistry& registry) {
  registry.add("econcast",
               make_factory<EconCastProtocol, EconCastParams>("econcast"));
  registry.add("econcast-p4",
               make_factory<P4Protocol, P4Params>("econcast-p4"));
  registry.add("oracle", make_factory<OracleProtocol, OracleParams>("oracle"));
  registry.add("panda", make_factory<PandaProtocol, PandaParams>("panda"));
  registry.add("birthday",
               make_factory<BirthdayProtocol, BirthdayParams>("birthday"));
  registry.add("searchlight-bound",
               make_factory<SearchlightBoundProtocol, SearchlightParams>(
                   "searchlight-bound"));
  registry.add("econcast-testbed",
               make_factory<TestbedProtocol, TestbedParams>(
                   "econcast-testbed"));
}

}  // namespace econcast::protocol
