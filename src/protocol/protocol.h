// The protocols the paper compares, as one closed set. Every figure
// overlays EconCast against Panda, Birthday and Searchlight under identical
// (N, ρ, L, X) settings, so each protocol is one alternative of
// `ProtocolParams`, and `run` executes any of them on (nodes, topology,
// seed) and reports the same `SimResult` shape. A `ProtocolSpec` pairs the
// parameters with the name manifests, cache keys and diagnostics spell the
// protocol with; one table in protocol.cpp ties each name to its
// alternative (protocol_name, params_for). runner::ScenarioRunner executes
// any mix of them in one batch under one determinism contract.
//
// Analytic baselines (the Panda/Birthday closed-form optima, the Searchlight
// bound, the P4 achievable throughput, the oracle) run the same way: they
// ignore the seed and return the deterministic model values, which is
// exactly how the paper's Fig. 3 / Table III columns are defined.
#ifndef ECONCAST_PROTOCOL_PROTOCOL_H
#define ECONCAST_PROTOCOL_PROTOCOL_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "econcast/simulation.h"
#include "model/network.h"
#include "model/node_params.h"
#include "model/state_space.h"
#include "util/stats.h"

namespace econcast::protocol {

/// The metric surface every protocol reports. Fields a protocol does not
/// measure stay at their empty defaults; protocol-specific scalars (wake
/// rate, ping losses, iteration counts, ...) go into `extras`.
struct SimResult {
  double measured_window = 0.0;  // simulated time covered (0 for analytic)
  double groupput = 0.0;         // received packet-time per unit time
  double anyput = 0.0;

  std::vector<double> avg_power;          // measured consumption per node
  std::vector<double> listen_fraction;    // measured α_i
  std::vector<double> transmit_fraction;  // measured β_i

  util::RunningStats burst_lengths;  // packets per received burst
  util::SampleSet latencies;         // inter-delivery gaps (protocol units)

  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;

  /// Protocol-specific scalars, keyed by stable snake_case names (e.g.
  /// "events_processed", "wake_rate", "worst_latency_seconds").
  std::map<std::string, double> extras;

  /// extras[key], or `fallback` when the protocol did not report it.
  double extra(const std::string& key, double fallback = 0.0) const;
};

// ---------------------------------------------------------------------------
// Typed per-protocol parameters. A ProtocolSpec pairs one of these with the
// name of its protocol; check() rejects any other name.
// ---------------------------------------------------------------------------

/// EconCast: the §V discrete-event simulation (config.seed is overridden
/// by the per-run seed).
struct EconCastParams {
  proto::SimConfig config;
};

/// EconCast's analytic achievable throughput T^σ via the (P4) solver — the
/// curve the paper normalizes everything against.
struct P4Params {
  model::Mode mode = model::Mode::kGroupput;
  double sigma = 0.5;
};

/// The oracle: the centralized upper bound T* ((P2)/(P3) LPs).
struct OracleParams {
  model::Mode mode = model::Mode::kGroupput;
};

/// Panda: Margolies et al. neighbor discovery, reported as its
/// renewal-reward model values. With `optimize` the (λ, w) design is
/// derived from the node budget/powers (the paper's comparison point);
/// otherwise `wake_rate`/`listen_window` are used as given.
struct PandaParams {
  bool optimize = true;
  double wake_rate = 0.0;
  double listen_window = 0.0;
};

/// Birthday: McGlynn & Borbash slotted discovery, reported as its closed
/// form. Same optimize split as Panda.
struct BirthdayParams {
  model::Mode mode = model::Mode::kGroupput;
  bool optimize = true;
  double p_transmit = 0.0;
  double p_listen = 0.0;
};

/// The Searchlight bound: the paper's Searchlight groupput upper bound
/// ((N-1) × pairwise throughput) plus the latency analysis. Budget and
/// listen power come from the (homogeneous) node set; slot and beacon
/// lengths are protocol constants.
struct SearchlightParams {
  double slot_seconds = 0.050;
  double beacon_seconds = 0.001;
};

/// The EconCast testbed: the eZ430 firmware emulation of §VIII (mW units,
/// real milliseconds; groupput is converted back to the theory's units).
struct TestbedParams {
  double sigma = 0.25;
  double duration_ms = 4.0 * 3600.0 * 1000.0;
  double warmup_ms = 20.0 * 60.0 * 1000.0;
  bool observer = true;
};

using ProtocolParams =
    std::variant<EconCastParams, P4Params, OracleParams, PandaParams,
                 BirthdayParams, SearchlightParams, TestbedParams>;

/// A serialization-ready protocol reference: protocol name + typed
/// parameters. This is what runner::Scenario carries, so one batch can mix
/// protocols freely.
struct ProtocolSpec {
  std::string name = "econcast";
  ProtocolParams params = EconCastParams{};

  /// Seed used when the runner's batch reseeding is disabled (reseed=false)
  /// and the parameter struct does not carry its own seed — see
  /// effective_seed. With reseeding on, the runner derives the seed from
  /// (base_seed, index) and both fields are ignored.
  std::uint64_t seed = 1;
};

/// The seed an unreseeded run of this spec uses. Parameter structs that
/// embed a seed are authoritative (EconCastParams uses config.seed, exactly
/// like a direct proto::Simulation run); every other protocol falls back to
/// spec.seed. This keeps one source of truth per spec — mutating
/// EconCastParams::config.seed after construction behaves as expected.
std::uint64_t effective_seed(const ProtocolSpec& spec) noexcept;

/// Convenience constructors for the built-in protocols.
ProtocolSpec econcast_spec(proto::SimConfig config);
ProtocolSpec p4_spec(model::Mode mode, double sigma);
ProtocolSpec oracle_spec(model::Mode mode);
ProtocolSpec panda_spec(PandaParams params = {});
ProtocolSpec birthday_spec(BirthdayParams params = {});
ProtocolSpec searchlight_spec(SearchlightParams params = {});
ProtocolSpec testbed_spec(TestbedParams params = {});

/// Applies sweep axes to a spec: sets `mode` and `sigma` on parameter
/// structs that have those knobs (EconCast, P4, Birthday [mode only],
/// Testbed [sigma only]) and leaves the others untouched. Used by
/// runner::SweepSpec to cross protocols with mode/σ axes.
ProtocolSpec specialized(ProtocolSpec spec, model::Mode mode, double sigma);

// ---------------------------------------------------------------------------
// Names and execution
// ---------------------------------------------------------------------------

/// The name of the protocol `params` belongs to.
std::string_view protocol_name(const ProtocolParams& params) noexcept;

/// Default parameters of the protocol called `name`, or std::nullopt when
/// no protocol has that name.
std::optional<ProtocolParams> params_for(std::string_view name);

/// Throws std::invalid_argument unless spec.name names the protocol
/// spec.params belongs to (an unknown name, or another protocol's name).
void check(const ProtocolSpec& spec);

/// Runs the protocol of `spec` on one network to completion. Throws
/// std::invalid_argument when check(spec) does or when the protocol cannot
/// operate on the network (e.g. Panda requires a homogeneous clique).
/// Analytic protocols ignore `seed`.
SimResult run(const ProtocolSpec& spec, const model::NodeSet& nodes,
              const model::Topology& topology, std::uint64_t seed);

}  // namespace econcast::protocol

#endif  // ECONCAST_PROTOCOL_PROTOCOL_H
