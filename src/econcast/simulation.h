// Continuous-time discrete-event simulation of a network running EconCast
// (§V). Each node holds exponential sojourn times with the rates of eq. (18),
// gated by carrier sense; the capture variant is packetized via the §V-B
// equivalence (continue with probability 1 - λ_xl per unit packet). Nodes
// adapt their multipliers from energy-storage deltas (eq. (17)).
//
// Works on any topology; on cliques with N <= 16 it can additionally tally
// the empirical network-state occupancy for direct comparison against the
// Gibbs distribution (19) (the Lemma 2 cross-check used by the test suite).
//
// Hot-path layout: the per-node fields the inner loops touch on every event
// (state, state_since, the η mirror, the energy balance) live in parallel
// arrays sized once in the constructor, not in the per-node struct.
// Listener counts come from the channel's incrementally maintained per-node
// counts, and the rate exponentials are memoized between η updates; the
// memo entries are produced by the exact RateController expressions, so
// caching never changes a result bit.
//
// Every node runs the same τ schedule (§V-F; Theorem 1's τ_k = k advances in
// lockstep), so the multiplier intervals of all nodes end together: one
// kIntervalEnd per boundary updates every node's η in node order, then
// re-samples the transition and energy-guard slots of every node that is
// not transmitting. An event drawn for later than the pending boundary
// could therefore never pop. Such an event is drawn (the RNG stream is
// unchanged) but never enters the queue. In a clique that covers most of
// the N - 1 re-samples each carrier toggle triggers; the events that do
// enter keep their relative order, so every result bit is unchanged. Most
// of those draws are decided from their uniform alone, without the
// logarithm (util::Rng::exponential_until), with the exact draw's decision.
//
// The simulation reads the topology only in its constructor: the channel
// keeps the flat adjacency rows it and the non-capture re-samples walk, and
// a packet's lock and unlock loops visit only its burst's audience (the
// neighbours listening when the burst began; see sim::Channel).
#ifndef ECONCAST_ECONCAST_SIMULATION_H
#define ECONCAST_ECONCAST_SIMULATION_H

#include <cstdint>
#include <vector>

#include "econcast/estimator.h"
#include "econcast/multiplier.h"
#include "econcast/rates.h"
#include "model/network.h"
#include "model/node_params.h"
#include "model/state_space.h"
#include "sim/channel.h"
#include "sim/energy.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/node_id.h"
#include "util/stats.h"

namespace econcast::proto {

struct SimConfig {
  model::Mode mode = model::Mode::kGroupput;
  Variant variant = Variant::kCapture;
  double sigma = 0.5;

  MultiplierConfig multiplier;         // shared adaptation parameters
  bool adapt_multiplier = true;        // false: freeze η at its initial value
  std::vector<double> eta_init;        // optional per-node override

  /// Auto-scale the constant step δ to the node's own power scale:
  /// δ_i = auto_step_gain · σ / (L_i · ρ_i). The multiplier's natural scale
  /// is σ/L_i and the storage delta's natural scale per interval is ρ_i·τ,
  /// so this makes the per-interval η drift a fixed fraction of σ/L_i —
  /// eq. (17) is unit-sensitive and the paper leaves the calibration of δ
  /// open ("some small constant δ", §V-F). Ignored for kTheorem1.
  bool auto_step = true;
  double auto_step_gain = 0.02;

  EstimatorConfig estimator;

  double duration = 1e6;   // total simulated packet-times
  double warmup = 0.0;     // metrics discarded before this time
  std::uint64_t seed = 1;
  double initial_energy = 0.0;

  /// Physical-storage guard (off by default to match the paper's idealized
  /// §VII model, where b(t) is unbounded). When enabled, a node whose
  /// storage reaches `guard_floor` browns out: it is forced to sleep (an
  /// in-progress reception is lost) and may not wake again until it has
  /// recharged enough to afford one packet-time of listening. A transmitter
  /// will not extend a burst it cannot pay for. This bounds the giant
  /// captures that unbounded storage permits at small σ.
  ///
  /// Pair the guard with a realistic `initial_energy` — a receiver can only
  /// take bursts it can pay for, so starting at the floor collapses
  /// reception into one-packet snippets. A small storage capacitor's worth
  /// (e.g. ~1000 packet-times of listening, 0.5 mJ at the paper's scale)
  /// makes the guard invisible in steady state while still truncating the
  /// e^{(N-1)/σ}-packet transient captures.
  bool energy_guard = false;
  double guard_floor = 0.0;

  /// Tally time per network state (cliques, N <= 16 only).
  bool track_state_occupancy = false;
};

struct SimResult {
  double measured_window = 0.0;  // duration - warmup
  double groupput = 0.0;         // received packet-time per unit time
  double anyput = 0.0;

  std::vector<double> avg_power;          // measured consumption rate per node
  std::vector<double> listen_fraction;    // measured α_i
  std::vector<double> transmit_fraction;  // measured β_i
  std::vector<double> final_eta;

  util::RunningStats burst_lengths;  // packets per received burst
  util::SampleSet latencies;         // inter-burst gaps incl. >= 1 sleep

  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t bursts = 0;
  std::uint64_t corrupted_receptions = 0;
  /// Events handled by the main loop, counting a multiplier boundary once
  /// per node: queue_stats.pops + (N - 1) × boundaries. Cancelled events
  /// never reach it; they are counted in queue_stats.cancels.
  std::uint64_t events_processed = 0;

  /// Event-queue instrumentation (always collected — it is a handful of
  /// counters). Never part of protocol results.
  sim::QueueStats queue_stats;

  /// Normalized time-in-state (indexed by model::state_index); empty unless
  /// track_state_occupancy was set.
  std::vector<double> state_occupancy;
};

class Simulation {
 public:
  /// Reads `topology` only here: the channel keeps the adjacency it needs.
  Simulation(model::NodeSet nodes, const model::Topology& topology,
             SimConfig config);

  /// Runs to config.duration and collects results. Call once.
  SimResult run();

 private:
  enum class NodeState : std::uint8_t { kSleep, kListen, kTransmit };

  /// Cold per-node state: touched once per multiplier interval or once per
  /// burst, not on every event. The hot fields (state, state_since, η,
  /// energy balance) live in the SoA arrays below.
  struct NodeRuntime {
    MultiplierTracker multiplier;
    double interval_start_level = 0.0;
    // Burst bookkeeping while transmitting:
    std::uint64_t burst_packets = 0;
    bool burst_received_any = false;
    double packet_start = 0.0;

    explicit NodeRuntime(const MultiplierConfig& mc) : multiplier(mc) {}
  };

  // Event handlers.
  void fire_transition(sim::NodeId i);
  void handle_packet_end(sim::NodeId i);
  void handle_interval_end();
  void handle_energy_guard(sim::NodeId i);

  // State machinery.
  void set_state(sim::NodeId i, NodeState next);
  void schedule_transition(sim::NodeId i);
  /// Cancels the node's pending rate-driven events (the next transition and
  /// any energy-guard wake-up/watchdog) as it starts transmitting; the
  /// event queue removes them outright. Re-sampling goes through
  /// schedule_transition instead, which replaces a live slot in place and
  /// cancels only a slot the new state leaves unused.
  void invalidate_transition(sim::NodeId i) {
    queue_.cancel(i, sim::EventKind::kTransition);
    queue_.cancel(i, sim::EventKind::kEnergyDepleted);
  }
  void resample_toggled();
  void resample_listening_neighbors_nc(sim::NodeId i);
  void begin_packet_timer(sim::NodeId i);
  void finish_burst(sim::NodeId i);

  // Estimation.
  int observed_listeners(sim::NodeId i) const;

  // Rate evaluation. λ_sl and λ_lx are exponentials of expressions that only
  // change when η or the listener count changes, so they are served from
  // per-node memos refreshed on η updates. The memo entries are produced by
  // the exact RateController expressions a per-call evaluation would use,
  // so the memoized rates are bit-equal to recomputed ones.
  void refresh_eta(sim::NodeId i);
  double wake_rate(sim::NodeId i, bool idle);
  double listen_tx_rate(sim::NodeId i, bool idle);

  // Occupancy tracking.
  void occupancy_advance();
  void occupancy_apply_state(sim::NodeId i, NodeState next);

  model::NodeSet nodes_;
  SimConfig config_;
  std::vector<RateController> rates_;  // per node (heterogeneous powers)
  ListenerEstimator estimator_;
  util::Rng rng_;

  double now_ = 0.0;
  double interval_end_ = 0.0;  // time of the pending boundary (kIntervalEnd)
  sim::EventQueue queue_;
  sim::Channel channel_;
  sim::MetricsCollector metrics_;
  std::vector<NodeRuntime> nodes_rt_;  // cold per-node state

  // Hot per-node state, struct-of-arrays (assigned after validation in the
  // constructor):
  std::vector<NodeState> state_;
  std::vector<double> state_since_;
  std::vector<double> listen_time_;  // inside the measured window
  std::vector<double> transmit_time_;
  std::vector<double> eta_;        // mirror of nodes_rt_[i].multiplier
  std::vector<double> wake_rate_;  // λ_sl(η) at idle; refreshed with η
  std::vector<double> tx_rate_;    // λ_lx(η, c) memo, row per node,
  std::size_t tx_rate_width_ = 0;  //   count c read at column
                                   //   min(c, width - 1); rows refilled
                                   //   eagerly on every η update
  sim::EnergyLedger energy_;

  std::vector<std::uint8_t> burst_rx_flag_;  // receivers of current burst
  std::vector<sim::NodeId> burst_rx_list_;
  std::uint64_t events_processed_ = 0;

  // Occupancy tracker state.
  std::vector<double> occupancy_;
  std::uint64_t occ_mask_ = 0;
  int occ_tx_ = -1;
  double occ_since_ = 0.0;
};

}  // namespace econcast::proto

#endif  // ECONCAST_ECONCAST_SIMULATION_H
