#include "econcast/simulation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace econcast::proto {

using sim::EventKind;
using sim::NodeId;

namespace {
MultiplierConfig node_multiplier_config(const SimConfig& cfg,
                                        const model::NodeParams& node,
                                        double eta_init) {
  MultiplierConfig mc = cfg.multiplier;
  mc.eta_init = eta_init;
  if (cfg.auto_step && mc.schedule == StepSchedule::kConstant)
    mc.delta = cfg.auto_step_gain * cfg.sigma /
               (node.listen_power * node.budget);
  return mc;
}

}  // namespace

Simulation::Simulation(model::NodeSet nodes, model::Topology topology,
                       SimConfig config)
    : nodes_(std::move(nodes)),
      topo_(std::move(topology)),
      config_(std::move(config)),
      estimator_(config_.estimator),
      rng_(config_.seed, util::Rng::kDefaultBlock),
      queue_(&arena_),
      channel_(topo_, &arena_),
      metrics_(nodes_.size()),
      state_(sim::ArenaAllocator<NodeState>(&arena_)),
      state_since_(sim::ArenaAllocator<double>(&arena_)),
      listen_time_(sim::ArenaAllocator<double>(&arena_)),
      transmit_time_(sim::ArenaAllocator<double>(&arena_)),
      eta_(sim::ArenaAllocator<double>(&arena_)),
      wake_rate_(sim::ArenaAllocator<double>(&arena_)),
      tx_rate_(sim::ArenaAllocator<double>(&arena_)),
      energy_(&arena_),
      burst_rx_flag_(sim::ArenaAllocator<std::uint8_t>(&arena_)),
      burst_rx_list_(sim::ArenaAllocator<NodeId>(&arena_)) {
  model::validate(nodes_);
  if (nodes_.size() != topo_.size())
    throw std::invalid_argument("nodes/topology size mismatch");
  if (!(config_.sigma > 0.0))
    throw std::invalid_argument("sigma must be positive");
  if (!(config_.duration > config_.warmup) || config_.warmup < 0.0)
    throw std::invalid_argument("need 0 <= warmup < duration");
  if (!config_.eta_init.empty() && config_.eta_init.size() != nodes_.size())
    throw std::invalid_argument("eta_init size mismatch");
  if (config_.track_state_occupancy &&
      (!topo_.is_clique() || nodes_.size() > 16))
    throw std::invalid_argument(
        "state occupancy tracking requires a clique with N <= 16");

  const std::size_t n = nodes_.size();

  // Live events are bounded by a few per node; reserving up front avoids
  // the reallocation churn that otherwise recurs during every run's ramp-up
  // in the N >= 64 regime (the shared policy lives in
  // EventQueue::capacity_for_nodes).
  queue_.reserve_for_nodes(n);

  state_.assign(n, NodeState::kSleep);
  state_since_.assign(n, 0.0);
  listen_time_.assign(n, 0.0);
  transmit_time_.assign(n, 0.0);
  eta_.assign(n, 0.0);
  wake_rate_.assign(n, 0.0);
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < n; ++i)
    max_degree = std::max(max_degree, topo_.neighbors(i).size());
  tx_rate_width_ = max_degree + 1;
  tx_rate_.assign(n * tx_rate_width_, 0.0);  // rows filled by refresh_eta
  energy_.reserve(n);
  burst_rx_flag_.assign(n, 0);
  burst_rx_list_.reserve(n);

  rates_.reserve(n);
  nodes_rt_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates_.emplace_back(nodes_[i].listen_power, nodes_[i].transmit_power,
                        config_.sigma, config_.variant, config_.mode);
    const double eta0 = config_.eta_init.empty()
                            ? config_.multiplier.eta_init
                            : config_.eta_init[i];
    nodes_rt_.emplace_back(node_multiplier_config(config_, nodes_[i], eta0));
    nodes_rt_.back().interval_start_level = config_.initial_energy;
    energy_.add(nodes_[i].budget, config_.initial_energy);
    refresh_eta(static_cast<NodeId>(i));
  }
  if (config_.track_state_occupancy)
    occupancy_.assign(model::state_space_size(n), 0.0);
}

int Simulation::observed_listeners(NodeId i) const {
  return channel_.listening_neighbors(i);
}

void Simulation::refresh_eta(NodeId i) {
  eta_[i] = nodes_rt_[i].multiplier.eta();
  wake_rate_[i] = rates_[i].sleep_to_listen(eta_[i], true);
  // Eager batch refill: one contiguous pass over the node's memo row per η
  // update replaces the old invalidate-then-lazily-recompute scheme, so the
  // hot-loop query below is a plain load with no staleness check. The row
  // entries are the exact per-call expressions (see
  // RateController::fill_listen_to_transmit_row), so results are unchanged.
  rates_[i].fill_listen_to_transmit_row(
      eta_[i], tx_rate_.data() + static_cast<std::size_t>(i) * tx_rate_width_,
      tx_rate_width_);
}

double Simulation::wake_rate(NodeId i, bool idle) {
  return idle ? wake_rate_[i] : 0.0;
}

double Simulation::listen_tx_rate(NodeId i, bool idle) {
  if (!idle) return 0.0;
  const int count = observed_listeners(i);
  return tx_rate_[static_cast<std::size_t>(i) * tx_rate_width_ +
                  static_cast<std::size_t>(count)];
}

void Simulation::occupancy_advance() {
  if (occupancy_.empty()) return;
  const double from = std::max(occ_since_, metrics_.start_time());
  if (now_ > from) {
    const model::NetState s{occ_tx_, occ_mask_};
    occupancy_[model::state_index(nodes_.size(), s)] += now_ - from;
  }
  occ_since_ = now_;
}

void Simulation::occupancy_apply_state(NodeId i, NodeState next) {
  if (occupancy_.empty()) return;
  const std::uint64_t bit = 1ULL << i;
  // Clear the node's previous contribution.
  occ_mask_ &= ~bit;
  if (occ_tx_ == static_cast<int>(i)) occ_tx_ = -1;
  switch (next) {
    case NodeState::kListen:
      occ_mask_ |= bit;
      break;
    case NodeState::kTransmit:
      occ_tx_ = static_cast<int>(i);
      break;
    case NodeState::kSleep:
      break;
  }
}

void Simulation::set_state(NodeId i, NodeState next) {
  occupancy_advance();
  occupancy_apply_state(i, next);

  // Time-in-state accounting, clipped to the measured window.
  const double from = std::max(state_since_[i], metrics_.start_time());
  if (now_ > from) {
    if (state_[i] == NodeState::kListen) listen_time_[i] += now_ - from;
    if (state_[i] == NodeState::kTransmit) transmit_time_[i] += now_ - from;
  }

  // Channel listen bookkeeping (transmit raises carrier via begin_burst).
  if (state_[i] == NodeState::kListen && next != NodeState::kListen)
    channel_.set_listening(i, false);
  if (next == NodeState::kListen) channel_.set_listening(i, true);

  double draw = 0.0;
  if (next == NodeState::kListen) draw = nodes_[i].listen_power;
  if (next == NodeState::kTransmit) draw = nodes_[i].transmit_power;
  energy_.set_draw(i, draw, now_);

  state_[i] = next;
  state_since_[i] = now_;
}

void Simulation::schedule_transition(NodeId i) {
  // Any previously scheduled transition / energy-guard event for this node
  // is obsolete the moment we re-sample; the queue invalidates them in
  // O(1) and prunes lazily (schedule() below re-arms its own slot).
  invalidate_transition(i);
  const bool idle = !channel_.busy_at(i);
  double rate = 0.0;
  switch (state_[i]) {
    case NodeState::kSleep:
      if (config_.energy_guard) {
        // Hysteresis: a browned-out node recharges enough for one
        // packet-time of listening before it competes to wake again. The
        // tolerance and slack keep floating-point round-off from
        // re-arming the refill timer at ~zero intervals.
        const double refill =
            config_.guard_floor + nodes_[i].listen_power;
        const double level = energy_.level(i, now_);
        const double deficit = refill - level;
        if (deficit > 1e-9 * refill) {
          queue_.schedule(now_ + deficit / nodes_[i].budget + 1e-9,
                          EventKind::kEnergyDepleted, i);
          return;
        }
      }
      rate = wake_rate(i, idle);
      break;
    case NodeState::kListen: {
      if (config_.energy_guard &&
          nodes_[i].listen_power > nodes_[i].budget) {
        // Brown-out watchdog: fires even while carrier-gated (a listener
        // pinned inside a long burst still drains its storage).
        const double level = energy_.level(i, now_);
        const double dt = std::max(0.0, level - config_.guard_floor) /
                          (nodes_[i].listen_power - nodes_[i].budget);
        queue_.schedule(now_ + dt, EventKind::kEnergyDepleted, i);
      }
      rate = rates_[i].listen_to_sleep(idle) + listen_tx_rate(i, idle);
      break;
    }
    case NodeState::kTransmit:
      return;  // bursts advance via packet-end events
  }
  if (rate <= 0.0) return;  // gated: wait for a channel/interval wake-up
  queue_.schedule(now_ + rng_.exponential(rate), EventKind::kTransition, i);
}

void Simulation::resample_toggled() {
  // Transmitters advance via packet-end events, not rate-driven transitions.
  // schedule_transition writes neither state_ nor the drained buffer, so the
  // filter sees every node's state as of the drain.
  for (const NodeId j : channel_.drain_toggled())
    if (state_[j] != NodeState::kTransmit) schedule_transition(j);
}

void Simulation::resample_listening_neighbors_nc(NodeId i) {
  if (config_.variant != Variant::kNonCapture) return;
  // λ_lx of eq. (18d) depends on the other-listener count, so listening
  // neighbors must re-sample when node i joins/leaves the listener pool.
  for (const std::size_t j : topo_.neighbors(i)) {
    if (state_[j] == NodeState::kListen)
      schedule_transition(static_cast<NodeId>(j));
  }
}

void Simulation::begin_packet_timer(NodeId i) {
  nodes_rt_[i].packet_start = now_;
  queue_.push(now_ + 1.0, EventKind::kPacketEnd, i);
}

void Simulation::fire_transition(NodeId i) {
  const bool idle = !channel_.busy_at(i);
  if (!idle) return;  // defensive: gated events are cancelled in the queue

  switch (state_[i]) {
    case NodeState::kSleep: {
      set_state(i, NodeState::kListen);
      schedule_transition(i);
      resample_listening_neighbors_nc(i);
      break;
    }
    case NodeState::kListen: {
      const double r_sleep = rates_[i].listen_to_sleep(idle);
      const double r_tx = listen_tx_rate(i, idle);
      const double total = r_sleep + r_tx;
      if (total <= 0.0) return;
      if (rng_.uniform() * total < r_sleep) {
        set_state(i, NodeState::kSleep);
        metrics_.node_slept(i);
        schedule_transition(i);
        resample_listening_neighbors_nc(i);
      } else {
        set_state(i, NodeState::kTransmit);
        invalidate_transition(i);  // cancel any pending guard watchdog
        channel_.begin_burst(i);
        channel_.begin_packet(i);
        nodes_rt_[i].burst_packets = 0;
        nodes_rt_[i].burst_received_any = false;
        begin_packet_timer(i);
        resample_toggled();
      }
      break;
    }
    case NodeState::kTransmit:
      break;  // no rate-driven exits from transmit
  }
}

void Simulation::finish_burst(NodeId i) {
  NodeRuntime& rt = nodes_rt_[i];
  metrics_.record_burst(now_, rt.burst_packets, rt.burst_received_any);
  for (const NodeId j : burst_rx_list_) {
    metrics_.receiver_burst_ended(j, now_);
    burst_rx_flag_[j] = 0;
  }
  burst_rx_list_.clear();
  channel_.end_burst(i);
  set_state(i, NodeState::kListen);  // x -> l (Fig. 1)
  schedule_transition(i);
  resample_toggled();
}

void Simulation::handle_packet_end(NodeId i) {
  NodeRuntime& rt = nodes_rt_[i];
  const sim::Channel::PacketOutcome& outcome = channel_.end_packet(i);
  const auto clean = static_cast<std::uint32_t>(outcome.clean_receivers.size());
  metrics_.record_packet(now_, 1.0, clean, outcome.corrupted);
  for (const NodeId j : outcome.clean_receivers) {
    metrics_.receiver_burst_started(j, rt.packet_start);
    if (!burst_rx_flag_[j]) {
      burst_rx_flag_[j] = 1;
      burst_rx_list_.push_back(j);
    }
  }
  ++rt.burst_packets;
  rt.burst_received_any |= clean > 0;

  // Capture decision (§V-D): the transmitter estimates the listener count
  // from the pings of this packet's recipients and keeps the channel with
  // probability 1 - exp(-ĉ/σ) (groupput) / 1 - exp(-γ̂/σ) (anyput).
  const int estimate = estimator_.estimate(static_cast<int>(clean), rng_);
  // The energy guard refuses to extend a burst the node cannot pay for.
  const bool can_afford =
      !config_.energy_guard ||
      energy_.level(i, now_) - config_.guard_floor >=
          nodes_[i].transmit_power;
  if (can_afford &&
      rng_.bernoulli(
          rates_[i].continue_probability(static_cast<double>(estimate)))) {
    channel_.begin_packet(i);
    begin_packet_timer(i);
  } else {
    finish_burst(i);
  }
}

void Simulation::handle_energy_guard(NodeId i) {
  switch (state_[i]) {
    case NodeState::kSleep:
      // Refill reached: resume the normal wake-up race.
      schedule_transition(i);
      break;
    case NodeState::kListen:
      // Brown-out: forced sleep; an in-progress reception is lost (the
      // channel drops the lock when the node stops listening).
      set_state(i, NodeState::kSleep);
      metrics_.node_slept(i);
      schedule_transition(i);
      resample_listening_neighbors_nc(i);
      break;
    case NodeState::kTransmit:
      break;  // transmit affordability is checked at packet boundaries
  }
}

void Simulation::handle_interval_end(NodeId i) {
  NodeRuntime& rt = nodes_rt_[i];
  const double level = energy_.level(i, now_);
  if (config_.adapt_multiplier)
    rt.multiplier.update(level - rt.interval_start_level);
  rt.interval_start_level = level;
  refresh_eta(i);
  queue_.push(now_ + rt.multiplier.next_interval_length(),
              EventKind::kIntervalEnd, i);
  if (state_[i] != NodeState::kTransmit) schedule_transition(i);
}

SimResult Simulation::run() {
  const std::size_t n = nodes_.size();
  metrics_.start_measurement(config_.warmup);
  std::vector<double> consumed_at_warmup(n, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    schedule_transition(static_cast<NodeId>(i));
    queue_.push(nodes_rt_[i].multiplier.next_interval_length(),
                EventKind::kIntervalEnd, static_cast<NodeId>(i));
  }
  bool warmup_snapshot_pending = config_.warmup > 0.0;
  if (warmup_snapshot_pending)
    queue_.push(config_.warmup, EventKind::kCustom, 0);

  while (!queue_.empty() && queue_.top().time <= config_.duration) {
    const sim::Event e = queue_.pop();
    now_ = e.time;
    ++events_processed_;
    switch (e.kind) {
      case EventKind::kTransition:
        fire_transition(e.node);  // cancelled events never leave the queue
        break;
      case EventKind::kPacketEnd:
        handle_packet_end(e.node);
        break;
      case EventKind::kIntervalEnd:
        handle_interval_end(e.node);
        break;
      case EventKind::kEnergyDepleted:
        handle_energy_guard(e.node);
        break;
      case EventKind::kCustom:
        if (warmup_snapshot_pending) {
          for (std::size_t i = 0; i < n; ++i)
            consumed_at_warmup[i] = energy_.consumed(i, now_);
          warmup_snapshot_pending = false;
        }
        break;
      case EventKind::kPingSlot:
        break;  // unused in the idealized simulation
    }
  }
  now_ = config_.duration;
  occupancy_advance();

  SimResult result;
  result.measured_window = config_.duration - config_.warmup;
  result.groupput = metrics_.groupput(config_.duration);
  result.anyput = metrics_.anyput(config_.duration);
  result.avg_power.resize(n);
  result.listen_fraction.resize(n);
  result.transmit_fraction.resize(n);
  result.final_eta.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Close the open state interval.
    const double from = std::max(state_since_[i], config_.warmup);
    if (now_ > from) {
      if (state_[i] == NodeState::kListen) listen_time_[i] += now_ - from;
      if (state_[i] == NodeState::kTransmit) transmit_time_[i] += now_ - from;
    }
    result.avg_power[i] =
        (energy_.consumed(i, now_) - consumed_at_warmup[i]) /
        result.measured_window;
    result.listen_fraction[i] = listen_time_[i] / result.measured_window;
    result.transmit_fraction[i] = transmit_time_[i] / result.measured_window;
    result.final_eta[i] = nodes_rt_[i].multiplier.eta();
  }
  result.burst_lengths = metrics_.burst_lengths();
  result.latencies = std::move(metrics_.latencies());
  result.packets_sent = metrics_.packets_sent();
  result.packets_received = metrics_.packets_received();
  result.bursts = metrics_.burst_count();
  result.corrupted_receptions = metrics_.corrupted_receptions();
  result.events_processed = events_processed_;
  result.queue_stats = queue_.stats();
  if (!occupancy_.empty()) {
    result.state_occupancy = occupancy_;
    const double total = result.measured_window;
    for (double& v : result.state_occupancy) v /= total;
  }
  return result;
}

}  // namespace econcast::proto
