#include "testbed/firmware.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "econcast/multiplier.h"
#include "sim/event_queue.h"
#include "sim/node_id.h"
#include "util/random.h"

namespace econcast::testbed {

using sim::NodeId;

namespace {

enum class S : std::uint8_t { kSleep, kListen, kTransmit };

struct Node {
  S state = S::kSleep;
  double eta = 0.0;
  double drift = 1.0;            // sleep-clock factor
  double state_since = 0.0;
  double consumed = 0.0;         // modeled energy, mW*ms
  double consumed_at_warmup = 0.0;
  double interval_start_balance = 0.0;  // virtual battery at interval start
  std::size_t interval_k = 1;
};

}  // namespace

TestbedResult run_testbed(const TestbedConfig& cfg) {
  if (cfg.n < 2) throw std::invalid_argument("testbed: need N >= 2");
  if (!(cfg.sigma > 0.0)) throw std::invalid_argument("sigma > 0 required");
  if (!(cfg.duration_ms > cfg.warmup_ms))
    throw std::invalid_argument("duration must exceed warmup");

  const Ez430Constants& hw = cfg.hw;
  const double L = hw.listen_power_mw;
  const double X = hw.transmit_power_mw;
  const double packet = hw.packet_ms;
  // Eq. (17) step, auto-scaled to the mW unit system (see SimConfig).
  const double delta = cfg.step_gain * cfg.sigma / (L * cfg.budget_mw);

  util::Rng rng(cfg.seed);
  std::vector<Node> nodes(cfg.n);
  for (auto& nd : nodes)
    nd.drift = rng.uniform(1.0 - hw.sleep_clock_drift,
                           1.0 + hw.sleep_clock_drift);

  sim::EventQueue queue;
  queue.reserve_for_nodes(cfg.n);  // shared policy with proto::Simulation
  double now = 0.0;

  int transmitter = -1;  // clique: at most one
  bool in_ping_interval = false;
  int pending_estimate = 0;
  std::uint64_t burst_packets = 0;
  bool burst_any = false;
  double group_credit = 0.0;

  TestbedResult result;

  auto draw_of = [&](S s) {
    switch (s) {
      case S::kListen:
        return L;
      case S::kTransmit:
        return X;
      case S::kSleep:
        return 0.0;
    }
    return 0.0;
  };
  auto settle = [&](std::size_t i) {
    Node& nd = nodes[i];
    nd.consumed += draw_of(nd.state) * (now - nd.state_since);
    nd.state_since = now;
  };
  auto set_state = [&](std::size_t i, S next) {
    settle(i);
    nodes[i].state = next;
  };
  auto balance = [&](std::size_t i) {
    settle(i);
    return cfg.budget_mw * now - nodes[i].consumed;  // virtual battery level
  };

  // Per-ms transition rates; the theory's unit packet is `packet` ms long.
  auto rate_sl = [&](const Node& nd) {
    return std::exp(std::clamp(-nd.eta * L / cfg.sigma, -700.0, 700.0)) /
           (packet * nd.drift);  // sleep timer runs on the drifting clock
  };
  auto rate_ls = [&](const Node&) { return 1.0 / packet; };
  auto rate_lx = [&](const Node& nd) {
    return std::exp(std::clamp(nd.eta * (L - X) / cfg.sigma, -700.0, 700.0)) /
           packet;
  };

  auto schedule_transition = [&](NodeId i) {
    Node& nd = nodes[i];
    // The queue owns invalidation: a re-schedule (or a bare cancel when the
    // node is gated) obsoletes the pending transition, which is pruned
    // lazily — the same contract proto::Simulation uses.
    queue.cancel(i, sim::EventKind::kTransition);
    if (transmitter >= 0) return;  // gated: resampled on release
    double rate = 0.0;
    switch (nd.state) {
      case S::kSleep:
        rate = rate_sl(nd);
        break;
      case S::kListen:
        rate = rate_ls(nd) + rate_lx(nd);
        break;
      case S::kTransmit:
        return;
    }
    if (rate <= 0.0) return;
    queue.schedule(now + rng.exponential(rate), sim::EventKind::kTransition,
                   i);
  };
  auto resample_all_idle = [&] {
    for (NodeId i = 0; i < cfg.n; ++i)
      if (nodes[i].state != S::kTransmit) schedule_transition(i);
  };

  auto start_packet = [&](NodeId i) {
    queue.push(now + packet, sim::EventKind::kPacketEnd, i);
  };

  auto begin_burst = [&](NodeId i) {
    set_state(i, S::kTransmit);
    transmitter = static_cast<int>(i);
    burst_packets = 0;
    burst_any = false;
    start_packet(i);
  };

  auto finish_burst = [&](NodeId i) {
    transmitter = -1;
    if (now >= cfg.warmup_ms && burst_any) ++result.bursts;
    set_state(i, S::kListen);  // x -> l
    resample_all_idle();
  };

  // The pinging interval of §VIII-C, evaluated in closed form at packet end:
  // every recipient picks a uniform ping time; pings whose intervals overlap
  // collide; survivors decode with ping_detect_prob.
  auto run_ping_interval = [&](int recipients) {
    std::vector<double> times(static_cast<std::size_t>(recipients));
    for (auto& t : times)
      t = rng.uniform(0.0, hw.ping_interval_ms - hw.ping_ms);
    std::sort(times.begin(), times.end());
    int detected = 0;
    const auto count = times.size();
    result.pings_sent += now >= cfg.warmup_ms ? count : 0;
    for (std::size_t k = 0; k < count; ++k) {
      const bool collides =
          (k > 0 && times[k] - times[k - 1] < hw.ping_ms) ||
          (k + 1 < count && times[k + 1] - times[k] < hw.ping_ms);
      if (collides) {
        if (now >= cfg.warmup_ms) ++result.pings_lost_collision;
        continue;
      }
      if (!rng.bernoulli(hw.ping_detect_prob)) {
        if (now >= cfg.warmup_ms) ++result.pings_lost_decode;
        continue;
      }
      ++detected;
    }
    return detected;
  };

  // --- initialization ------------------------------------------------------
  for (NodeId i = 0; i < cfg.n; ++i) {
    schedule_transition(i);
    queue.push(cfg.tau_ms * nodes[i].drift, sim::EventKind::kIntervalEnd, i);
  }
  queue.push(cfg.warmup_ms, sim::EventKind::kCustom, 0);

  // --- main loop -----------------------------------------------------------
  while (!queue.empty() && queue.top().time <= cfg.duration_ms) {
    const sim::Event e = queue.pop();
    now = e.time;
    const NodeId i = e.node;
    switch (e.kind) {
      case sim::EventKind::kTransition: {
        Node& nd = nodes[i];
        if (transmitter >= 0) break;  // cancelled events never surface
        if (nd.state == S::kSleep) {
          set_state(i, S::kListen);
          schedule_transition(i);
        } else if (nd.state == S::kListen) {
          const double r_s = rate_ls(nd), r_x = rate_lx(nd);
          if (rng.uniform() * (r_s + r_x) < r_s) {
            set_state(i, S::kSleep);
            schedule_transition(i);
          } else {
            begin_burst(i);
          }
        }
        break;
      }
      case sim::EventKind::kPacketEnd: {
        // Recipients: every node currently listening (clique, single
        // transmitter, gated listeners -> all receive cleanly).
        int recipients = 0;
        for (std::size_t j = 0; j < cfg.n; ++j)
          if (nodes[j].state == S::kListen) ++recipients;
        if (now >= cfg.warmup_ms) {
          ++result.packets;
          group_credit += packet * static_cast<double>(recipients);
        }
        ++burst_packets;
        burst_any |= recipients > 0;
        // Pinging interval: recipients ping (paying the TX-ping premium on
        // top of their listen draw); the transmitter listens for pings.
        for (std::size_t j = 0; j < cfg.n; ++j)
          if (nodes[j].state == S::kListen)
            nodes[j].consumed += (X - L) * hw.ping_ms;
        set_state(i, S::kListen);  // transmitter listens during the interval
        in_ping_interval = true;
        pending_estimate = run_ping_interval(recipients);
        if (now >= cfg.warmup_ms)
          result.ping_distribution.add(
              static_cast<std::size_t>(pending_estimate));
        queue.push(now + hw.ping_interval_ms, sim::EventKind::kPingSlot, i);
        break;
      }
      case sim::EventKind::kPingSlot: {
        // End of the pinging interval: capture decision per (18e).
        in_ping_interval = false;
        const double p_continue =
            1.0 - std::exp(-static_cast<double>(pending_estimate) / cfg.sigma);
        if (rng.bernoulli(p_continue)) {
          set_state(i, S::kTransmit);
          start_packet(i);
        } else {
          finish_burst(i);
        }
        break;
      }
      case sim::EventKind::kIntervalEnd: {
        Node& nd = nodes[i];
        const double level = balance(i);
        // Eq. (17) with constant (δ, τ); τ ticks on the drifting clock.
        nd.eta = std::max(
            0.0, nd.eta - delta / cfg.tau_ms *
                              (level - nd.interval_start_balance));
        nd.interval_start_balance = level;
        ++nd.interval_k;
        queue.push(now + cfg.tau_ms * nd.drift, sim::EventKind::kIntervalEnd,
                   i);
        if (nd.state != S::kTransmit && transmitter < 0)
          schedule_transition(i);
        break;
      }
      case sim::EventKind::kCustom:
        for (std::size_t j = 0; j < cfg.n; ++j) {
          settle(j);
          nodes[j].consumed_at_warmup = nodes[j].consumed;
        }
        break;
      case sim::EventKind::kEnergyDepleted:
        break;  // the firmware's virtual battery is unbounded (§VIII-A)
    }
  }
  now = cfg.duration_ms;

  // --- results ---------------------------------------------------------------
  const double window = cfg.duration_ms - cfg.warmup_ms;
  result.measured_window_ms = window;
  result.groupput = group_credit / window;
  result.modeled_power_mw.resize(cfg.n);
  result.actual_power_mw.resize(cfg.n);
  result.final_eta.resize(cfg.n);
  double ratio_sum = 0.0, ratio_min = 1e300, ratio_max = -1e300;
  for (std::size_t j = 0; j < cfg.n; ++j) {
    settle(j);
    const double modeled =
        (nodes[j].consumed - nodes[j].consumed_at_warmup) / window;
    result.modeled_power_mw[j] = modeled;
    result.actual_power_mw[j] =
        modeled * (1.0 + hw.overhead_fraction) + hw.overhead_const_mw;
    const double ratio = modeled / cfg.budget_mw;
    ratio_sum += ratio;
    ratio_min = std::min(ratio_min, ratio);
    ratio_max = std::max(ratio_max, ratio);
    result.final_eta[j] = nodes[j].eta;
  }
  result.battery_ratio_mean = ratio_sum / static_cast<double>(cfg.n);
  result.battery_ratio_min = ratio_min;
  result.battery_ratio_max = ratio_max;
  (void)in_ping_interval;
  return result;
}

}  // namespace econcast::testbed
