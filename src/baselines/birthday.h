// Birthday protocol baseline (McGlynn & Borbash, MobiHoc'01 — ref [18] of the
// paper). Slotted: in every slot a node independently transmits w.p. p_x,
// listens w.p. p_l, and sleeps otherwise. We derive the throughput in the
// paper's units (packet-times of delivered data per packet-time):
//
//   groupput(p_x, p_l) = N (N-1) p_x p_l (1-p_x)^(N-2)
//     — a slot succeeds when exactly one node transmits; each of the other
//       N-1 nodes (conditioned on not transmitting) listens w.p. p_l/(1-p_x).
//   anyput(p_x, p_l)  = N p_x (1-p_x)^(N-1) [1 - (1 - p_l/(1-p_x))^(N-1)]
//
// under the per-slot power budget p_l L + p_x X <= ρ and p_l + p_x <= 1.
// Birthday (like Panda, unlike EconCast) requires homogeneous nodes and
// knowledge of N to tune (p_x, p_l).
#ifndef ECONCAST_BASELINES_BIRTHDAY_H
#define ECONCAST_BASELINES_BIRTHDAY_H

#include <cstdint>
#include <vector>

#include "model/node_params.h"
#include "model/state_space.h"

namespace econcast::baselines {

struct BirthdayDesign {
  double p_transmit = 0.0;
  double p_listen = 0.0;
  double throughput = 0.0;  // in the selected mode's units
};

/// Throughput of a given design (no optimization).
double birthday_throughput(std::size_t n, double p_transmit, double p_listen,
                           model::Mode mode);

/// Budget-optimal design: maximizes throughput subject to
/// p_l L + p_x X <= ρ and p_l + p_x <= 1 (1-D search along the active budget
/// line; the objective is unimodal in p_x).
BirthdayDesign optimize_birthday(std::size_t n, double budget,
                                 double listen_power, double transmit_power,
                                 model::Mode mode);

/// Full accounting of one slotted Birthday run — the payload the
/// protocol::Protocol adapter maps onto the unified SimResult. Both
/// throughput modes are tallied from the same slot draws.
struct BirthdaySimDetail {
  std::uint64_t slots = 0;
  double groupput_credit = 0.0;  // Σ listeners over singleton-transmitter slots
  double anyput_credit = 0.0;    // singleton slots with >= 1 listener
  std::uint64_t packets = 0;     // singleton-transmitter slots
  std::vector<std::uint64_t> listen_slots;    // per node
  std::vector<std::uint64_t> transmit_slots;  // per node
};

/// Monte-Carlo slotted simulation of the protocol (cross-check of the closed
/// form). One uniform draw per node per slot, in node order.
BirthdaySimDetail simulate_birthday_detailed(std::size_t n, double p_transmit,
                                             double p_listen,
                                             std::uint64_t slots,
                                             std::uint64_t seed);

}  // namespace econcast::baselines

#endif  // ECONCAST_BASELINES_BIRTHDAY_H
