#include "baselines/birthday.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/random.h"

namespace econcast::baselines {

double birthday_throughput(std::size_t n, double p_transmit, double p_listen,
                           model::Mode mode) {
  if (n < 2) return 0.0;
  const double nd = static_cast<double>(n);
  const double px = p_transmit, pl = p_listen;
  if (px <= 0.0 || pl <= 0.0) return 0.0;
  if (mode == model::Mode::kGroupput)
    return nd * (nd - 1.0) * px * pl * std::pow(1.0 - px, nd - 2.0);
  const double listen_given_quiet = std::min(1.0, pl / (1.0 - px));
  return nd * px * std::pow(1.0 - px, nd - 1.0) *
         (1.0 - std::pow(1.0 - listen_given_quiet, nd - 1.0));
}

BirthdayDesign optimize_birthday(std::size_t n, double budget,
                                 double listen_power, double transmit_power,
                                 model::Mode mode) {
  if (!(budget > 0.0) || !(listen_power > 0.0) || !(transmit_power > 0.0))
    throw std::invalid_argument("birthday: positive parameters required");
  // Throughput increases in both p_x and p_l at the optimum, so the budget
  // constraint is active: p_l = (ρ - p_x X) / L. Scan p_x, then refine by
  // golden-section around the best grid point.
  auto value = [&](double px) {
    if (px <= 0.0) return 0.0;
    double pl = (budget - px * transmit_power) / listen_power;
    if (pl <= 0.0) return 0.0;
    if (px + pl > 1.0) pl = 1.0 - px;  // awake-time cap
    if (pl <= 0.0) return 0.0;
    return birthday_throughput(n, px, pl, mode);
  };
  const double px_max = std::min(1.0, budget / transmit_power);
  double best_px = 0.0, best_val = 0.0;
  constexpr int kGrid = 4000;
  for (int k = 1; k < kGrid; ++k) {
    const double px = px_max * static_cast<double>(k) / kGrid;
    const double v = value(px);
    if (v > best_val) {
      best_val = v;
      best_px = px;
    }
  }
  double lo = std::max(0.0, best_px - px_max / kGrid);
  double hi = std::min(px_max, best_px + px_max / kGrid);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = hi - (hi - lo) * kInvPhi, b = lo + (hi - lo) * kInvPhi;
  double fa = value(a), fb = value(b);
  for (int it = 0; it < 200 && hi - lo > 1e-14; ++it) {
    if (fa < fb) {
      lo = a;
      a = b;
      fa = fb;
      b = lo + (hi - lo) * kInvPhi;
      fb = value(b);
    } else {
      hi = b;
      b = a;
      fb = fa;
      a = hi - (hi - lo) * kInvPhi;
      fa = value(a);
    }
  }
  BirthdayDesign design;
  design.p_transmit = 0.5 * (lo + hi);
  design.p_listen = std::min(
      1.0 - design.p_transmit,
      (budget - design.p_transmit * transmit_power) / listen_power);
  design.throughput =
      birthday_throughput(n, design.p_transmit, design.p_listen, mode);
  return design;
}

BirthdaySimDetail simulate_birthday_detailed(std::size_t n, double p_transmit,
                                             double p_listen,
                                             std::uint64_t slots,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  BirthdaySimDetail detail;
  detail.slots = slots;
  detail.listen_slots.assign(n, 0);
  detail.transmit_slots.assign(n, 0);
  for (std::uint64_t s = 0; s < slots; ++s) {
    int transmitters = 0;
    int listeners = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform();
      if (u < p_transmit) {
        ++transmitters;
        ++detail.transmit_slots[i];
      } else if (u < p_transmit + p_listen) {
        ++listeners;
        ++detail.listen_slots[i];
      }
    }
    if (transmitters == 1) {
      ++detail.packets;
      detail.groupput_credit += static_cast<double>(listeners);
      detail.anyput_credit += listeners > 0 ? 1.0 : 0.0;
    }
  }
  return detail;
}

}  // namespace econcast::baselines
