// Lazy-evaluated energy storage: level(t) = level(t0) + (harvest - draw)·(t-t0)
// between change points. Models the paper's b_i(t), the idealized virtual
// battery: unbounded in both directions.
#ifndef ECONCAST_SIM_ENERGY_H
#define ECONCAST_SIM_ENERGY_H

#include <cstddef>
#include <vector>

namespace econcast::sim {

/// Energy storage for a whole node population, struct-of-arrays: the
/// per-node balances live in parallel arrays, so the simulation inner loops
/// touch one dense double per node instead of one scattered struct per
/// node. `reserve` sizes them up front. Each slot settles at its change
/// points.
class EnergyLedger {
 public:
  void reserve(std::size_t n);
  /// Appends a node; returns its index.
  std::size_t add(double harvest_rate, double initial_level);
  std::size_t size() const noexcept { return harvest_.size(); }

  /// Changes the instantaneous draw (state change). Settles the balance
  /// first; `now` must be non-decreasing across calls on the same slot.
  void set_draw(std::size_t i, double draw, double now) noexcept;

  /// Storage level at `now` (>= last settle point).
  double level(std::size_t i, double now) const noexcept {
    const double dt = now - last_[i];
    return level_[i] + (harvest_[i] - draw_[i]) * dt;
  }

  /// Total energy consumed (integral of draw) up to `now`.
  double consumed(std::size_t i, double now) const noexcept;

 private:
  std::vector<double> harvest_;
  std::vector<double> draw_;
  std::vector<double> level_;
  std::vector<double> consumed_;
  std::vector<double> last_;
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_ENERGY_H
