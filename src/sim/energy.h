// Lazy-evaluated energy storage: level(t) = level(t0) + (harvest - draw)·(t-t0)
// between change points. Models the paper's b_i(t) (battery/capacitor charge)
// and, with `min_level = 0`, a storage that cannot go negative (testbed).
#ifndef ECONCAST_SIM_ENERGY_H
#define ECONCAST_SIM_ENERGY_H

#include <cstddef>

#include "sim/arena.h"

namespace econcast::sim {

/// Energy storage for a whole node population, struct-of-arrays: the
/// per-node balances live in parallel (optionally arena-backed) arrays, so
/// the simulation inner loops touch one dense double per node instead of
/// one scattered struct per node. Each slot settles at its change points.
class EnergyLedger {
 public:
  explicit EnergyLedger(Arena* arena = nullptr);

  void reserve(std::size_t n);
  /// Appends a node; returns its index.
  std::size_t add(double harvest_rate, double initial_level);
  std::size_t size() const noexcept { return harvest_.size(); }

  /// Changes the instantaneous draw (state change). Settles the balance
  /// first; `now` must be non-decreasing across calls on the same slot.
  void set_draw(std::size_t i, double draw, double now) noexcept;

  /// Storage level at `now` (>= last settle point), with clamping applied.
  double level(std::size_t i, double now) const noexcept;

  /// Total energy consumed (integral of draw) up to `now`.
  double consumed(std::size_t i, double now) const noexcept;

  /// Optional clamping bounds (default: unbounded, the paper's idealized
  /// virtual battery). With a lower bound, deficit beyond the bound is lost
  /// (the node browns out); with an upper bound, surplus harvest is wasted
  /// (capacitor full). Clamping is applied at settle points, so set bounds
  /// before the slot's first set_draw.
  void set_bounds(std::size_t i, double min_level, double max_level) noexcept;

  double harvest_rate(std::size_t i) const noexcept { return harvest_[i]; }
  double draw(std::size_t i) const noexcept { return draw_[i]; }

 private:
  ArenaVector<double> harvest_;
  ArenaVector<double> draw_;
  ArenaVector<double> level_;
  ArenaVector<double> consumed_;
  ArenaVector<double> last_;
  ArenaVector<double> min_;
  ArenaVector<double> max_;
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_ENERGY_H
