// Per-cell wall-clock cost estimation and the longest-first submission
// order.
//
// A sweep's cells are wildly uneven: an analytic bound cell returns in
// microseconds while an N=256 EconCast simulation runs for seconds, and the
// expansion order (protocol → mode → N → ...) puts the expensive large-N
// cells at the tail; cost_submit_order below schedules around that.
//
// The model is deliberately coarse: a per-protocol polynomial in the node
// count times the protocol's duration-like knob ("units"), optionally
// scaled to milliseconds per protocol by calibration against observed cell
// wall clocks persisted in the result cache (cell_cache.h stores wall_ms
// and the predicted units with every entry). The calibrated scale feeds
// the fabric's cost-balanced shard plans; ordering, ETAs and load
// balancing only need costs that are *relatively* right — a mis-estimated
// constant factor shifts ETAs, never results.
#ifndef ECONCAST_RUNNER_COST_MODEL_H
#define ECONCAST_RUNNER_COST_MODEL_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "runner/scenario_runner.h"

namespace econcast::runner {

class CostModel {
 public:
  /// Protocol-class polynomial, in arbitrary "units" comparable across
  /// cells: simulated protocols scale with node count × simulated horizon
  /// (EconCast superlinearly in N — its carrier-sense fan-out and listener
  /// dynamics grow with degree), analytic protocols with N alone. Pure
  /// function of the scenario spec; never consults the clock.
  static double estimate_units(const Scenario& cell);

  /// units × the protocol's calibrated ms-per-unit scale. Protocols with no
  /// observation use the average scale of the observed ones, or a built-in
  /// default when nothing is calibrated — coarse, but ETA-grade.
  double estimate_ms(const Scenario& cell) const;

  /// Refines the per-protocol scales from the (units, wall_ms) pairs the
  /// cache entries carry: scale = total observed ms / total predicted
  /// units, per protocol name, as CellCache::scan sums them. Unreadable or
  /// foreign files are skipped; an empty or missing directory leaves the
  /// model uncalibrated.
  void calibrate_from_cache(const std::string& cache_dir);

  /// ms-per-unit scales by protocol name (exposed for tests/diagnostics).
  const std::map<std::string, double>& scales() const noexcept {
    return scales_;
  }

 private:
  std::map<std::string, double> scales_;
};

/// The order ScenarioRunner submits a batch in on more than one thread:
/// element k is the batch index to run as the k-th submitted task. Cells
/// are sorted by descending estimate_units, ties broken by ascending index,
/// so the order is a pure function of the batch. Uncalibrated units
/// suffice: a per-protocol scale cannot reorder the cells of one protocol.
///
/// Why longest first: in expansion order a parallel sweep ends with a
/// straggler phase, most threads idle behind the last big cells.
/// exec::Executor hands each free participant the next index of one shared
/// cursor, so this order is Graham's LPT list scheduling, which keeps the
/// makespan within 4/3 of optimal (SIAM J. Appl. Math. 17:416, 1969). It
/// cannot change output: every write is keyed by cell index and
/// SweepSession reorder-buffers completions into index-ordered bytes. It
/// costs checkpoint progress instead, because a finished cell reaches the
/// results file only after every lower index (sweep_session.h). One thread
/// keeps index order: there the makespan is the same in any order, and each
/// cell checkpoints as soon as it finishes.
std::vector<std::size_t> cost_submit_order(const std::vector<Scenario>& batch);

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_COST_MODEL_H
