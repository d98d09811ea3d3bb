#include "runner/cost_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <variant>

#include "runner/cell_cache.h"

namespace econcast::runner {

namespace {

/// Fallback ms-per-unit when nothing is calibrated, sized so an N=100,
/// 1e6-packet-time EconCast cell lands in the seconds range — the right
/// order of magnitude for a Release build on one core.
constexpr double kDefaultMsPerUnit = 2e-7;

struct UnitVisitor {
  double n;  // node count of the cell

  double operator()(const protocol::EconCastParams& p) const {
    // Events scale with N × duration; per-event work carries an extra
    // N-dependent component (rate-memo row refills, toggle resampling over
    // neighborhoods), so the aggregate is superlinear. N^1.5 tracks the
    // measured N=25..256 profile well enough for ordering and balancing.
    return n * std::sqrt(n) * p.config.duration;
  }
  double operator()(const protocol::TestbedParams& p) const {
    // The firmware loop is ~clique EconCast in real milliseconds.
    return n * std::sqrt(n) * p.duration_ms;
  }
  double operator()(const protocol::PandaParams&) const { return 1.0 + n; }
  double operator()(const protocol::BirthdayParams&) const { return 1.0 + n; }
  double operator()(const protocol::P4Params&) const {
    // The (P4) solver iterates over the N-node state space.
    return 1.0 + n * n;
  }
  double operator()(const protocol::OracleParams&) const {
    return 1.0 + n * n;
  }
  double operator()(const protocol::SearchlightParams&) const {
    return 1.0 + n;
  }
};

}  // namespace

double CostModel::estimate_units(const Scenario& cell) {
  const double n = static_cast<double>(cell.nodes.size());
  return std::visit(UnitVisitor{n}, cell.protocol.params);
}

double CostModel::estimate_ms(const Scenario& cell) const {
  const double units = estimate_units(cell);
  const auto it = scales_.find(cell.protocol.name);
  if (it != scales_.end()) return units * it->second;
  if (!scales_.empty()) {
    // Unobserved protocol: borrow the mean observed scale rather than the
    // compile-time default — same machine, same build.
    double sum = 0.0;
    for (const auto& [name, scale] : scales_) sum += scale;
    return units * (sum / static_cast<double>(scales_.size()));
  }
  return units * kDefaultMsPerUnit;
}

void CostModel::calibrate_from_cache(const std::string& cache_dir) {
  // The ratio of a protocol's recorded ms to its predicted units over its
  // cache entries is its scale. scan() skips what it cannot read; the cache
  // itself re-validates entries on probe.
  for (const auto& [name, stats] : CellCache::scan(cache_dir).by_protocol)
    if (stats.units > 0.0 && stats.wall_ms > 0.0)
      scales_[name] = stats.wall_ms / stats.units;
}

std::vector<std::size_t> cost_submit_order(const std::vector<Scenario>& batch) {
  const std::size_t n = batch.size();
  std::vector<double> units(n);
  for (std::size_t i = 0; i < n; ++i)
    units[i] = CostModel::estimate_units(batch[i]);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable, so ties keep ascending index order.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return units[a] > units[b];
                   });
  return order;
}

}  // namespace econcast::runner
