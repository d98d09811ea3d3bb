#include "fabric/cost_plan.h"

#include <optional>
#include <vector>

#include "runner/cell_cache.h"
#include "runner/sweep_session.h"

namespace econcast::fabric {

ShardPlan cost_balanced_plan(const runner::SweepManifest& manifest,
                             std::size_t shard_count,
                             const std::string& cache_dir,
                             const runner::CostModel& model) {
  const std::vector<runner::Scenario> cells =
      runner::expand_with_overrides(manifest);
  const std::size_t n = cells.size();

  std::optional<runner::CellCache> cache;
  if (!cache_dir.empty()) cache.emplace(cache_dir);

  std::vector<double> cost(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // contains() is the existence-only probe: the worker's session
    // re-validates any entry it actually uses, so a bad entry costs that
    // shard one recompute — the plan does not need to read result bytes.
    const bool cached =
        cache && cache->contains(cells[i],
                                 manifest_cell_seed(manifest, cells[i], i));
    cost[i] = cached ? 0.0 : model.estimate_ms(cells[i]);
    total += cost[i];
  }
  if (!(total > 0.0)) return ShardPlan(n, shard_count);

  // Interior cut j goes where the prefix sum first reaches j/k of the
  // total: the cell straddling a target lands in the left shard. Bounds are
  // non-decreasing by construction; empty shards are fine.
  std::vector<std::size_t> bounds(shard_count + 1, n);
  bounds[0] = 0;
  double prefix = 0.0;
  std::size_t j = 1;
  for (std::size_t i = 0; i < n && j < shard_count; ++i) {
    prefix += cost[i];
    while (j < shard_count &&
           prefix >= total * static_cast<double>(j) /
                         static_cast<double>(shard_count))
      bounds[j++] = i + 1;
  }
  return ShardPlan(n, std::move(bounds));
}

}  // namespace econcast::fabric
