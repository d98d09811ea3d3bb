// Cache-aware, cost-balanced shard planning.
//
// The equal-split ShardPlan balances *cell counts*, which balances wall
// clock only when cells cost roughly the same. Real sweeps are wildly
// skewed — an N=200 EconCast cell costs orders of magnitude more than an
// N=25 analytic bound — and a shared result cache skews them further: a
// cached cell costs ~nothing no matter its size. cost_balanced_plan
// partitions the expansion so every shard carries (approximately) the same
// *estimated remaining* cost instead: per-cell estimates come from a
// runner::CostModel the caller calibrates from the cache's observed wall
// clocks (once, however many manifests it plans), and cells already
// present in the cache count as zero.
//
// The partition is still contiguous-by-index — that is what keeps the
// byte-identical merge trivial (shard files concatenate in order) — so the
// planner picks the k-1 interior cut points where the cost prefix sum
// crosses the j/k fractions of the total. Determinism: the plan is a pure
// function of (manifest, cache contents at planning time, shard count);
// pin_plan then freezes it in plan.json so later cache churn cannot split
// one sweep two ways.
#ifndef ECONCAST_FABRIC_COST_PLAN_H
#define ECONCAST_FABRIC_COST_PLAN_H

#include <cstddef>
#include <string>

#include "fabric/shard_plan.h"
#include "runner/cost_model.h"
#include "runner/manifest.h"

namespace econcast::fabric {

/// The cost-balanced plan for `manifest` split `shard_count` ways, each
/// uncached cell weighted by `model.estimate_ms`. `cache_dir` may be empty
/// (no cache: estimates only, nothing counts as zero); a model calibrated
/// from it (CostModel::calibrate_from_cache) gives the cells of different
/// protocols their observed relative cost. Falls back to the equal split
/// when every cell estimates to zero remaining cost (e.g. a fully cached
/// sweep). Throws what ShardPlan / manifest expansion throw.
ShardPlan cost_balanced_plan(const runner::SweepManifest& manifest,
                             std::size_t shard_count,
                             const std::string& cache_dir,
                             const runner::CostModel& model);

}  // namespace econcast::fabric

#endif  // ECONCAST_FABRIC_COST_PLAN_H
