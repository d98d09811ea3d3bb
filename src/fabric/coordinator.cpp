#include "fabric/coordinator.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "fabric/claim.h"
#include "fabric/cost_plan.h"
#include "fabric/merger.h"
#include "fabric/shard_plan.h"
#include "runner/manifest.h"

namespace econcast::fabric {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kManifestSuffix = ".manifest.json";

bool is_manifest_name(const std::string& name) {
  return name.size() > kManifestSuffix.size() &&
         name.compare(name.size() - kManifestSuffix.size(),
                      kManifestSuffix.size(), kManifestSuffix) == 0;
}

}  // namespace

Coordinator::Coordinator(std::string spool_dir, Options options)
    : spool_dir_(std::move(spool_dir)), options_(options) {
  if (options_.shard_count == 0)
    throw std::invalid_argument("coordinator needs at least one shard");
}

std::vector<Coordinator::SweepStatus> Coordinator::pass() {
  if (!fs::is_directory(spool_dir_))
    throw std::runtime_error("spool directory '" + spool_dir_ +
                             "' does not exist");
  // Deterministic order: manifests sorted by name.
  std::vector<std::string> manifests;
  for (const fs::directory_entry& entry : fs::directory_iterator(spool_dir_)) {
    if (entry.is_regular_file() &&
        is_manifest_name(entry.path().filename().string()))
      manifests.push_back(entry.path().string());
  }
  std::sort(manifests.begin(), manifests.end());

  std::vector<SweepStatus> statuses;
  statuses.reserve(manifests.size());
  std::optional<runner::CostModel> model;
  // A manifest that cannot advance must not starve the ones sorted after
  // it: its failure becomes its status, and the next manifest gets its turn.
  for (const std::string& path : manifests) {
    try {
      statuses.push_back(pass_manifest(path, model));
    } catch (const std::exception& e) {
      SweepStatus& failed = statuses.emplace_back();
      failed.manifest_path = path;
      failed.error = e.what();
    }
  }
  return statuses;
}

Coordinator::SweepStatus Coordinator::pass_manifest(
    const std::string& manifest_path,
    std::optional<runner::CostModel>& model) {
  SweepStatus status;
  status.manifest_path = manifest_path;

  const runner::SweepManifest manifest = runner::load_manifest(manifest_path);
  status.total_cells = manifest.spec.cell_count();
  status.plan_pinned = !plan_exists(manifest_path);
  // Only a plan this pass actually pins pays for cost balancing; an
  // existing plan.json keeps its bounds regardless (pin_plan contract).
  const bool balance = status.plan_pinned && !options_.cache_dir.empty();
  if (balance && !model) {
    model.emplace();
    model->calibrate_from_cache(options_.cache_dir);
  }
  const ShardPlan plan =
      balance
          ? pin_plan(manifest_path,
                     cost_balanced_plan(manifest, options_.shard_count,
                                        options_.cache_dir, *model))
          : pin_plan(manifest_path, status.total_cells, options_.shard_count);
  status.shard_count = plan.shard_count();

  const std::int64_t now = wall_clock_seconds();
  for (std::size_t i = 0; i < plan.shard_count(); ++i) {
    const ShardRange range = plan.shard(i);
    const std::string claim_path =
        shard_claim_path(manifest_path, i, plan.shard_count());
    const std::size_t done =
        complete_line_count(shard_results_path(manifest_path, i,
                                               plan.shard_count()));
    status.cells_done += std::min(done, range.size());
    if (done >= range.size()) {
      ++status.shards_complete;
      // Every cell is checkpointed; a leftover claim (worker killed between
      // its last cell and its own release) no longer guards anything.
      release_claim(claim_path);
      continue;
    }
    if (!claim_exists(claim_path)) continue;  // unclaimed: worker-claimable
    bool stale;
    try {
      stale = load_claim(claim_path).stale(now, options_.lease_seconds);
    } catch (const std::runtime_error&) {
      // A torn/corrupt claim holds the shard but identifies no worker:
      // treat as abandoned.
      stale = true;
    }
    if (stale) {
      release_claim(claim_path);
      ++status.shards_reassigned;
    } else {
      ++status.shards_claimed;
    }
  }

  const std::string merged = merged_results_path(manifest_path);
  if (status.shards_complete == status.shard_count && !fs::exists(merged))
    Merger::merge(manifest_path, merged);
  status.merged = fs::exists(merged);
  return status;
}

}  // namespace econcast::fabric
