// The fabric coordinator: spool-directory scanning, shard-plan pinning,
// stale-worker reassignment, and merge-on-completion.
//
// A coordinator pass scans a spool directory for `*.manifest.json` files
// and, for each manifest:
//   1. pins the shard plan (writes plan.json on first sight — see
//      shard_plan.h) so every worker shards the sweep the same way;
//   2. probes shard progress read-only (complete-line counts — the probe
//      never truncates a file a live worker is writing);
//   3. releases claims whose heartbeat is older than the lease: the
//      shard's claim file disappears, the next `econcast_sweep --shard`
//      worker re-acquires it and resumes from the shard's checkpoint;
//   4. when every shard's results file is complete, runs the Merger and
//      writes the canonical `<manifest>.results.jsonl` (skipped when the
//      merged file already exists).
// The coordinator never runs cells itself and holds no in-memory state
// between passes — all state lives in the fabric directory, so the daemon
// can be killed and restarted freely, and `--once` (one pass, then exit)
// gives CI a deterministic step.
#ifndef ECONCAST_FABRIC_COORDINATOR_H
#define ECONCAST_FABRIC_COORDINATOR_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runner/cost_model.h"

namespace econcast::fabric {

class Coordinator {
 public:
  struct Options {
    /// Shards per manifest for plans this coordinator pins. Manifests whose
    /// plan is already pinned keep their pinned count.
    std::size_t shard_count = 3;
    /// A claim whose heartbeat is at least this old is considered abandoned
    /// and released. Zero treats every claim as stale — the deterministic
    /// reassignment knob for tests/CI. Size it well above the worst-case
    /// per-cell wall clock (see claim.h).
    std::int64_t lease_seconds = 300;
    /// When non-empty, plans pinned by this coordinator are cost-balanced
    /// against this cache directory (see cost_plan.h) instead of
    /// equal-split: shards carry equal estimated *remaining* cost, cached
    /// cells counting as zero. Manifests with an already-pinned plan keep
    /// their pinned bounds either way. A pass scans the cache at most
    /// once, to calibrate the cost model, and only when it pins a plan.
    std::string cache_dir;
  };

  /// Per-manifest status of one pass.
  struct SweepStatus {
    std::string manifest_path;
    std::size_t total_cells = 0;
    std::size_t shard_count = 0;
    std::size_t cells_done = 0;       // checkpointed cells across shards
    std::size_t shards_complete = 0;  // shards with every cell checkpointed
    std::size_t shards_claimed = 0;   // live (fresh-heartbeat) claims
    std::size_t shards_reassigned = 0;  // stale claims released this pass
    bool plan_pinned = false;           // plan.json written this pass
    bool merged = false;                // merged file exists after this pass
    /// Why the manifest failed this pass (unreadable, unmergeable, ...);
    /// empty when it advanced. A failed status holds only manifest_path.
    std::string error;
  };

  /// Throws std::invalid_argument for shard_count == 0.
  Coordinator(std::string spool_dir, Options options);

  const std::string& spool_dir() const noexcept { return spool_dir_; }

  /// One scan over the spool (manifests in lexicographic order, so passes
  /// are deterministic), returning one status per manifest. A manifest that
  /// fails does not stop the pass: its status carries the message in
  /// `error`, and every other manifest is still advanced. Throws
  /// std::runtime_error only when the spool directory is missing.
  std::vector<SweepStatus> pass();

 private:
  /// `model` is the pass's cost model, calibrated from the cache the first
  /// time a manifest of the pass needs a cost-balanced plan.
  SweepStatus pass_manifest(const std::string& manifest_path,
                            std::optional<runner::CostModel>& model);

  std::string spool_dir_;
  Options options_;
};

}  // namespace econcast::fabric

#endif  // ECONCAST_FABRIC_COORDINATOR_H
