// A fabric worker: claim one shard of a manifest, run it, heartbeat.
//
// Worker is a thin orchestration shell around a range-restricted
// runner::SweepSession: it pins (or validates) the shard plan, acquires the
// shard's claim file (atomic create — see claim.h), opens the session on
// the shard's results JSONL restricted to the shard's cell range, and
// touches the claim as each cell finishes. Kill a worker at any byte
// and the next claimant resumes from the shard file exactly as a
// single-process sweep resumes from its checkpoint; finish the shard and
// the claim is released. Everything a worker writes is keyed by global cell
// index, which is what makes the eventual merge byte-identical to a
// single-process run (see merger.h).
#ifndef ECONCAST_FABRIC_WORKER_H
#define ECONCAST_FABRIC_WORKER_H

#include <cstddef>
#include <functional>
#include <string>

#include "fabric/shard_plan.h"
#include "runner/scenario_runner.h"

namespace econcast::fabric {

class Worker {
 public:
  struct Options {
    /// Free-form worker id recorded in the claim; empty = "pid-<getpid>".
    std::string worker_id;
    /// Thread cap for the shard's cells; 0 = hardware_concurrency.
    std::size_t num_threads = 0;
    /// Stop (checkpoint + release the claim) after this many newly
    /// completed cells; 0 = run the shard to completion. The deterministic
    /// "interrupted worker" knob, mirroring `econcast_sweep --limit`.
    std::size_t limit = 0;
    /// Forwarded per-cell hook (progress lines); invoked as each cell
    /// finishes, after the heartbeat is written (see
    /// runner::SweepSession::Options::on_cell_done).
    std::function<void(const runner::ScenarioProgress&)> on_cell_done;
    /// Result-cache directory shared across workers (and with plain
    /// `econcast_sweep --cache` runs); empty = no cache. Cached cells skip
    /// execution, newly computed cells are published — results-neutral by
    /// contract.
    std::string cache_dir;
  };

  struct Outcome {
    enum class Status {
      kRan,              // held the claim; `ran` new cells completed
      kShardBusy,        // another worker holds the claim — nothing run
      kAlreadyComplete,  // shard results file already has every cell
    };
    Status status = Status::kRan;
    std::size_t shard_cells = 0;  // size of the shard's range
    std::size_t resumed = 0;      // loaded from a previous worker's file
    std::size_t ran = 0;          // newly completed by this worker
    bool shard_complete = false;
    std::string results_path;
  };

  /// Loads the manifest and pins/validates the shard plan. Throws
  /// std::invalid_argument for shard >= shard_count and propagates manifest
  /// and plan errors.
  Worker(std::string manifest_path, std::size_t shard,
         std::size_t shard_count, Options options);
  Worker(std::string manifest_path, std::size_t shard,
         std::size_t shard_count);

  const ShardRange& range() const noexcept { return range_; }
  const std::string& worker_id() const noexcept { return options_.worker_id; }

  /// Claim → run → heartbeat per finished cell → release. Returns without
  /// running anything when the shard is busy or already complete. On a cell
  /// failure the claim is released (completed cells stay checkpointed) and
  /// the exception propagates.
  Outcome run();

 private:
  std::string manifest_path_;
  Options options_;
  ShardRange range_;
};

}  // namespace econcast::fabric

#endif  // ECONCAST_FABRIC_WORKER_H
