// Checkpointed execution of a sweep manifest.
//
// A SweepSession pairs a SweepManifest with a results file (JSON Lines, one
// completed cell per line, written strictly in cell-index order and flushed
// line by line). Because the on-disk order is the expansion order and every
// cell's seed derives from its global index, a session killed at any point —
// even mid-write — resumes by truncating the partial trailing line, skipping
// the completed prefix, and running the remaining cells with exactly the
// seeds the uninterrupted run would have used. The resumed results file is
// byte-identical to an uninterrupted one (covered by
// tests/test_sweep_session.cpp).
//
// Results stream through ScenarioRunner's on_scenario_done hook: cells
// complete on executor threads in any order, the hook (serialized) buffers
// out-of-order completions and appends the ready prefix, so a crash never
// loses more than the cells still in flight.
//
// Two throughput layers sit on top (both output-invisible by construction):
//  - A content-addressed CellCache (cell_cache.h). Before submitting the
//    pending range, the session probes every cell; hits are fed straight
//    into the reorder buffer and only misses run. Completed misses are
//    published back. A warm rerun therefore executes zero cells while
//    producing byte-identical results files.
//  - Cost-model submission order (cost_model.h). With SubmitOrder::kCost the
//    pending misses are submitted longest-expected-first (LPT), shrinking
//    the makespan tail where one heavy cell lands last on a busy pool. The
//    reorder buffer already writes the file in index order no matter what
//    order cells complete in, which is what makes reordering legal.
#ifndef ECONCAST_RUNNER_SWEEP_SESSION_H
#define ECONCAST_RUNNER_SWEEP_SESSION_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/cell_cache.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"

namespace econcast::runner {

/// The manifest's expansion — exactly the cells a SweepSession over this
/// manifest runs, and therefore exactly the specs its cache keys hash.
/// Fabric planners use this to derive the same keys a worker's session will.
/// (The name is kept for API stability; there are no overrides to apply.)
std::vector<Scenario> expand_with_overrides(const SweepManifest& manifest);

/// The seed cell `global_index` of the expansion runs with (the cell itself
/// is needed for the reseed=false case, where its own spec seed applies).
std::uint64_t manifest_cell_seed(const SweepManifest& manifest,
                                 const Scenario& cell,
                                 std::size_t global_index) noexcept;

class SweepSession {
 public:
  /// Order the pending cells are handed to the executor in. Either way the
  /// results file is written in cell-index order — this is a makespan knob.
  enum class SubmitOrder {
    kExpansion,  // manifest expansion order (index order)
    kCost,       // longest-expected-first per the calibrated cost model
  };

  struct Options {
    /// Thread cap for the cell batches; 0 = hardware_concurrency.
    std::size_t num_threads = 0;
    /// Executor to submit to; null = exec::Executor::shared().
    std::shared_ptr<exec::Executor> executor;
    /// Per-cell completion hook: `index` is the cell's global manifest index
    /// and `done`/`total` count the session's completed cells including
    /// those loaded from a previous run. Serialized; invoked after the
    /// cell's line has been appended to the results file.
    std::function<void(const ScenarioProgress&)> on_cell_done;
    /// Restrict the session to the contiguous expansion range
    /// [cell_begin, cell_end) — the primitive behind sharded sweeps
    /// (src/fabric). cell_end == 0 means "through the last cell". The
    /// results file then holds exactly that range, with every record still
    /// keyed by *global* cell index/name/seed, so concatenating the files
    /// of a partition of [0, cell_count) in order reproduces the
    /// whole-sweep results file byte for byte. The constructor throws
    /// std::invalid_argument on inverted or out-of-range bounds.
    std::size_t cell_begin = 0;
    std::size_t cell_end = 0;
    /// Result cache shared with other sessions/processes; null disables
    /// caching. run() probes it before submitting (hits skip execution
    /// entirely) and publishes every newly computed cell. The same pointer
    /// may back many sessions — CellCache keeps per-instance stats, and the
    /// on-disk directory is multi-process safe.
    std::shared_ptr<CellCache> cache;
    /// See SubmitOrder. kCost calibrates a CostModel from the cache
    /// directory (when a cache is attached) so the ordering improves as
    /// observed wall clocks accumulate.
    SubmitOrder order = SubmitOrder::kExpansion;
  };

  /// Opens a session: expands the manifest, loads the completed prefix from
  /// `results_path` (creating the file lazily on first run), truncates any
  /// partial trailing line a kill left behind, and validates that the
  /// recorded cells match the manifest expansion (index, name and seed per
  /// line). Throws std::runtime_error on a manifest/results mismatch and
  /// util::json::Error on corrupt (complete but unparsable) lines.
  SweepSession(SweepManifest manifest, std::string results_path,
               Options options);
  SweepSession(SweepManifest manifest, std::string results_path);

  /// Convenience: load the manifest file and pair it with
  /// default_results_path(manifest_path).
  static SweepSession open(const std::string& manifest_path, Options options);
  static SweepSession open(const std::string& manifest_path);

  /// "<path minus trailing .json>.results.jsonl".
  static std::string default_results_path(const std::string& manifest_path);

  /// Number of cells this session owns — the whole expansion unless Options
  /// restricted it to a range.
  std::size_t cell_count() const noexcept { return end_ - begin_; }
  std::size_t completed_cells() const noexcept { return completed_.size(); }
  bool complete() const noexcept { return completed_.size() == cell_count(); }
  /// Global index of the first / one-past-last cell this session owns.
  std::size_t cell_begin() const noexcept { return begin_; }
  std::size_t cell_end() const noexcept { return end_; }
  /// The *full* expansion, indexed by global cell index (not range-local).
  const std::vector<Scenario>& cells() const noexcept { return batch_; }
  const std::string& results_path() const noexcept { return results_path_; }
  const SweepManifest& manifest() const noexcept { return manifest_; }
  /// The attached result cache (null when caching is off) — exposed so
  /// callers can report its hit/miss/publish stats after run().
  CellCache* cache() const noexcept { return options_.cache.get(); }

  /// Runs up to `limit` of the remaining cells (0 = all remaining),
  /// appending each completed cell to the results file. Returns the number
  /// of newly completed cells. Safe to call repeatedly; a no-op when the
  /// session is already complete. If a cell throws, every cell completed
  /// before the failure is already checkpointed and the exception is
  /// rethrown.
  std::size_t run(std::size_t limit = 0);

  /// Index-ordered results and summary over this session's cell range.
  /// Requires complete() (throws std::logic_error otherwise).
  BatchResult results() const;

 private:
  void load_existing();
  std::string record_line(std::size_t global_index,
                          const protocol::SimResult& result) const;
  std::uint64_t cell_seed(std::size_t global_index) const noexcept;

  SweepManifest manifest_;
  std::string results_path_;
  Options options_;
  std::vector<Scenario> batch_;  // full expansion
  std::size_t begin_ = 0;        // session range [begin_, end_)
  std::size_t end_ = 0;
  /// Completed prefix of the session range, mirroring the file: completed_
  /// holds cells [begin_, begin_ + completed_.size()).
  std::vector<protocol::SimResult> completed_;
};

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_SWEEP_SESSION_H
