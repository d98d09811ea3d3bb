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
// out-of-order completions and appends the ready prefix. On one thread the
// cells run in index order, so each one is checkpointed as soon as it
// finishes. On more threads they start longest-first (cost_model.h) and a
// finished cell waits in the buffer until every lower index has finished.
// When cost rises with index, as in the usual expansion, the lowest pending
// cell is the cheapest and runs last: a kill before it finishes loses every
// cell the run has finished so far. Lost cells rerun byte-identically on
// resume, and run(limit) checkpoints exactly `limit` cells either way.
//
// A content-addressed CellCache (cell_cache.h) sits on top, output-invisible
// by construction: before submitting the pending range, the session probes
// every cell and only misses run. A hit that is next in index order is
// written as it is probed, from the encoding the probe validated, and its
// result is moved into the completed prefix; a hit behind a miss waits in
// the reorder buffer as a decoded result and is encoded when it is flushed.
// Completed misses are published back. A warm rerun therefore executes zero
// cells while producing byte-identical results files.
#ifndef ECONCAST_RUNNER_SWEEP_SESSION_H
#define ECONCAST_RUNNER_SWEEP_SESSION_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
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
  struct Options {
    /// Thread cap for the cell batches; 0 = hardware_concurrency.
    std::size_t num_threads = 0;
    /// Executor to submit to; null = exec::Executor::shared().
    std::shared_ptr<exec::Executor> executor;
    /// Per-cell hook, invoked as each cell finishes: cache hits first, in
    /// index order, then executed cells in completion order. `index` is the
    /// cell's global manifest index and `done`/`total` count the session's
    /// finished cells including those loaded from a previous run.
    /// Serialized. The ready prefix is appended to the results file before
    /// the call; on more than one thread that need not include this cell.
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
  /// session is already complete. If a cell throws, the completed prefix
  /// of cells is already checkpointed and the exception is rethrown.
  std::size_t run(std::size_t limit = 0);

  /// Index-ordered results and summary over this session's cell range.
  /// Requires complete() (throws std::logic_error otherwise).
  BatchResult results() const;

 private:
  void load_existing();
  /// Appends the cell's results line to `out` and flushes it; `result_json`
  /// is dump(to_json(result)). Throws std::runtime_error if the write fails.
  void write_record(std::ostream& out, std::size_t global_index,
                    std::string_view result_json) const;
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
