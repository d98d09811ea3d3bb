// Content-addressed cache of completed sweep cells.
//
// The repo's central invariant — a cell's result bytes are a pure function
// of its (protocol, scenario, seed) spec, proven byte-identical across
// threads and fabric shards — makes memoization sound: a cell computed once
// never needs to run again, across manifests (fig3 and table3 share cells),
// re-runs and shards.
//
// Keying. A cell's cache key is the canonical compact-JSON dump of an
// object holding everything its result bytes depend on:
//   { format, schema, epoch, seed, nodes, topology, protocol }
// where `protocol` is the cell's full ProtocolSpec JSON and `epoch` is a
// code-fingerprint string (kCacheEpoch) bumped whenever a change could alter
// any result byte — a stale cache can serve bytes from an older build
// otherwise. Execution policy (threads, order, cache) is never part of the
// key: it cannot change a result byte. The scenario
// *name* is deliberately excluded: names embed the sweep name, and the
// whole point is sharing cells across sweeps. The key is hashed with the
// dependency-free util::sha256 (std::hash is unstable across libstdc++
// versions/processes — the lint's raw-hash rule bans it from key paths)
// and the entry lives at <dir>/<first 2 hex>/<64 hex>.jsonl.
//
// Entry format (one compact JSON line):
//   {"format":"econcast-cell-cache","epoch":...,"key":{...},
//    "cost":{"protocol":...,"units":...},"wall_ms":...,"result":{...}}
// `key` is stored in full so probes re-validate the entry against the
// manifest expansion (exactly like the fabric merger re-validates shard
// records): a hit requires the stored key to equal the expected key
// value-for-value and the stored result to decode and re-serialize to the
// identical bytes. Anything else — torn write, truncation, tampering,
// epoch or key mismatch, hash collision — is a recorded rejection and the
// cell recomputes. A hit returns that re-serialization with the decoded
// result, so the session writes the cell's results line from it without
// encoding the result again: a hit costs one parse and two encodes. The line
// never copies the stored bytes, which may spell a number differently.
// `cost`/`wall_ms` feed the cost model's calibration (cost_model.h).
//
// Concurrency. publish() writes a temp file and renames it into place;
// concurrent writers of the same cell write entries that agree on every
// result byte (they may differ in the observed wall_ms metadata), so
// whichever rename lands last wins and readers never observe a torn entry.
// Multiple workers/processes may share one cache directory freely.
#ifndef ECONCAST_RUNNER_CELL_CACHE_H
#define ECONCAST_RUNNER_CELL_CACHE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "protocol/protocol.h"
#include "runner/scenario_runner.h"
#include "util/json.h"

namespace econcast::runner {

/// The code-fingerprint epoch baked into every key. Bump on any change that
/// could alter a result byte (simulator logic, RNG, JSON formatting, seed
/// derivation); entries from other epochs simply miss.
inline constexpr const char* kCacheEpoch = "econcast-epoch-1";

class CellCache {
 public:
  struct Stats {
    std::size_t hits = 0;       // probe found a valid entry
    std::size_t misses = 0;     // no entry on disk (a foreign epoch hashes
                                // to a different path, so it misses here)
    std::size_t rejected = 0;   // entry present but failed validation
    std::size_t publishes = 0;  // entries written
  };

  struct Probe {
    bool hit = false;
    protocol::SimResult result;  // valid only when hit
    /// dump(to_json(result)), the encoding the probe validated against the
    /// stored bytes; a results line can use it as is. Empty on a miss.
    std::string result_json;
  };

  /// A cache rooted at `dir` (created lazily on first publish). The epoch
  /// defaults to kCacheEpoch; tests inject other epochs to exercise the
  /// mismatch path.
  explicit CellCache(std::string dir, std::string epoch = kCacheEpoch);

  const std::string& dir() const noexcept { return dir_; }
  const Stats& stats() const noexcept { return stats_; }

  /// The canonical key object for a cell (see file comment for contents).
  util::json::Value cell_key(const Scenario& cell, std::uint64_t seed) const;

  /// <dir>/<hex[0:2]>/<hex>.jsonl for the given key object.
  std::string entry_path(const util::json::Value& key) const;

  /// Looks the cell up, re-validating any stored entry. A hit returns the
  /// decoded result with its validated encoding. Never throws on a bad
  /// entry — validation failures count as rejected+miss and the caller
  /// recomputes. Updates stats.
  Probe probe(const Scenario& cell, std::uint64_t seed);

  /// Existence-only probe (no read, no validation, no stats) — the cheap
  /// form the fabric planner uses to cost cached cells at ~zero.
  bool contains(const Scenario& cell, std::uint64_t seed) const;

  /// Writes/overwrites the cell's entry (temp + rename). `wall_ms` is the
  /// observed execution wall clock, persisted for cost-model calibration.
  /// Throws std::runtime_error on I/O failure.
  void publish(const Scenario& cell, std::uint64_t seed,
               const protocol::SimResult& result, double wall_ms);

  // ------------------------------------------------ directory utilities --

  struct ProtocolStats {
    std::size_t entries = 0;
    double wall_ms = 0.0;  // recorded compute of those entries
    double units = 0.0;    // their predicted cost (CostModel::estimate_units)
  };

  struct DirStats {
    std::size_t entries = 0;
    std::uintmax_t bytes = 0;
    double total_wall_ms = 0.0;          // observed compute time saved/entry
    std::map<std::string, ProtocolStats> by_protocol;
    /// *.jsonl paths whose status or size could not be read (a symlink
    /// loop, an entry removed mid-walk); skipped, not counted above.
    std::size_t unreadable = 0;
  };

  /// Scans a cache directory (entry counts, bytes, per-protocol breakdown).
  /// Unparsable files count toward entries/bytes but not the breakdown. A
  /// missing directory scans as empty.
  static DirStats scan(const std::string& dir);

  struct GcReport {
    std::size_t entries_before = 0;
    std::size_t entries_removed = 0;
    std::uintmax_t bytes_before = 0;
    std::uintmax_t bytes_after = 0;
    std::size_t unreadable = 0;  // skipped, as in DirStats
  };

  /// Deletes oldest-first (by file modification time, ties by path) until
  /// the directory is within `max_bytes`. A content-addressed cache needs
  /// no reference counting — deleting any entry only costs a recompute.
  static GcReport gc(const std::string& dir, std::uintmax_t max_bytes);

 private:
  std::string dir_;
  std::string epoch_;
  Stats stats_;
};

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_CELL_CACHE_H
