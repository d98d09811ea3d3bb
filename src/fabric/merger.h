// Merging shard results into the canonical single-process results file.
//
// Every shard record was written by runner::SweepSession::write_record with
// the cell's *global* index, name and derived seed — exactly the bytes a
// single-process run writes for that cell. The merger therefore never
// re-serializes anything: it validates each shard file record-by-record
// against the manifest expansion (index contiguity across the whole plan,
// name and seed per cell, complete trailing newline) and concatenates the
// raw line bytes in shard order into the merged file (temp + rename, so a
// partially merged file is never observable). Byte-identity to an
// uninterrupted `econcast_sweep` run is by construction, and CI re-checks
// it with `cmp` on every push.
#ifndef ECONCAST_FABRIC_MERGER_H
#define ECONCAST_FABRIC_MERGER_H

#include <cstddef>
#include <string>

namespace econcast::fabric {

class Merger {
 public:
  struct Report {
    std::size_t shard_count = 0;
    std::size_t cells = 0;
    std::string merged_path;
  };

  /// Merges the shard files of `manifest_path`'s pinned plan (plan.json —
  /// see shard_plan.h) into `merged_path` (empty = merged_results_path).
  /// Throws std::runtime_error when a shard file is missing, short, long,
  /// ends in a partial record, or any record's index/name/seed disagrees
  /// with the manifest expansion — a merge either produces the exact
  /// single-process bytes or fails loudly, naming the offending file.
  static Report merge(const std::string& manifest_path,
                      std::string merged_path = {});

  /// Same, with an explicit shard count (the standalone `econcast_sweep
  /// --merge --shards K` path). When plan.json exists it must pin this
  /// count and its bounds give the ranges; otherwise the ranges are the
  /// equal split.
  static Report merge(const std::string& manifest_path,
                      std::size_t shard_count, std::string merged_path);
};

}  // namespace econcast::fabric

#endif  // ECONCAST_FABRIC_MERGER_H
