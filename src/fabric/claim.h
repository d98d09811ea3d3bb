// Shard-claim files: how fabric workers take ownership of a shard and how
// the coordinator decides a worker has died.
//
// A claim is a small JSON file next to the shard's results JSONL (see
// shard_plan.h for paths). Ownership is the *existence* of the file:
// acquisition is an atomic create-exclusive (O_CREAT|O_EXCL), so exactly
// one worker can hold a shard at a time — there is no distributed lock
// beyond the (shared) filesystem. The worker heartbeats by atomically
// rewriting the claim with a fresh `heartbeat_at` as each cell finishes,
// whether or not the cell has reached the shard file yet (on more than one
// thread cells finish out of index order and wait for the lower ones); the
// coordinator treats a claim whose heartbeat is older than the lease as
// abandoned, deletes it, and the shard becomes claimable again.
// The new worker resumes from the shard's results file exactly as a
// single-process `econcast_sweep` rerun would — the kill-anywhere contract
// of runner::SweepSession carries over unchanged.
//
// Claim format (one pretty-printed JSON object):
//   {
//     "format": "econcast-shard-claim",
//     "shard": 1, "shards": 3,
//     "worker": "host-1234",        // free-form worker id
//     "claimed_at": 1754550000,     // unix seconds, wall clock
//     "heartbeat_at": 1754550012,   // last heartbeat, unix seconds
//     "cells_done": 5               // session's finished cells at heartbeat
//   }
//
// The lease must comfortably exceed the worst-case wall clock of one cell
// (heartbeats happen per finished cell, not on a timer, and a running
// worker finishes some cell at least that often): undersizing it
// can reassign a shard whose worker is merely slow, and two live writers
// on one shard file produce interleaved records that the merger will
// reject (detected, not silent).
#ifndef ECONCAST_FABRIC_CLAIM_H
#define ECONCAST_FABRIC_CLAIM_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace econcast::fabric {

struct ShardClaim {
  std::size_t shard = 0;
  std::size_t shard_count = 0;
  std::string worker;
  std::int64_t claimed_at = 0;    // unix seconds
  std::int64_t heartbeat_at = 0;  // unix seconds
  std::uint64_t cells_done = 0;   // finished cells at last heartbeat

  /// Stale when `now - heartbeat_at >= lease_seconds`. A zero lease makes
  /// every claim stale — the deterministic knob tests and CI use to force
  /// reassignment without waiting.
  bool stale(std::int64_t now, std::int64_t lease_seconds) const noexcept {
    return now - heartbeat_at >= lease_seconds;
  }
};

/// Wall-clock unix seconds (system_clock).
std::int64_t wall_clock_seconds();

/// Atomically creates `path` with the claim's contents. Returns false when
/// the file already exists (the shard is owned by someone else); throws
/// std::runtime_error on any other I/O failure.
bool try_acquire_claim(const std::string& path, const ShardClaim& claim);

/// Parses a claim file. Throws std::runtime_error when unreadable or
/// malformed (a torn claim is treated as corrupt, never half-parsed).
ShardClaim load_claim(const std::string& path);

/// Heartbeat: atomically rewrites `path` (temp + rename) with
/// heartbeat_at = wall_clock_seconds() and the given progress. Throws
/// std::runtime_error when the claim no longer belongs to `claim.worker`
/// (the coordinator reassigned the shard under us) or is gone — the caller
/// must stop writing to the shard.
void touch_claim(const std::string& path, ShardClaim& claim,
                 std::uint64_t cells_done);

/// Removes a claim file; missing files are fine (release is idempotent).
void release_claim(const std::string& path);

bool claim_exists(const std::string& path);

}  // namespace econcast::fabric

#endif  // ECONCAST_FABRIC_CLAIM_H
