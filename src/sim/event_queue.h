// Future-event list for the continuous-time simulators: a binary heap over
// a reservable (optionally arena-backed) vector, popping in the strict total
// order (time, seq) — seq is assigned by push order, so simultaneous events
// pop first-in first-out.
//
// Cancellation is owned by the queue: `schedule()` enters a *cancellable*
// event bound to the current generation of its (node, kind) slot and bumps
// that generation (so at most one scheduled event per slot is ever live),
// `cancel()` bumps the generation without entering anything, and stale
// events are pruned lazily when they surface at the head — the classic
// lazy-deletion scheme that used to be hand-rolled with validity stamps in
// proto::Simulation and testbed::run_testbed. Re-sampling on cancel is
// statistically valid because the sojourn times are exponential
// (memorylessness). `push()` enters a durable event that no cancellation
// affects.
//
// Lazy deletion alone lets cancelled far-future events pile up: a sleeping
// node's wake-up can sit orders of magnitude past the horizon, get
// superseded thousands of times, and every stale copy stays stored because
// it never surfaces at the head. The queue therefore tracks the exact live
// count (at most one scheduled event per (node, kind) slot plus the durable
// events) and, when stale entries outnumber live ones, compacts the heap in
// place — filtering the stale events out and re-heapifying. The trigger
// depends only on the operation sequence, never on wall time, so compaction
// is deterministic and invisible in the pop order (it only removes events
// that could never be delivered); the pruned events count into stale_drops
// exactly as if they had surfaced.
#ifndef ECONCAST_SIM_EVENT_QUEUE_H
#define ECONCAST_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>

#include "sim/arena.h"
#include "sim/node_id.h"

namespace econcast::sim {

enum class EventKind : std::uint8_t {
  kTransition,      // a node's next sleep/listen/transmit state change
  kPacketEnd,       // end of the packet currently on the air
  kIntervalEnd,     // end of a node's multiplier-update interval τ_k
  kPingSlot,        // testbed: a scheduled ping inside the ping interval
  kEnergyDepleted,  // energy guard: storage hit the floor / refill reached
  kCustom,          // protocol-specific
};

/// Number of EventKind values; sizes the per-(node, kind) generation table.
inline constexpr std::size_t kEventKindCount = 6;

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break for identical times
  EventKind kind = EventKind::kCustom;
  bool cancellable = false;  // entered via schedule() rather than push()
  NodeId node = 0;
  std::uint64_t stamp = 0;  // queue generation (cancellable events only)
};

/// The strict total order the queue pops in: earliest time first, push
/// order (seq) breaking ties. `operator()(a, b)` is "a pops later than b".
struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Instrumentation counters; a pure function of the call sequence
/// (staleness is resolved in pop order).
struct QueueStats {
  std::uint64_t pushes = 0;       // push() + schedule() calls that entered
  std::uint64_t pops = 0;         // live events handed to the caller
  std::uint64_t stale_drops = 0;  // cancelled events pruned (head or compact)
  std::size_t peak_live = 0;      // high-water mark of stored events
};

class EventQueue {
 public:
  /// With an arena, event storage and the generation table are arena-backed
  /// (the arena must outlive the queue and any queue moved-from it).
  explicit EventQueue(Arena* arena = nullptr);

  /// The shared capacity policy for simulators whose live event count is
  /// bounded by a few events per node (pending transition, interval end,
  /// the packet on the air, energy-guard wakeups, a warmup snapshot).
  static constexpr std::size_t capacity_for_nodes(std::size_t n) noexcept {
    return 4 * n + 8;
  }

  /// Pre-sizes the queue for an `n`-node simulation: event storage per
  /// capacity_for_nodes plus the (node, kind) generation table. Both
  /// proto::Simulation and testbed::run_testbed call this instead of
  /// hand-picking constants.
  void reserve_for_nodes(std::size_t n);

  /// Enters a durable event: it stays live until popped.
  void push(double time, EventKind kind, NodeId node);

  /// Enters a cancellable event, implicitly cancelling any live event
  /// previously scheduled for the same (node, kind) — at most one scheduled
  /// event per slot is live at any time.
  void schedule(double time, EventKind kind, NodeId node);

  /// Invalidates the live scheduled event for (node, kind), if any. O(1):
  /// the event itself is pruned lazily when it reaches the head.
  void cancel(NodeId node, EventKind kind);

  /// Prunes cancelled events off the head; true when no live event remains.
  bool empty();
  /// The earliest live event. Throws std::logic_error when empty().
  const Event& top();
  /// Removes and returns the earliest live event. Throws std::logic_error
  /// when empty().
  Event pop();

  void clear();
  /// Pre-allocates storage for `n` simultaneously pending events.
  void reserve(std::size_t n);
  std::size_t capacity() const noexcept;
  /// Stored events, including cancelled ones not yet pruned.
  std::size_t size() const noexcept;

  const QueueStats& stats() const noexcept { return stats_; }

 private:
  /// Below this stored-event count compaction is never attempted; keeps the
  /// unit-test-scale call sequences (and their exact counter expectations)
  /// on the pure lazy-deletion path.
  static constexpr std::size_t kCompactionFloor = 64;

  std::size_t slot(NodeId node, EventKind kind);
  bool stale(const Event& e) const noexcept;
  /// Prunes stale events at the head; nullptr when no live event remains.
  const Event* peek_live();
  /// Compacts the heap when stale entries outnumber live ones.
  void maybe_compact();

  ArenaVector<Event> heap_;                 // std::push_heap order, EventLater
  ArenaVector<std::uint64_t> generations_;  // node-major, kEventKindCount wide
  ArenaVector<std::uint8_t> slot_live_;     // 1 iff the slot's scheduled
                                            // event is stored and live
  std::size_t live_ = 0;                    // live stored events, exact
  std::uint64_t next_seq_ = 0;
  QueueStats stats_;
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_EVENT_QUEUE_H
