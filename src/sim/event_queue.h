// Future-event list for the continuous-time simulators: an addressable
// 4-ary heap plus one FIFO lane per event kind, all over reservable
// std::vector storage, popping in the strict total order (time, seq) — seq
// is assigned at every push and (re)schedule, so simultaneous events pop
// first-in first-out. Because no two events share a seq, that order fixes
// the pop sequence whatever the heap's shape.
//
// Cancellation is owned by the queue. `schedule()` enters a *cancellable*
// event in its (node, kind) slot, and every slot knows the heap position of
// its event: rescheduling an occupied slot overwrites that entry in place
// and sifts it, `cancel()` removes it in O(log n), and a pop frees the
// slot. The queue therefore stores exactly the live events — the indexed
// priority queue of the next-reaction method (Gibson & Bruck, J. Phys.
// Chem. A 104:1876, 2000). Re-sampling on cancel is statistically valid
// because the sojourn times are exponential (memorylessness).
//
// The heap is 4-ary: the parent of index i is (i - 1) / 4 and its children
// are 4i + 1 … 4i + 4. In a clique, carrier sense makes removals and
// reschedules most of the heap's work — every burst start cancels the
// pending transition of all N - 1 neighbours and every burst end
// re-samples them. EconCast enters a re-sampled event only when it falls
// at or before the next multiplier boundary (proto::Simulation), so most
// of those re-samples never reach the heap and most of those cancels find
// an empty slot. What does reach it pays a 4-ary sift, which crosses half
// the levels of a binary one, at up to four comparisons per level among
// children that share a cache line or two.
//
// `push()` enters a durable event that no cancellation affects. Durable
// events come at a fixed delay — EconCast's one multiplier boundary per τ
// at now + τ, and its packet ends at now + 1 — so each kind's pushes arrive
// already in time order. The lane rule: a push appends to its kind's lane
// when its time is not earlier than the lane's tail (seq only grows, so the
// lane stays sorted on (time, seq)); any other push enters the heap.
// `top()` and `pop_until()` take the earliest of the heap top and the lane
// fronts, scanning the lanes once per call. On the Fig. 6 N = 100 grid
// durable events, nearly all of them packet ends, are 27–41% of all pops,
// and a lane pops them in O(1) instead of a full sift-down. Out-of-order
// pushes (the testbed's drifting per-node interval clocks) take the heap
// path.
#ifndef ECONCAST_SIM_EVENT_QUEUE_H
#define ECONCAST_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/node_id.h"

namespace econcast::sim {

enum class EventKind : std::uint8_t {
  kTransition,      // a node's next sleep/listen/transmit state change
  kPacketEnd,       // end of the packet currently on the air
  kIntervalEnd,     // end of a multiplier-update interval τ_k: EconCast
                    // has one per boundary for every node, the testbed
                    // one per node
  kPingSlot,        // testbed: a scheduled ping inside the ping interval
  kEnergyDepleted,  // energy guard: storage hit the floor / refill reached
  kCustom,          // protocol-specific
};

/// Number of EventKind values; sizes the per-(node, kind) position index.
inline constexpr std::size_t kEventKindCount = 6;

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break for identical times
  EventKind kind = EventKind::kCustom;
  bool cancellable = false;  // entered via schedule() rather than push()
  NodeId node = 0;
};

/// The strict total order the queue pops in: earliest time first, push
/// order (seq) breaking ties. `operator()(a, b)` is "a pops later than b".
struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Instrumentation counters; a pure function of the call sequence. After
/// every call, pushes == pops + cancels + size().
struct QueueStats {
  std::uint64_t pushes = 0;   // push() + schedule() calls
  std::uint64_t pops = 0;     // events handed to the caller
  std::uint64_t cancels = 0;  // live events removed by cancel() or
                              // replaced by schedule()
  std::size_t peak_live = 0;  // high-water mark of size()
};

class EventQueue {
 public:
  /// The shared capacity policy for simulators whose live event count is
  /// bounded by a few events per node (pending transition, interval end,
  /// the packet on the air, energy-guard wakeups, a warmup snapshot).
  static constexpr std::size_t capacity_for_nodes(std::size_t n) noexcept {
    return 4 * n + 8;
  }

  /// Pre-sizes the queue for an `n`-node simulation: heap storage per
  /// capacity_for_nodes plus the (node, kind) position index. Both
  /// proto::Simulation and testbed::run_testbed call this instead of
  /// hand-picking constants.
  void reserve_for_nodes(std::size_t n);

  /// Enters a durable event: it stays live until popped. It joins its
  /// kind's lane unless it is earlier than the lane's tail.
  void push(double time, EventKind kind, NodeId node);

  /// Enters a cancellable event for (node, kind), replacing the slot's live
  /// event if it has one — at most one scheduled event per slot is live.
  void schedule(double time, EventKind kind, NodeId node);

  /// Removes the live scheduled event for (node, kind), if any. O(log n).
  /// Most of EconCast's cancels find the slot empty, so that test is
  /// inline and only a removal makes a call.
  void cancel(NodeId node, EventKind kind) {
    const std::size_t s = slot_index(node, kind);
    if (s < position_.size() && position_[s] != kNoPosition) cancel_slot(s);
  }

  bool empty() const noexcept { return size() == 0; }
  /// The earliest event; the reference stays valid until the next mutating
  /// call. Throws std::logic_error when empty().
  const Event& top() const;
  /// The simulators' one pop: moves the earliest event into `out` and
  /// returns true when its time is at most `limit`. Otherwise, and when
  /// empty(), it returns false and leaves the queue and stats() untouched.
  /// Pass an infinite limit to pop unconditionally.
  bool pop_until(double limit, Event& out);

  /// Live events.
  std::size_t size() const noexcept { return heap_.size() + lane_events_; }

  const QueueStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kNoPosition = ~std::size_t{0};
  static constexpr std::size_t kArity = 4;  // children per heap node
  static constexpr std::size_t kFirstLaneCapacity = 8;

  /// A FIFO ring of durable events of one kind, sorted on (time, seq).
  struct Lane {
    std::vector<Event> ring;  // capacity ring.size(): 0 or a power of two
    std::size_t head = 0;
    std::size_t count = 0;

    const Event& front() const noexcept { return ring[head]; }
    const Event& back() const noexcept {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
  };

  static std::size_t slot_index(NodeId node, EventKind kind) noexcept {
    return static_cast<std::size_t>(node) * kEventKindCount +
           static_cast<std::size_t>(kind);
  }
  /// Writes `e` at heap index `i`, recording the position of a scheduled
  /// event in its slot.
  void place(std::size_t i, const Event& e);
  /// Fills the hole at heap index `i` with `e`, sifting up or down.
  void settle(std::size_t i, const Event& e);
  /// Removes the entry at heap index `i`.
  void remove_at(std::size_t i);
  /// Removes the live event of slot `s`.
  void cancel_slot(std::size_t s);
  /// The index of the lane whose front is the earliest event, or
  /// kEventKindCount when the heap top is (or every lane is empty).
  std::size_t earliest_lane() const noexcept;
  /// Doubles the lane's ring, unwrapping it to head 0.
  void grow(Lane& lane);
  void note_push();

  std::vector<Event> heap_;               // 4-ary min-heap on EventLater
  std::vector<std::size_t> position_;     // node-major, kEventKindCount wide:
                                          // heap index or kNoPosition
  Lane lanes_[kEventKindCount];           // durable pushes, per kind
  std::size_t lane_events_ = 0;           // summed lane counts
  std::uint64_t next_seq_ = 0;
  QueueStats stats_;
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_EVENT_QUEUE_H
