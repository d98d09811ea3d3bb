// The event queue: ordering, cancellation semantics, the bounded pop,
// counter accounting, the shared reserve_for_nodes capacity policy, and a
// randomized differential test against a trivially correct eager-deletion
// model of the same contract (std::map keyed on (time, seq)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "econcast/simulation.h"
#include "model/network.h"
#include "model/node_params.h"
#include "sim/event_queue.h"
#include "util/random.h"

namespace {

using namespace econcast;
using sim::Event;
using sim::EventKind;
using sim::EventQueue;

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/// Pops the earliest event with no time limit; fails the test when the
/// queue refuses.
Event pop_next(EventQueue& q) {
  Event e;
  EXPECT_TRUE(q.pop_until(kNoLimit, e)) << "pop from an empty queue";
  return e;
}

// ------------------------------------------------------------------ basics --

TEST(EventQueue, OrdersByTimeThenSeq) {
  EventQueue q;
  q.push(3.0, EventKind::kTransition, 0);
  q.push(1.0, EventKind::kPacketEnd, 1);
  q.push(2.0, EventKind::kIntervalEnd, 2);
  q.push(1.0, EventKind::kTransition, 3);  // ties pop in push order
  EXPECT_EQ(pop_next(q).node, 1u);
  EXPECT_EQ(pop_next(q).node, 3u);
  EXPECT_EQ(pop_next(q).node, 2u);
  EXPECT_EQ(pop_next(q).node, 0u);
  EXPECT_TRUE(q.empty());
}

/// The counter identity that holds after every queue call.
void expect_accounted(const EventQueue& q) {
  EXPECT_EQ(q.stats().pushes, q.stats().pops + q.stats().cancels + q.size());
}

TEST(EventQueue, CancelAccounting) {
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 0);
  expect_accounted(q);
  q.schedule(2.0, EventKind::kTransition, 0);  // replaces the first
  expect_accounted(q);
  q.schedule(3.0, EventKind::kEnergyDepleted, 0);
  expect_accounted(q);
  q.cancel(0, EventKind::kEnergyDepleted);
  expect_accounted(q);
  q.cancel(0, EventKind::kEnergyDepleted);  // nothing left to cancel
  expect_accounted(q);
  q.push(4.0, EventKind::kPacketEnd, 0);
  expect_accounted(q);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(pop_next(q).time, 2.0);
  expect_accounted(q);
  EXPECT_DOUBLE_EQ(pop_next(q).time, 4.0);
  expect_accounted(q);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().pushes, 4u);
  EXPECT_EQ(q.stats().pops, 2u);
  EXPECT_EQ(q.stats().cancels, 2u);
  EXPECT_EQ(q.stats().peak_live, 2u);
}

TEST(EventQueue, EmptyPopRefusesAndTopThrows) {
  EventQueue q;
  Event e;
  EXPECT_FALSE(q.pop_until(kNoLimit, e));
  EXPECT_THROW(q.top(), std::logic_error);
  // A fully cancelled queue is empty too.
  q.schedule(1.0, EventKind::kTransition, 0);
  q.cancel(0, EventKind::kTransition);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop_until(kNoLimit, e));
  EXPECT_EQ(q.stats().pops, 0u);
  EXPECT_EQ(q.stats().cancels, 1u);
}

/// Every QueueStats counter, compared as a whole.
void expect_same_stats(const sim::QueueStats& a, const sim::QueueStats& b) {
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.pops, b.pops);
  EXPECT_EQ(a.cancels, b.cancels);
  EXPECT_EQ(a.peak_live, b.peak_live);
}

TEST(EventQueue, BoundedPopTakesOnlyDueEvents) {
  // The earliest event sits in a lane, in the heap, and in a lane tied in
  // time with the heap top, entered before it and after it; each is
  // refused below its time and popped at it. A refused pop leaves size(),
  // top() and every counter as they were.
  EventQueue q;
  q.push(2.0, EventKind::kPacketEnd, 0);       // lane front
  q.schedule(3.0, EventKind::kTransition, 1);  // heap top
  q.push(4.0, EventKind::kIntervalEnd, 2);     // lane front, ties ...
  q.schedule(4.0, EventKind::kTransition, 3);  // ... with the heap top
  q.schedule(5.0, EventKind::kTransition, 4);  // heap top, ties ...
  q.push(5.0, EventKind::kIntervalEnd, 5);     // ... with the lane front
  const auto refuse_below = [&q](double time, std::uint32_t node) {
    const sim::QueueStats before = q.stats();
    const std::size_t size = q.size();
    Event e;
    EXPECT_FALSE(q.pop_until(std::nextafter(time, 0.0), e));
    EXPECT_EQ(q.size(), size);
    EXPECT_EQ(q.top().node, node);
    expect_same_stats(q.stats(), before);
  };
  const auto pop_at = [&q](double time, std::uint32_t node) {
    const std::uint64_t pops = q.stats().pops;
    Event e;
    ASSERT_TRUE(q.pop_until(time, e));
    EXPECT_EQ(e.node, node);
    EXPECT_EQ(e.time, time);
    EXPECT_EQ(q.stats().pops, pops + 1);
    expect_accounted(q);
  };
  refuse_below(2.0, 0);
  pop_at(2.0, 0);
  refuse_below(3.0, 1);
  pop_at(3.0, 1);
  // A tie goes to whichever was entered first.
  refuse_below(4.0, 2);
  pop_at(4.0, 2);
  refuse_below(4.0, 3);
  pop_at(4.0, 3);
  refuse_below(5.0, 4);
  pop_at(5.0, 4);
  refuse_below(5.0, 5);
  pop_at(5.0, 5);
  // The heap slots were freed by the pops: a cancel finds nothing.
  q.cancel(3, EventKind::kTransition);
  EXPECT_EQ(q.stats().cancels, 0u);
  EXPECT_TRUE(q.empty());
  Event e;
  EXPECT_FALSE(q.pop_until(kNoLimit, e));
  EXPECT_EQ(q.stats().pops, 6u);
}

TEST(EventQueue, TopIsConstAndRepeatable) {
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 0);
  q.schedule(2.0, EventKind::kTransition, 0);
  q.push(3.0, EventKind::kPacketEnd, 1);
  const EventQueue& view = q;
  EXPECT_FALSE(view.empty());
  EXPECT_DOUBLE_EQ(view.top().time, 2.0);
  EXPECT_DOUBLE_EQ(view.top().time, 2.0);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.stats().pops, 0u);
  EXPECT_DOUBLE_EQ(pop_next(q).time, 2.0);
  EXPECT_DOUBLE_EQ(view.top().time, 3.0);
  EXPECT_EQ(q.stats().pops, 1u);
}

TEST(EventQueue, CancelInvalidatesOnlyItsSlot) {
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 4);
  q.schedule(2.0, EventKind::kEnergyDepleted, 4);
  q.schedule(3.0, EventKind::kTransition, 5);
  q.cancel(4, EventKind::kTransition);
  EXPECT_EQ(pop_next(q).kind, EventKind::kEnergyDepleted);
  EXPECT_EQ(pop_next(q).node, 5u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DurablePushIsNotCancellable) {
  EventQueue q;
  q.push(1.0, EventKind::kPacketEnd, 4);
  q.cancel(4, EventKind::kPacketEnd);
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(pop_next(q).kind, EventKind::kPacketEnd);
}

TEST(EventQueue, ReserveForNodesAppliesSharedPolicy) {
  EventQueue q;
  q.reserve_for_nodes(100);
  EXPECT_EQ(EventQueue::capacity_for_nodes(100), 408u);
  EXPECT_TRUE(q.empty());
  // Slots past the reserved nodes still work: the index grows on demand.
  q.schedule(2.0, EventKind::kCustom, 99);
  q.schedule(1.0, EventKind::kTransition, 250);
  q.cancel(400, EventKind::kTransition);  // never scheduled: a no-op
  EXPECT_EQ(pop_next(q).node, 250u);
  EXPECT_EQ(pop_next(q).node, 99u);
  EXPECT_EQ(q.stats().cancels, 0u);
}

TEST(EventQueue, ReschedulesStoreOnlyLiveEvents) {
  // A sleeping node's far-future wake-up superseded over and over (the
  // fig. 6 pattern): every reschedule replaces the slot's entry in place,
  // so the queue holds exactly the live events throughout.
  EventQueue q;
  const std::uint32_t n = 8;
  q.reserve_for_nodes(n);
  for (int round = 0; round < 4000; ++round)
    for (std::uint32_t node = 0; node < n; ++node)
      q.schedule(1e9 + static_cast<double>(round * n + node),
                 EventKind::kTransition, node);
  q.push(0.5, EventKind::kPacketEnd, 0);
  EXPECT_EQ(q.size(), n + 1u);
  EXPECT_EQ(q.stats().peak_live, n + 1u);
  expect_accounted(q);
  EXPECT_DOUBLE_EQ(pop_next(q).time, 0.5);
  for (std::uint32_t node = 0; node < n; ++node) {
    const Event e = pop_next(q);
    EXPECT_EQ(e.node, node);  // last-scheduled round, ascending times
    EXPECT_DOUBLE_EQ(e.time, 1e9 + static_cast<double>(3999 * n + node));
  }
  EXPECT_TRUE(q.empty());
  expect_accounted(q);
}

TEST(EventQueue, ManySimultaneousEventsPopInPushOrder) {
  // Every event at the same time: seq alone decides.
  EventQueue q;
  for (std::uint32_t i = 0; i < 500; ++i)
    q.push(42.0, EventKind::kTransition, i);
  for (std::uint32_t i = 0; i < 500; ++i) EXPECT_EQ(pop_next(q).node, i);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPopInSeqOrderAcrossLanesAndHeap) {
  // Durable pushes of different kinds sit in different lanes and scheduled
  // events in the heap; at equal times seq alone decides, lane front against
  // lane front and lane front against heap entry alike.
  EventQueue q;
  q.push(5.0, EventKind::kCustom, 0);          // kCustom lane
  q.schedule(5.0, EventKind::kTransition, 1);  // heap
  q.push(5.0, EventKind::kIntervalEnd, 2);     // kIntervalEnd lane
  q.push(5.0, EventKind::kPacketEnd, 3);       // kPacketEnd lane
  q.schedule(5.0, EventKind::kTransition, 4);  // heap
  q.push(5.0, EventKind::kIntervalEnd, 5);     // kIntervalEnd lane, behind 2
  q.push(9.0, EventKind::kPacketEnd, 6);       // kPacketEnd lane tail
  q.push(5.0, EventKind::kPacketEnd, 7);       // earlier than the tail: heap
  EXPECT_EQ(q.size(), 8u);
  for (const std::uint32_t node : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 6u}) {
    EXPECT_EQ(q.top().node, node);
    const Event e = pop_next(q);
    EXPECT_EQ(e.node, node);
    EXPECT_DOUBLE_EQ(e.time, node == 6u ? 9.0 : 5.0);
  }
  EXPECT_TRUE(q.empty());
  expect_accounted(q);
}

TEST(EventQueue, FarFutureOutliersDoNotDisturbNearOrder) {
  // The simulators' skew: a dense near cluster plus wake-ups orders of
  // magnitude out, interleaved with pops.
  EventQueue q;
  for (std::uint32_t i = 0; i < 64; ++i) {
    q.push(1.0 + 0.001 * i, EventKind::kTransition, i);
    q.push(1e6 + 17.0 * i, EventKind::kTransition, 1000 + i);
  }
  double last = 0.0;
  for (int i = 0; i < 64; ++i) {
    const Event e = pop_next(q);
    EXPECT_TRUE(e.node < 64u || e.node == 9999u);  // never a far outlier
    EXPECT_GE(e.time, last);
    last = e.time;
    q.push(last + 0.0005, EventKind::kPacketEnd, 9999);  // keep feeding near
  }
  std::size_t remaining = q.size();
  EXPECT_EQ(remaining, 128u);  // 64 far + 64 near packet-ends
  while (!q.empty()) {
    const Event e = pop_next(q);
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

// ------------------------------------------------------ differential tests --

/// The contract, implemented the obvious way: live events in a map ordered
/// by (time, seq), and cancellation as an eager erase. Each op runs against
/// the real queue and this model; every pop must return the same event.
class DifferentialHarness {
 public:
  void push(double time, EventKind kind, std::uint32_t node) {
    queue_.push(time, kind, node);
    model_.emplace(std::make_pair(time, next_seq_),
                   Event{time, next_seq_, kind, false, node});
    ++next_seq_;
    check();
  }
  void schedule(double time, EventKind kind, std::uint32_t node) {
    queue_.schedule(time, kind, node);
    cancel_in_model(node, kind);
    model_.emplace(std::make_pair(time, next_seq_),
                   Event{time, next_seq_, kind, true, node});
    scheduled_[{node, kind}] = {time, next_seq_};
    ++next_seq_;
    check();
  }
  void cancel(std::uint32_t node, EventKind kind) {
    queue_.cancel(node, kind);
    cancel_in_model(node, kind);
    check();
  }

  /// Pops both (expecting both non-empty) and checks the events match;
  /// returns the popped time.
  double pop() { return pop_event().time; }

  /// pop(), returning the whole event.
  Event pop_event() {
    Event e;
    if (!pop_until(kNoLimit, e)) ADD_FAILURE() << "pop from an empty queue";
    return e;
  }

  /// The bounded pop on both sides: the queue must hand out the model's
  /// earliest event exactly when its time is at most `limit`, and otherwise
  /// leave size(), top() and every counter unchanged. Returns whether both
  /// popped.
  bool pop_until(double limit, Event& out) {
    const sim::QueueStats before = queue_.stats();
    const bool due = !model_.empty() && model_.begin()->first.first <= limit;
    const bool popped = queue_.pop_until(limit, out);
    EXPECT_EQ(popped, due) << "limit " << limit << ", earliest "
                           << earliest();
    if (popped && due) {
      const Event b = model_.begin()->second;
      model_.erase(model_.begin());
      if (b.cancellable) scheduled_.erase({b.node, b.kind});
      expect_same(out, b);
      ++pops_;
    } else if (!popped) {
      expect_same_stats(queue_.stats(), before);
    }
    check();
    return popped && due;
  }

  /// A bounded pop whose limit is the earliest time's predecessor, that
  /// time itself, or a packet-time past it, for `r` in [0, 1/3), [1/3, 2/3)
  /// and [2/3, 1).
  bool pop_near(double r, Event& out) {
    const double t = earliest();
    const double limit = r < 1.0 / 3.0   ? std::nextafter(t, -kNoLimit)
                         : r < 2.0 / 3.0 ? t
                                         : t + 1.0;
    return pop_until(limit, out);
  }

  /// The model's earliest time; infinity when it is empty.
  double earliest() const {
    return model_.empty() ? kNoLimit : model_.begin()->first.first;
  }

  bool empty() {
    const bool e = queue_.empty();
    EXPECT_EQ(e, model_.empty());
    return e;
  }

  /// Pops until empty, stopping at the first failure.
  void drain_and_compare() {
    while (!::testing::Test::HasFailure() && !empty()) pop();
    if (::testing::Test::HasFailure()) return;
    EXPECT_EQ(queue_.stats().pushes, next_seq_);
    EXPECT_EQ(queue_.stats().pops, pops_);
    // Drained: every entered event was either handed out or cancelled.
    EXPECT_EQ(queue_.stats().pushes,
              queue_.stats().pops + queue_.stats().cancels);
  }

 private:
  void cancel_in_model(std::uint32_t node, EventKind kind) {
    const auto it = scheduled_.find({node, kind});
    if (it == scheduled_.end()) return;
    model_.erase(it->second);
    scheduled_.erase(it);
    ++cancels_;
  }

  static void expect_same(const Event& a, const Event& b) {
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.cancellable, b.cancellable);
  }

  /// After every operation: the queue stores exactly the model's live
  /// events, its top is the model's earliest, and its counters match the
  /// model's.
  void check() {
    peak_ = std::max(peak_, model_.size());
    EXPECT_EQ(queue_.size(), model_.size());
    if (!model_.empty()) expect_same(queue_.top(), model_.begin()->second);
    EXPECT_EQ(queue_.stats().cancels, cancels_);
    EXPECT_EQ(queue_.stats().peak_live, peak_);
    expect_accounted(queue_);
  }

  EventQueue queue_;
  std::map<std::pair<double, std::uint64_t>, Event> model_;
  std::map<std::pair<std::uint32_t, EventKind>,
           std::pair<double, std::uint64_t>>
      scheduled_;  // live cancellable event per (node, kind) slot
  std::uint64_t next_seq_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t cancels_ = 0;  // live model events erased by (re)scheduling
                               // or cancelling
  std::size_t peak_ = 0;
};

EventKind random_kind(util::Rng& rng) {
  return static_cast<EventKind>(
      static_cast<int>(rng.uniform() * static_cast<double>(
                                           sim::kEventKindCount)));
}

TEST(EventQueueDifferential, SimLikeMonotoneWorkload) {
  // The simulator's pattern: time only moves forward, pushes land at
  // now + gap with wildly mixed scales (packet ends at +1, sleepers far
  // out), schedules replace pending transitions, occasional bare cancels.
  // Pops are bounded, with limits below, at and above the earliest time.
  for (const std::uint64_t seed : {1u, 7u, 23u, 1234u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint32_t n = 40;
    double now = 0.0;
    for (int op = 0; op < 20000; ++op) {
      if (::testing::Test::HasFailure()) return;
      const double r = rng.uniform();
      const auto node = static_cast<std::uint32_t>(rng.uniform() * n);
      // Mixed-scale gaps: 1e-3 .. 1e5.
      const double gap = rng.exponential(1.0) *
                         (rng.uniform() < 0.1 ? 1e5 : 1.0) *
                         (rng.uniform() < 0.3 ? 1e-3 : 1.0);
      if (r < 0.35) {
        q.schedule(now + gap, random_kind(rng), node);
      } else if (r < 0.45) {
        q.push(now + gap, random_kind(rng), node);
      } else if (r < 0.55) {
        q.cancel(node, random_kind(rng));
      } else if (!q.empty()) {
        Event e;
        if (q.pop_near(rng.uniform(), e)) now = e.time;
      }
    }
    q.drain_and_compare();
  }
}

TEST(EventQueueDifferential, AdversarialOutOfOrderPushes) {
  // Not a pattern the simulators produce: pushes earlier than the last
  // popped time, dense ties, and cancel storms. Pops are bounded, with
  // limits below, at and above the earliest time.
  for (const std::uint64_t seed : {3u, 99u, 4321u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint32_t n = 12;
    for (int op = 0; op < 8000; ++op) {
      if (::testing::Test::HasFailure()) return;
      const double r = rng.uniform();
      const auto node = static_cast<std::uint32_t>(rng.uniform() * n);
      // Absolute times in [0, 100), ignoring pop progress; coarse grid so
      // exact ties are frequent.
      const double t =
          std::floor(rng.uniform() * 1000.0) / 10.0;
      if (r < 0.40) {
        q.schedule(t, random_kind(rng), node);
      } else if (r < 0.55) {
        q.push(t, random_kind(rng), node);
      } else if (r < 0.65) {
        q.cancel(node, random_kind(rng));
      } else if (!q.empty()) {
        Event e;
        q.pop_near(rng.uniform(), e);
      }
    }
    q.drain_and_compare();
  }
}

TEST(EventQueueDifferential, BurstsOfSimultaneousSchedules) {
  DifferentialHarness q;
  for (int round = 0; round < 50; ++round) {
    if (::testing::Test::HasFailure()) return;
    const double t = static_cast<double>(round);
    for (std::uint32_t i = 0; i < 64; ++i)
      q.schedule(t + 0.5, EventKind::kTransition, i);
    for (std::uint32_t i = 0; i < 64; i += 2)
      q.cancel(i, EventKind::kTransition);  // half are cancelled
    for (int k = 0; k < 40 && !q.empty(); ++k) q.pop();
  }
  q.drain_and_compare();
}

TEST(EventQueueDifferential, SimulatorLanePattern) {
  // The testbed's durable traffic: per-node interval ends at k·τ, N of
  // them at each boundary (EconCast has one boundary event for all nodes),
  // packet ends at now + 1 (bursts continue packet by packet, and several
  // transmitters can end at once), with transitions scheduled, replaced,
  // cancelled and popped in between. Node 0's interval clock drifts (the
  // testbed's per-node periods), and now and then a packet end lands
  // earlier than its lane's tail: both take the heap path.
  const double tau = 50.0;
  for (const std::uint64_t seed : {2u, 17u, 808u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint32_t n = 30;
    // Wrap the packet-end lane, then overfill it: 5 in, 3 out (head 3),
    // 10 more in, so its first 8-entry ring grows while wrapped.
    for (std::uint32_t i = 0; i < 5; ++i)
      q.push(1.0 + i, EventKind::kPacketEnd, i);
    for (int k = 0; k < 3; ++k) q.pop();
    for (std::uint32_t i = 0; i < 10; ++i)
      q.push(6.0 + i, EventKind::kPacketEnd, 5 + i);
    double now = 3.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      q.schedule(now + rng.exponential(1.0), EventKind::kTransition, i);
      q.push(tau, EventKind::kIntervalEnd, i);
    }
    for (int op = 0; op < 20000; ++op) {
      // After a mismatch the replies no longer follow the simulator's
      // pattern; stop at the first one.
      if (::testing::Test::HasFailure()) return;
      const double r = rng.uniform();
      const auto node = static_cast<std::uint32_t>(rng.uniform() * n);
      if (r < 0.30) {
        const double scale = rng.uniform() < 0.1 ? 1e3 : 1.0;
        q.schedule(now + scale * rng.exponential(1.0), EventKind::kTransition,
                   node);
      } else if (r < 0.40) {
        q.cancel(node, EventKind::kTransition);
      } else if (r < 0.44) {
        // Transmitters starting together end together.
        const auto burst = 1 + static_cast<std::uint32_t>(rng.uniform() * 12);
        for (std::uint32_t k = 0; k < burst; ++k)
          q.push(now + 1.0, EventKind::kPacketEnd, (node + k) % n);
      } else if (r < 0.46) {
        q.push(now + 0.5 * rng.uniform(), EventKind::kPacketEnd, node);
      } else if (!q.empty()) {
        const Event e = q.pop_event();
        now = e.time;
        if (e.kind == EventKind::kIntervalEnd)
          q.push(now + (e.node == 0 ? 0.97 * tau : tau),
                 EventKind::kIntervalEnd, e.node);
        if (e.kind == EventKind::kPacketEnd && rng.uniform() < 0.7)
          q.push(now + 1.0, EventKind::kPacketEnd, e.node);
      }
    }
    q.drain_and_compare();
  }
}

TEST(EventQueueDifferential, FourAryLevelBoundaries) {
  // Complete 4-ary heaps of one to five levels hold 1, 5, 21, 85 and 341
  // events. Each size, and one past it (a lone entry on a new level), is
  // built from scheduled events; then, each on a fresh copy, every heap
  // position is cancelled, rescheduled earlier (to the root), later (past
  // every leaf) and to a random time, and the rest is drained. A child's
  // time is its parent's plus a gap, so node i enters at heap index i and
  // stays there; the gaps span four orders of magnitude, so the last entry,
  // which fills a cancelled position, sifts up under some positions and
  // down under others.
  constexpr std::size_t kArity = 4;
  const auto parent = [](std::size_t i) { return (i - 1) / kArity; };
  util::Rng rng(4);
  std::size_t sift_ups = 0;
  for (const std::size_t full : {1u, 5u, 21u, 85u, 341u}) {
    for (const std::size_t n : {full, full + 1}) {
      std::vector<double> times(n, 1.0);
      for (std::size_t i = 1; i < n; ++i)
        times[i] = times[parent(i)] + rng.exponential(1.0) *
                                          (rng.uniform() < 0.5 ? 0.01 : 100.0);
      const double latest = *std::max_element(times.begin(), times.end());
      for (std::size_t p = 0; p < n; ++p) {
        if (p > 0 && p + 1 < n && times[n - 1] < times[parent(p)]) ++sift_ups;
        const auto node = static_cast<std::uint32_t>(p);
        for (int op = 0; op < 4; ++op) {
          DifferentialHarness q;
          for (std::size_t i = 0; i < n; ++i)
            q.schedule(times[i], EventKind::kTransition,
                       static_cast<std::uint32_t>(i));
          if (op == 0) {
            q.cancel(node, EventKind::kTransition);
          } else {
            const double to = op == 1   ? times[0] - 1.0
                              : op == 2 ? latest + 1.0
                                        : times[0] + rng.uniform() *
                                                         (latest - times[0]);
            q.schedule(to, EventKind::kTransition, node);
          }
          q.drain_and_compare();
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(sift_ups, 0u);
}

// ------------------------------------------------ end-to-end accounting --

TEST(EventQueueInSimulation, CountersReconcile) {
  const auto nodes = model::homogeneous(9, 10.0, 500.0, 500.0);
  proto::SimConfig cfg;
  cfg.sigma = 0.4;
  cfg.duration = 3e4;
  cfg.warmup = 1e4;
  cfg.seed = 99;
  cfg.energy_guard = true;  // exercises the kEnergyDepleted cancellation path
  cfg.initial_energy = 1e4;
  const proto::SimResult r =
      proto::Simulation(nodes, model::Topology::grid(3, 3), cfg).run();
  // One pop handles a whole boundary, which events_processed counts once
  // per node; every other handled event is one pop. Every push was either
  // handled or cancelled (events past the horizon stay in the queue).
  const auto boundaries =
      static_cast<std::uint64_t>(cfg.duration / cfg.multiplier.tau);
  EXPECT_EQ(r.events_processed, r.queue_stats.pops + 8 * boundaries);
  EXPECT_GE(r.queue_stats.pushes,
            r.queue_stats.pops + r.queue_stats.cancels);
  EXPECT_GT(r.queue_stats.cancels, 0u);
}

}  // namespace
