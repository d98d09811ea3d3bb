// The event queue: ordering, cancellation semantics, stale-drop
// accounting, compaction, the shared reserve_for_nodes capacity policy, and
// a randomized differential test against a trivially correct eager-deletion
// model of the same contract (std::map keyed on (time, seq)).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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

// ------------------------------------------------------------------ basics --

TEST(EventQueue, OrdersByTimeThenSeq) {
  EventQueue q;
  q.push(3.0, EventKind::kTransition, 0);
  q.push(1.0, EventKind::kPacketEnd, 1);
  q.push(2.0, EventKind::kIntervalEnd, 2);
  q.push(1.0, EventKind::kTransition, 3);  // ties pop in push order
  EXPECT_EQ(q.pop().node, 1u);
  EXPECT_EQ(q.pop().node, 3u);
  EXPECT_EQ(q.pop().node, 2u);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleDropAccounting) {
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 0);
  q.schedule(2.0, EventKind::kTransition, 0);  // replaces the first
  q.schedule(3.0, EventKind::kEnergyDepleted, 0);
  q.cancel(0, EventKind::kEnergyDepleted);
  q.push(4.0, EventKind::kPacketEnd, 0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 4.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().pushes, 4u);
  EXPECT_EQ(q.stats().pops, 2u);
  EXPECT_EQ(q.stats().stale_drops, 2u);
  EXPECT_EQ(q.stats().peak_live, 4u);
}

TEST(EventQueue, EmptyPopAndTopThrow) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.top(), std::logic_error);
  // A fully cancelled queue is empty too, and pop still throws after the
  // stale entries are pruned.
  q.schedule(1.0, EventKind::kTransition, 0);
  q.cancel(0, EventKind::kTransition);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_EQ(q.stats().stale_drops, 1u);
}

TEST(EventQueue, TopPrunesButDoesNotConsume) {
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 0);
  q.schedule(2.0, EventKind::kTransition, 0);
  EXPECT_DOUBLE_EQ(q.top().time, 2.0);
  EXPECT_EQ(q.stats().stale_drops, 1u);  // pruned while peeking
  EXPECT_DOUBLE_EQ(q.top().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_EQ(q.stats().pops, 1u);
}

TEST(EventQueue, ClearEmptiesAndQueueRemainsUsable) {
  EventQueue q;
  for (int i = 0; i < 100; ++i)
    q.push(static_cast<double>(100 - i), EventKind::kCustom, 0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push(7.0, EventKind::kCustom, 3);
  EXPECT_DOUBLE_EQ(q.pop().time, 7.0);
}

TEST(EventQueue, ReserveForNodesAppliesSharedPolicy) {
  EventQueue q;
  q.reserve_for_nodes(100);
  EXPECT_GE(q.capacity(), EventQueue::capacity_for_nodes(100));
  EXPECT_EQ(EventQueue::capacity_for_nodes(100), 408u);
}

TEST(EventQueue, CompactionBoundsStaleAccumulation) {
  // A sleeping node's far-future wake-up superseded over and over: pure
  // lazy deletion would store every stale copy until the end of time (the
  // fig. 6 workload peaks at ~500x the live population). Compaction must
  // keep the stored count within a small multiple of the live count while
  // preserving the live events and the conservation identity.
  EventQueue q;
  const std::uint32_t n = 8;
  q.reserve_for_nodes(n);
  for (int round = 0; round < 4000; ++round)
    for (std::uint32_t node = 0; node < n; ++node)
      q.schedule(1e9 + static_cast<double>(round * n + node),
                 EventKind::kTransition, node);
  q.push(0.5, EventKind::kPacketEnd, 0);
  // 8 live wake-ups + 1 durable event; anything near 32001 means stale
  // copies survived.
  EXPECT_LE(q.size(), 2u * (n + 1) + 64u);
  EXPECT_DOUBLE_EQ(q.pop().time, 0.5);
  for (std::uint32_t node = 0; node < n; ++node) {
    const Event e = q.pop();
    EXPECT_EQ(e.node, node);  // last-scheduled round, ascending times
    EXPECT_DOUBLE_EQ(e.time, 1e9 + static_cast<double>(3999 * n + node));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().pushes,
            q.stats().pops + q.stats().stale_drops);
}

TEST(EventQueue, ManySimultaneousEventsPopInPushOrder) {
  // Every event at the same time: seq alone decides.
  EventQueue q;
  for (std::uint32_t i = 0; i < 500; ++i)
    q.push(42.0, EventKind::kTransition, i);
  for (std::uint32_t i = 0; i < 500; ++i) EXPECT_EQ(q.pop().node, i);
  EXPECT_TRUE(q.empty());
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
    const Event e = q.pop();
    EXPECT_TRUE(e.node < 64u || e.node == 9999u);  // never a far outlier
    EXPECT_GE(e.time, last);
    last = e.time;
    q.push(last + 0.0005, EventKind::kPacketEnd, 9999);  // keep feeding near
  }
  std::size_t remaining = q.size();
  EXPECT_EQ(remaining, 128u);  // 64 far + 64 near packet-ends
  while (!q.empty()) {
    const Event e = q.pop();
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
                   Event{time, next_seq_, kind, false, node, 0});
    ++next_seq_;
  }
  void schedule(double time, EventKind kind, std::uint32_t node) {
    queue_.schedule(time, kind, node);
    cancel_in_model(node, kind);
    model_.emplace(std::make_pair(time, next_seq_),
                   Event{time, next_seq_, kind, true, node, 0});
    scheduled_[{node, kind}] = {time, next_seq_};
    ++next_seq_;
  }
  void cancel(std::uint32_t node, EventKind kind) {
    queue_.cancel(node, kind);
    cancel_in_model(node, kind);
  }

  /// Pops both (expecting both non-empty) and checks the events match;
  /// returns the popped time.
  double pop() {
    EXPECT_FALSE(empty());
    const Event a = queue_.pop();
    const Event b = model_.begin()->second;
    model_.erase(model_.begin());
    if (b.cancellable) scheduled_.erase({b.node, b.kind});
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.cancellable, b.cancellable);
    ++pops_;
    return a.time;
  }

  bool empty() {
    const bool e = queue_.empty();
    EXPECT_EQ(e, model_.empty());
    return e;
  }

  void drain_and_compare() {
    while (!empty()) pop();
    EXPECT_EQ(queue_.stats().pushes, next_seq_);
    EXPECT_EQ(queue_.stats().pops, pops_);
    // Drained: every entered event was either handed out or pruned.
    EXPECT_EQ(queue_.stats().pushes,
              queue_.stats().pops + queue_.stats().stale_drops);
  }

 private:
  void cancel_in_model(std::uint32_t node, EventKind kind) {
    const auto it = scheduled_.find({node, kind});
    if (it == scheduled_.end()) return;
    model_.erase(it->second);
    scheduled_.erase(it);
  }

  EventQueue queue_;
  std::map<std::pair<double, std::uint64_t>, Event> model_;
  std::map<std::pair<std::uint32_t, EventKind>,
           std::pair<double, std::uint64_t>>
      scheduled_;  // live cancellable event per (node, kind) slot
  std::uint64_t next_seq_ = 0;
  std::uint64_t pops_ = 0;
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
  for (const std::uint64_t seed : {1u, 7u, 23u, 1234u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint32_t n = 40;
    double now = 0.0;
    for (int op = 0; op < 20000; ++op) {
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
        now = q.pop();
      }
    }
    q.drain_and_compare();
  }
}

TEST(EventQueueDifferential, AdversarialOutOfOrderPushes) {
  // Not a pattern the simulators produce: pushes earlier than the last
  // popped time, dense ties, and cancel storms.
  for (const std::uint64_t seed : {3u, 99u, 4321u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint32_t n = 12;
    for (int op = 0; op < 8000; ++op) {
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
        q.pop();
      }
    }
    q.drain_and_compare();
  }
}

TEST(EventQueueDifferential, BurstsOfSimultaneousSchedules) {
  DifferentialHarness q;
  for (int round = 0; round < 50; ++round) {
    const double t = static_cast<double>(round);
    for (std::uint32_t i = 0; i < 64; ++i)
      q.schedule(t + 0.5, EventKind::kTransition, i);
    for (std::uint32_t i = 0; i < 64; i += 2)
      q.cancel(i, EventKind::kTransition);  // half become stale
    for (int k = 0; k < 40 && !q.empty(); ++k) q.pop();
  }
  q.drain_and_compare();
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
  // Every live event the main loop handled was popped, and every push was
  // either handled or pruned (events past the horizon stay in the queue).
  EXPECT_EQ(r.queue_stats.pops, r.events_processed);
  EXPECT_GE(r.queue_stats.pushes,
            r.queue_stats.pops + r.queue_stats.stale_drops);
  EXPECT_GT(r.queue_stats.stale_drops, 0u);
}

}  // namespace
