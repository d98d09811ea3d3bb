// Tests for the simulation hot path: the scenario arena and its allocator,
// the incremental listener counts (randomized differential test against an
// O(degree) scan written here), the memoized rate rows (bit-identical to the
// per-call rate expressions), and the estimator validation sweep.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "econcast/estimator.h"
#include "econcast/rates.h"
#include "model/network.h"
#include "sim/arena.h"
#include "sim/channel.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::sim;

// ----------------------------------------------------------------- arena --

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  const void* a = arena.allocate(3, 1);
  const void* b = arena.allocate(8, 8);
  const void* c = arena.allocate(100, 64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

TEST(Arena, GrowsAcrossChunksAndCountsStats) {
  Arena arena;
  // Larger than the first chunk: forces at least one growth.
  for (int i = 0; i < 8; ++i) (void)arena.allocate(1 << 15, 8);
  const Arena::Stats stats = arena.stats();
  EXPECT_GE(stats.bytes_allocated, 8u * (1u << 15));
  EXPECT_GE(stats.bytes_reserved, stats.bytes_allocated);
  EXPECT_GE(stats.chunks, 2u);
}

TEST(Arena, VectorsUseArenaMemoryAndHeapFallback) {
  Arena arena;
  ArenaVector<int> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], 999);
  EXPECT_GT(arena.stats().bytes_allocated, 0u);

  // Default-constructed allocator: plain heap, usable without any arena.
  ArenaVector<int> heap;
  for (int i = 0; i < 1000; ++i) heap.push_back(i);
  EXPECT_EQ(heap, v);

  // Allocators compare by arena identity (is_always_equal is false).
  EXPECT_FALSE(ArenaAllocator<int>(&arena) == ArenaAllocator<int>());
  EXPECT_TRUE(ArenaAllocator<int>(&arena) == ArenaAllocator<int>(&arena));
}

// ----------------------------------------- differential channel coverage --

/// The oracle for Channel::listening_neighbors: an O(degree) scan of the
/// neighbors' listen bits.
int scan_listening_neighbors(const model::Topology& topo, const Channel& ch,
                             NodeId node) {
  int count = 0;
  for (const std::size_t j : topo.neighbors(node))
    count += ch.is_listening(static_cast<NodeId>(j)) ? 1 : 0;
  return count;
}

// Drives a random listen/burst/packet schedule through a channel and checks
// the incremental listener counts against the scan after every mutation.
TEST(ChannelDifferential, RandomScheduleMatchesScan) {
  util::Rng topo_rng(7);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(round) * 5;
    const auto topo = model::Topology::random_gnp(n, 0.3, topo_rng);

    Arena arena;
    Channel ch(topo, &arena);
    util::Rng rng(1000 + static_cast<std::uint64_t>(round));
    NodeId tx_active = kNoNode;
    bool packet_open = false;

    auto check_all = [&] {
      for (NodeId i = 0; i < n; ++i)
        ASSERT_EQ(ch.listening_neighbors(i),
                  scan_listening_neighbors(topo, ch, i))
            << "node " << i;
    };

    for (int step = 0; step < 2000; ++step) {
      const double u = rng.uniform();
      if (u < 0.55) {
        // Toggle a random node's listen state, respecting the channel's
        // preconditions (idle medium, not the transmitter).
        const auto i = static_cast<NodeId>(rng.uniform() *
                                           static_cast<double>(n));
        if (i == tx_active || ch.busy_at(i) || ch.is_transmitting(i))
          continue;
        ch.set_listening(i, !ch.is_listening(i));
      } else if (u < 0.75 && tx_active == kNoNode) {
        const auto i = static_cast<NodeId>(rng.uniform() *
                                           static_cast<double>(n));
        if (ch.busy_at(i) || ch.is_listening(i)) continue;
        ch.begin_burst(i);
        tx_active = i;
      } else if (u < 0.85 && tx_active != kNoNode && !packet_open) {
        ch.begin_packet(tx_active);
        packet_open = true;
      } else if (u < 0.95 && packet_open) {
        const Channel::PacketOutcome& outcome = ch.end_packet(tx_active);
        for (const NodeId j : outcome.clean_receivers)
          ASSERT_TRUE(ch.is_listening(j)) << "receiver " << j;
        packet_open = false;
      } else if (tx_active != kNoNode && !packet_open) {
        ch.end_burst(tx_active);
        tx_active = kNoNode;
      }
      check_all();
      if (rng.uniform() < 0.1) (void)ch.drain_toggled();
    }
  }
}

TEST(ChannelDifferential, ScratchBuffersAreReusedNotReallocated) {
  const auto topo = model::Topology::clique(8);
  Arena arena;
  Channel ch(topo, &arena);
  for (NodeId i = 1; i < 8; ++i) ch.set_listening(i, true);
  (void)ch.drain_toggled();
  const Arena::Stats before = arena.stats();
  // Steady state: bursts, packets and drains must not grow the arena.
  for (int k = 0; k < 50; ++k) {
    ch.begin_burst(0);
    ch.begin_packet(0);
    const Channel::PacketOutcome& outcome = ch.end_packet(0);
    EXPECT_EQ(outcome.clean_receivers.size(), 7u);
    ch.end_burst(0);
    for (NodeId i = 1; i < 8; ++i) ch.set_listening(i, true);
    (void)ch.drain_toggled();
  }
  EXPECT_EQ(arena.stats().bytes_allocated, before.bytes_allocated);
}

// --------------------------------------------------------- rate-row memo --

// The simulator serves λ_lx from rows filled by fill_listen_to_transmit_row
// on every η update; results stay bit-identical only if every row entry
// equals the per-call expression exactly, for every count the row covers.
TEST(RateRowMemo, FillRowMatchesPerCallBitForBit) {
  const std::size_t width = 101;  // counts 0..100: a clique of N = 101
  for (const auto variant :
       {proto::Variant::kCapture, proto::Variant::kNonCapture}) {
    for (const auto mode : {model::Mode::kGroupput, model::Mode::kAnyput}) {
      for (const double sigma : {0.1, 0.25, 0.5, 0.75}) {
        const proto::RateController rates(500.0, 750.0, sigma, variant, mode);
        for (const double eta :
             {0.0, 1e-6, 0.003, 0.0125, 0.4, 2.5, -0.002, 37.0}) {
          std::vector<double> row(width,
                                  std::numeric_limits<double>::quiet_NaN());
          rates.fill_listen_to_transmit_row(eta, row.data(), width);
          for (std::size_t c = 0; c < width; ++c) {
            const double expected = rates.listen_to_transmit(
                eta, static_cast<double>(c), /*channel_idle=*/true);
            // EXPECT_EQ on the bit patterns: -0.0 vs 0.0 or a different
            // NaN payload would be a result-byte difference too.
            EXPECT_EQ(std::bit_cast<std::uint64_t>(row[c]),
                      std::bit_cast<std::uint64_t>(expected))
                << "variant " << static_cast<int>(variant) << " mode "
                << static_cast<int>(mode) << " sigma " << sigma << " eta "
                << eta << " c " << c << ": " << row[c] << " vs " << expected;
          }
        }
      }
    }
  }
}

// -------------------------------------------------------------- estimator --

TEST(Estimator, ValidatesDetectProbForEveryKind) {
  for (const auto kind :
       {proto::EstimatorKind::kPerfect, proto::EstimatorKind::kBinomialThinning,
        proto::EstimatorKind::kExistenceOnly}) {
    proto::EstimatorConfig cfg;
    cfg.kind = kind;
    cfg.detect_prob = -0.1;
    EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
    cfg.detect_prob = 1.1;
    EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
    cfg.detect_prob = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
    // The boundary values are legal for every kind.
    cfg.detect_prob = 0.0;
    EXPECT_NO_THROW(proto::ListenerEstimator{cfg});
    cfg.detect_prob = 1.0;
    EXPECT_NO_THROW(proto::ListenerEstimator{cfg});
  }
}

TEST(Estimator, BoundaryDetectProbsAreDeterministic) {
  util::Rng rng(3);
  proto::EstimatorConfig cfg;
  cfg.kind = proto::EstimatorKind::kBinomialThinning;
  cfg.detect_prob = 0.0;
  const proto::ListenerEstimator none(cfg);
  cfg.detect_prob = 1.0;
  const proto::ListenerEstimator all(cfg);
  for (int c = 0; c <= 8; ++c) {
    EXPECT_EQ(none.estimate(c, rng), 0);
    EXPECT_EQ(all.estimate(c, rng), c);
  }
}

TEST(Estimator, ZeroListenersEstimateZeroForEveryKind) {
  util::Rng rng(4);
  for (const auto kind :
       {proto::EstimatorKind::kPerfect, proto::EstimatorKind::kBinomialThinning,
        proto::EstimatorKind::kExistenceOnly}) {
    proto::EstimatorConfig cfg;
    cfg.kind = kind;
    cfg.detect_prob = 0.5;
    const proto::ListenerEstimator est(cfg);
    EXPECT_EQ(est.estimate(0, rng), 0);
  }
}

TEST(Estimator, RejectsCorruptedKind) {
  proto::EstimatorConfig cfg;
  cfg.kind = static_cast<proto::EstimatorKind>(250);
  EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
}

}  // namespace
