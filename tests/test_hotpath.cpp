// Tests for the simulation hot path: the incremental listener counts and
// the audience-walk packet outcomes (randomized differential test against
// all-neighbour scans written here), the channel's reused scratch buffers,
// the memoized rate rows (bit-identical to the per-call rate expressions,
// full-width and narrowed), and the estimator validation sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "econcast/estimator.h"
#include "econcast/rates.h"
#include "model/network.h"
#include "sim/channel.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::sim;

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

/// The oracle for the channel's packet outcomes: the locking and corruption
/// rules with every packet scanning the transmitter's whole neighbour row,
/// not the burst's audience.
class ScanChannel {
 public:
  explicit ScanChannel(const model::Topology& topo)
      : topo_(topo),
        listening_(topo.size(), false),
        busy_(topo.size(), 0),
        lock_(topo.size(), kNoNode),
        corrupt_(topo.size(), false) {}

  void set_listening(NodeId i, bool on) {
    listening_[i] = on;
    if (!on) {
      lock_[i] = kNoNode;
      corrupt_[i] = false;
    }
  }
  void begin_burst(NodeId tx) {
    listening_[tx] = false;
    for (const std::size_t j : topo_.neighbors(tx))
      if (++busy_[j] >= 2 && lock_[j] != kNoNode) corrupt_[j] = true;
  }
  void begin_packet(NodeId tx) {
    for (const std::size_t j : topo_.neighbors(tx)) {
      if (listening_[j] && busy_[j] == 1 && lock_[j] == kNoNode) {
        lock_[j] = tx;
        corrupt_[j] = false;
      }
    }
  }
  Channel::PacketOutcome end_packet(NodeId tx) {
    Channel::PacketOutcome out;
    for (const std::size_t j : topo_.neighbors(tx)) {
      if (lock_[j] != tx) continue;
      if (corrupt_[j]) {
        ++out.corrupted;
      } else {
        out.clean_receivers.push_back(static_cast<NodeId>(j));
      }
      lock_[j] = kNoNode;
      corrupt_[j] = false;
    }
    return out;
  }
  void end_burst(NodeId tx) {
    for (const std::size_t j : topo_.neighbors(tx)) --busy_[j];
  }

 private:
  const model::Topology& topo_;
  std::vector<bool> listening_;
  std::vector<int> busy_;
  std::vector<NodeId> lock_;
  std::vector<bool> corrupt_;
};

// Drives a random schedule of listen changes and overlapping multi-packet
// bursts through a channel: listeners join only while the medium is idle
// and leave at any time, mid-packet included. After every mutation the
// incremental listener counts must match the scan, and every packet
// outcome (the clean receivers, in order, and the corrupted count) must
// match the all-neighbour oracle.
TEST(ChannelDifferential, RandomScheduleMatchesScan) {
  util::Rng topo_rng(7);
  std::uint64_t packets = 0, received = 0, corrupted = 0;
  std::uint64_t overlaps = 0, left_busy = 0, later_packets = 0;
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(round) * 5;
    const auto topo = model::Topology::random_gnp(n, 0.3, topo_rng);

    Channel ch(topo);
    ScanChannel oracle(topo);
    util::Rng rng(1000 + static_cast<std::uint64_t>(round));
    std::vector<bool> packet_open(n, false);
    std::vector<int> burst_packets(n, 0);
    const auto pick = [&] {
      return static_cast<NodeId>(rng.uniform() * static_cast<double>(n));
    };

    auto check_all = [&] {
      for (NodeId i = 0; i < n; ++i)
        ASSERT_EQ(ch.listening_neighbors(i),
                  scan_listening_neighbors(topo, ch, i))
            << "node " << i;
    };

    std::vector<NodeId> active;  // transmitters, in burst-start order
    for (int step = 0; step < 4000; ++step) {
      const double u = rng.uniform();
      if (u < 0.35) {
        // Join only on an idle medium; leave at any time.
        const NodeId i = pick();
        if (ch.is_transmitting(i)) continue;
        if (ch.is_listening(i)) {
          if (ch.busy_at(i)) ++left_busy;
          ch.set_listening(i, false);
          oracle.set_listening(i, false);
        } else if (!ch.busy_at(i)) {
          ch.set_listening(i, true);
          oracle.set_listening(i, true);
        }
      } else if (u < 0.45) {
        // Up to three bursts at once; on G(n, 0.3) they often share
        // receivers (hidden terminals).
        const NodeId i = pick();
        if (active.size() >= 3 || ch.is_transmitting(i) || ch.busy_at(i))
          continue;
        if (!active.empty()) ++overlaps;
        ch.begin_burst(i);
        oracle.begin_burst(i);
        active.push_back(i);
        burst_packets[i] = 0;
      } else {
        if (active.empty()) continue;
        const std::size_t k = static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(active.size()));
        const NodeId i = active[k];
        if (packet_open[i]) {
          const Channel::PacketOutcome& outcome = ch.end_packet(i);
          const Channel::PacketOutcome expected = oracle.end_packet(i);
          ASSERT_EQ(outcome.clean_receivers, expected.clean_receivers)
              << "round " << round << " step " << step << " tx " << i;
          ASSERT_EQ(outcome.corrupted, expected.corrupted)
              << "round " << round << " step " << step << " tx " << i;
          for (const NodeId j : outcome.clean_receivers)
            ASSERT_TRUE(ch.is_listening(j)) << "receiver " << j;
          packet_open[i] = false;
          ++packets;
          received += outcome.clean_receivers.size();
          corrupted += outcome.corrupted;
        } else if (burst_packets[i] > 0 && rng.uniform() < 0.25) {
          ch.end_burst(i);
          oracle.end_burst(i);
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          if (burst_packets[i]++ > 0) ++later_packets;
          ch.begin_packet(i);
          oracle.begin_packet(i);
          packet_open[i] = true;
        }
      }
      check_all();
      if (rng.uniform() < 0.1) (void)ch.drain_toggled();
    }
  }
  // The schedule must reach the cases it is written for.
  EXPECT_GT(packets, 1000u);
  EXPECT_GT(received, 500u);
  EXPECT_GT(corrupted, 20u);
  EXPECT_GT(overlaps, 100u);
  EXPECT_GT(left_busy, 100u);
  EXPECT_GT(later_packets, 500u);
}

TEST(ChannelDifferential, ScratchBuffersAreReusedNotReallocated) {
  // The scratch is sized up front: the toggle drain alternates between two
  // buffers and the packet outcome refills one, so no steady-state round of
  // bursts, packets and drains moves either.
  const auto topo = model::Topology::clique(8);
  Channel ch(topo);
  ch.begin_burst(0);
  ch.begin_packet(0);
  const NodeId* receivers = ch.end_packet(0).clean_receivers.data();
  ch.end_burst(0);
  const NodeId* drained[2] = {ch.drain_toggled().data(),
                              ch.drain_toggled().data()};
  for (int k = 0; k < 50; ++k) {
    for (NodeId i = 1; i < 8; ++i) ch.set_listening(i, true);
    ch.begin_burst(0);
    ch.begin_packet(0);
    const Channel::PacketOutcome& outcome = ch.end_packet(0);
    EXPECT_EQ(outcome.clean_receivers.size(), 7u);
    EXPECT_EQ(outcome.clean_receivers.data(), receivers);
    ch.end_burst(0);
    const std::vector<NodeId>& toggled = ch.drain_toggled();
    EXPECT_EQ(toggled.size(), 7u);
    EXPECT_EQ(toggled.data(), drained[k % 2]);
  }
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

// The simulator sizes every row by listen_to_transmit_width and reads count
// c at column min(c, width - 1); that narrow row must serve every count the
// way the per-call expression does.
TEST(RateRowMemo, NarrowRowServesEveryCountBitForBit) {
  const std::size_t max_count = 100;  // a clique of N = 101
  for (const auto variant :
       {proto::Variant::kCapture, proto::Variant::kNonCapture}) {
    for (const auto mode : {model::Mode::kGroupput, model::Mode::kAnyput}) {
      const std::size_t expected_width =
          variant == proto::Variant::kCapture ? 1
          : mode == model::Mode::kAnyput      ? 2
                                              : max_count + 1;
      for (const double sigma : {0.1, 0.25, 0.5, 0.75}) {
        const proto::RateController rates(500.0, 750.0, sigma, variant, mode);
        const std::size_t width = rates.listen_to_transmit_width(max_count);
        ASSERT_EQ(width, expected_width)
            << "variant " << static_cast<int>(variant) << " mode "
            << static_cast<int>(mode);
        for (const double eta :
             {0.0, 1e-6, 0.003, 0.0125, 0.4, 2.5, -0.002, 37.0}) {
          std::vector<double> row(width,
                                  std::numeric_limits<double>::quiet_NaN());
          rates.fill_listen_to_transmit_row(eta, row.data(), width);
          for (std::size_t c = 0; c <= max_count; ++c) {
            const double expected = rates.listen_to_transmit(
                eta, static_cast<double>(c), /*channel_idle=*/true);
            const double served = row[std::min(c, width - 1)];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(served),
                      std::bit_cast<std::uint64_t>(expected))
                << "variant " << static_cast<int>(variant) << " mode "
                << static_cast<int>(mode) << " sigma " << sigma << " eta "
                << eta << " c " << c << ": " << served << " vs " << expected;
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
