// Shared-medium bookkeeping on an arbitrary topology: per-node carrier sense
// (A_i(t) of §V-E), reception locking, and the non-clique corruption rule of
// §VII-E (a reception overlapped by a second in-range transmission is voided).
//
// The channel tracks who transmits and who listens; the protocol layer asks
// for packet outcomes and drains busy-toggle notifications to re-sample
// exponential transitions.
//
// The channel keeps its own copy of the topology as one flat NodeId
// adjacency: node i's neighbours are row i, ascending, at
// adj_[row_start_[i], row_start_[i + 1]). It maintains a per-node count of
// listening neighbors, updated in O(degree) on each listener-set change, so
// `listening_neighbors()` answers in O(1).
//
// A packet visits only its burst's audience: the transmitter's neighbours
// that were listening when the burst began, recorded in row order by
// begin_burst. That is exact because a node that senses carrier cannot
// start listening (set_listening throws), so a neighbour outside the
// audience stays out of listen for the whole burst; a member that stops
// listening mid-burst is skipped by the same tests the full row would
// apply. In a clique most neighbours sleep, so begin_packet and end_packet
// walk a few nodes where the row has N - 1. A randomized differential test
// checks the counts and every packet outcome against all-neighbour scans.
//
// The channel allocates nothing after construction: the audiences share
// one buffer laid out like the adjacency, and the toggle drain and the
// packet outcome refill buffers sized up front for the node count and the
// max degree.
#ifndef ECONCAST_SIM_CHANNEL_H
#define ECONCAST_SIM_CHANNEL_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/network.h"
#include "sim/node_id.h"

namespace econcast::sim {

class Channel {
 public:
  explicit Channel(const model::Topology& topology);

  /// Node i's neighbours, ascending (the topology's order).
  std::span<const NodeId> neighbors(NodeId node) const noexcept {
    return {adj_.data() + row_start_[node],
            adj_.data() + row_start_[node + 1]};
  }

  // --- listen-state notifications (from the protocol layer) -------------
  /// Entering listen needs an idle medium (the protocol gates wake-ups on
  /// A_i(t)): set_listening(node, true) throws std::logic_error while the
  /// node senses carrier or transmits. Leaving listen is allowed at any
  /// time and drops any reception in progress.
  void set_listening(NodeId node, bool listening);
  bool is_listening(NodeId node) const noexcept {
    return listening_[node] != 0;
  }

  // --- transmissions -----------------------------------------------------
  /// Starts a burst: raises carrier for all neighbors and records the
  /// burst's audience, the neighbours listening now. The transmitter must
  /// currently sense an idle medium.
  void begin_burst(NodeId tx);

  /// Starts one packet inside an ongoing burst: locks every audience member
  /// that is still listening, hears only this transmitter, and is not
  /// already mid-packet.
  void begin_packet(NodeId tx);

  struct PacketOutcome {
    std::vector<NodeId> clean_receivers;  // got the whole packet, no overlap
    std::uint32_t corrupted = 0;          // receptions voided by overlap
  };

  /// Ends the current packet of `tx`, returning who received it cleanly,
  /// in row order. The returned outcome is a reusable buffer: it stays
  /// valid until the next end_packet call (copy it to keep it longer).
  const PacketOutcome& end_packet(NodeId tx);

  /// Ends the burst: drops carrier for all neighbors.
  void end_burst(NodeId tx);

  // --- queries -------------------------------------------------------------
  /// True when node i senses the medium busy (>= 1 transmitting neighbor),
  /// i.e. A_i(t) = 0.
  bool busy_at(NodeId node) const noexcept { return busy_count_[node] > 0; }
  bool is_transmitting(NodeId node) const noexcept {
    return transmitting_[node] != 0;
  }
  /// c(t) as seen by `node`: its listening neighbors (perfect estimate).
  int listening_neighbors(NodeId node) const {
    return static_cast<int>(listen_count_[node]);
  }
  int transmitting_count() const noexcept { return active_tx_; }

  /// Nodes whose carrier-sense state toggled since the last drain (each at
  /// most once). The protocol re-samples these nodes' transitions. The
  /// returned buffer is reused: it stays valid until the next drain.
  const std::vector<NodeId>& drain_toggled();

 private:
  /// The audience of tx's current burst (empty when tx is not transmitting).
  std::span<const NodeId> audience(NodeId tx) const noexcept {
    return {audience_.data() + row_start_[tx], audience_size_[tx]};
  }
  void mark_toggled(NodeId node);
  /// Flips the listen bit and maintains the incremental neighbor counts.
  /// Does NOT touch the reception lock — begin_burst's implicit listen-drop
  /// keeps the (necessarily empty) lock state untouched.
  void apply_listen_change(NodeId node, bool listening);

  std::vector<std::size_t> row_start_;  // n + 1 offsets into adj_
  std::vector<NodeId> adj_;             // every row, ascending, back to back
  std::vector<NodeId> audience_;        // per burst, at its row's offset
  std::vector<std::uint32_t> audience_size_;
  std::vector<std::uint8_t> listening_;
  std::vector<std::uint8_t> transmitting_;
  std::vector<std::uint32_t> busy_count_;    // transmitting neighbors
  std::vector<std::uint32_t> listen_count_;  // listening neighbors
  std::vector<NodeId> lock_tx_;  // which tx this listener decodes (kNoNode none)
  std::vector<std::uint8_t> corrupt_;  // current reception overlapped
  std::vector<std::uint8_t> toggled_flag_;
  std::vector<NodeId> toggled_;
  std::vector<NodeId> drained_;  // scratch handed out by drain_toggled()
  PacketOutcome outcome_;        // scratch handed out by end_packet()
  int active_tx_ = 0;
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_CHANNEL_H
