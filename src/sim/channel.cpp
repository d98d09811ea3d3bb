#include "sim/channel.h"

#include <algorithm>
#include <stdexcept>

namespace econcast::sim {

Channel::Channel(const model::Topology& topology)
    : row_start_(topology.size() + 1, 0),
      audience_size_(topology.size(), 0),
      listening_(topology.size(), 0),
      transmitting_(topology.size(), 0),
      busy_count_(topology.size(), 0),
      listen_count_(topology.size(), 0),
      lock_tx_(topology.size(), kNoNode),
      corrupt_(topology.size(), 0),
      toggled_flag_(topology.size(), 0) {
  const std::size_t n = topology.size();
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t degree = topology.neighbors(i).size();
    row_start_[i + 1] = row_start_[i] + degree;
    max_degree = std::max(max_degree, degree);
  }
  adj_.reserve(row_start_[n]);
  for (std::size_t i = 0; i < n; ++i)
    for (const std::size_t j : topology.neighbors(i))
      adj_.push_back(static_cast<NodeId>(j));
  audience_.assign(row_start_[n], kNoNode);
  // The toggle set and the packet outcome are bounded by the node count and
  // the max degree; sizing them up front keeps the hot loop allocation-free.
  toggled_.reserve(n);
  drained_.reserve(n);
  outcome_.clean_receivers.reserve(max_degree);
}

void Channel::mark_toggled(NodeId node) {
  if (!toggled_flag_[node]) {
    toggled_flag_[node] = 1;
    toggled_.push_back(node);
  }
}

void Channel::apply_listen_change(NodeId node, bool listening) {
  listening_[node] = listening ? 1 : 0;
  if (listening) {
    for (const NodeId j : neighbors(node)) ++listen_count_[j];
  } else {
    for (const NodeId j : neighbors(node)) --listen_count_[j];
  }
}

void Channel::set_listening(NodeId node, bool listening) {
  if (listening && transmitting_[node])
    throw std::logic_error("transmitting node cannot listen");
  // The audience walk of begin_packet/end_packet relies on this: nobody
  // joins a burst's listeners after it began.
  if (listening && busy_count_[node] > 0)
    throw std::logic_error("carrier sense violated: node enters listen "
                           "while the medium is busy");
  if (static_cast<bool>(listening_[node]) != listening)
    apply_listen_change(node, listening);
  if (!listening) {
    lock_tx_[node] = kNoNode;
    corrupt_[node] = 0;
  }
}

void Channel::begin_burst(NodeId tx) {
  if (transmitting_[tx]) throw std::logic_error("already transmitting");
  if (busy_count_[tx] > 0)
    throw std::logic_error("carrier sense violated: medium busy at tx");
  // Leaves listen to transmit. The lock is untouched: a locked listener is
  // necessarily busy, and busy nodes cannot reach here.
  if (listening_[tx]) apply_listen_change(tx, false);
  transmitting_[tx] = 1;
  ++active_tx_;
  NodeId* audience = audience_.data() + row_start_[tx];
  std::uint32_t size = 0;
  for (const NodeId j : neighbors(tx)) {
    if (++busy_count_[j] == 1) mark_toggled(j);
    // A second carrier corrupts any reception in progress at j.
    if (busy_count_[j] >= 2 && lock_tx_[j] != kNoNode) corrupt_[j] = 1;
    if (listening_[j]) audience[size++] = j;
  }
  audience_size_[tx] = size;
}

void Channel::begin_packet(NodeId tx) {
  if (!transmitting_[tx]) throw std::logic_error("begin_packet without burst");
  for (const NodeId j : audience(tx)) {
    if (listening_[j] && busy_count_[j] == 1 && lock_tx_[j] == kNoNode) {
      lock_tx_[j] = tx;
      corrupt_[j] = 0;
    }
  }
}

const Channel::PacketOutcome& Channel::end_packet(NodeId tx) {
  if (!transmitting_[tx]) throw std::logic_error("end_packet without burst");
  outcome_.clean_receivers.clear();
  outcome_.corrupted = 0;
  for (const NodeId j : audience(tx)) {
    if (lock_tx_[j] == tx) {
      if (corrupt_[j]) {
        ++outcome_.corrupted;
      } else {
        outcome_.clean_receivers.push_back(j);
      }
      lock_tx_[j] = kNoNode;
      corrupt_[j] = 0;
    }
  }
  return outcome_;
}

void Channel::end_burst(NodeId tx) {
  if (!transmitting_[tx]) throw std::logic_error("end_burst without burst");
  transmitting_[tx] = 0;
  --active_tx_;
  audience_size_[tx] = 0;
  for (const NodeId j : neighbors(tx)) {
    if (--busy_count_[j] == 0) mark_toggled(j);
  }
}

const std::vector<NodeId>& Channel::drain_toggled() {
  for (const NodeId n : toggled_) toggled_flag_[n] = 0;
  drained_.swap(toggled_);
  toggled_.clear();
  return drained_;
}

}  // namespace econcast::sim
