#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace econcast::sim {

void EventQueue::reserve_for_nodes(std::size_t n) {
  heap_.reserve(capacity_for_nodes(n));
  if (position_.size() < n * kEventKindCount)
    position_.resize(n * kEventKindCount, kNoPosition);
}

void EventQueue::place(std::size_t i, const Event& e) {
  heap_[i] = e;
  if (e.cancellable) position_[slot_index(e.node, e.kind)] = i;
}

void EventQueue::settle(std::size_t i, const Event& e) {
  const EventLater later;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], e)) break;
    place(i, heap_[parent]);
    i = parent;
  }
  const std::size_t n = heap_.size();
  for (std::size_t first = kArity * i + 1; first < n;
       first = kArity * i + 1) {
    const std::size_t last = std::min(first + kArity, n);
    std::size_t child = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (later(heap_[child], heap_[c])) child = c;
    if (!later(e, heap_[child])) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void EventQueue::remove_at(std::size_t i) {
  const Event last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) settle(i, last);
}

std::size_t EventQueue::earliest_lane() const noexcept {
  const EventLater later;
  const Event* best = heap_.empty() ? nullptr : &heap_.front();
  std::size_t from = kEventKindCount;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const Lane& lane = lanes_[k];
    if (lane.count == 0) continue;
    if (best == nullptr || later(*best, lane.front())) {
      best = &lane.front();
      from = k;
    }
  }
  return from;
}

void EventQueue::grow(Lane& lane) {
  const std::size_t capacity = lane.ring.size();
  std::vector<Event> ring(capacity == 0 ? kFirstLaneCapacity : 2 * capacity);
  for (std::size_t k = 0; k < lane.count; ++k)
    ring[k] = lane.ring[(lane.head + k) & (capacity - 1)];
  lane.ring = std::move(ring);
  lane.head = 0;
}

void EventQueue::note_push() {
  ++stats_.pushes;
  stats_.peak_live = std::max(stats_.peak_live, size());
}

void EventQueue::push(double time, EventKind kind, NodeId node) {
  const Event e{time, next_seq_++, kind, false, node};
  Lane& lane = lanes_[static_cast<std::size_t>(kind)];
  if (lane.count == 0 || lane.back().time <= time) {
    if (lane.count == lane.ring.size()) grow(lane);
    lane.ring[(lane.head + lane.count) & (lane.ring.size() - 1)] = e;
    ++lane.count;
    ++lane_events_;
  } else {
    heap_.push_back(e);
    settle(heap_.size() - 1, e);
  }
  note_push();
}

void EventQueue::schedule(double time, EventKind kind, NodeId node) {
  const std::size_t s = slot_index(node, kind);
  if (s >= position_.size())
    position_.resize((static_cast<std::size_t>(node) + 1) * kEventKindCount,
                     kNoPosition);
  const Event e{time, next_seq_++, kind, true, node};
  if (position_[s] != kNoPosition) {
    ++stats_.cancels;  // the slot's live event is replaced in place
    settle(position_[s], e);
  } else {
    heap_.push_back(e);
    settle(heap_.size() - 1, e);
  }
  note_push();
}

void EventQueue::cancel_slot(std::size_t s) {
  const std::size_t i = position_[s];
  position_[s] = kNoPosition;
  ++stats_.cancels;
  remove_at(i);
}

const Event& EventQueue::top() const {
  if (empty()) throw std::logic_error("top of empty EventQueue");
  const std::size_t k = earliest_lane();
  return k < kEventKindCount ? lanes_[k].front() : heap_.front();
}

bool EventQueue::pop_until(double limit, Event& out) {
  if (const std::size_t k = earliest_lane(); k < kEventKindCount) {
    Lane& lane = lanes_[k];
    if (lane.front().time > limit) return false;
    out = lane.front();
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    --lane.count;
    --lane_events_;
  } else {
    if (heap_.empty() || heap_.front().time > limit) return false;
    out = heap_.front();
    if (out.cancellable)
      position_[slot_index(out.node, out.kind)] = kNoPosition;
    remove_at(0);
  }
  ++stats_.pops;
  return true;
}

}  // namespace econcast::sim
