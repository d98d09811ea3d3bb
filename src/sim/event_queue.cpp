#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace econcast::sim {

EventQueue::EventQueue(Arena* arena)
    : heap_(ArenaAllocator<Event>(arena)),
      generations_(ArenaAllocator<std::uint64_t>(arena)),
      slot_live_(ArenaAllocator<std::uint8_t>(arena)) {}

void EventQueue::reserve_for_nodes(std::size_t n) {
  reserve(capacity_for_nodes(n));
  if (generations_.size() < n * kEventKindCount) {
    generations_.resize(n * kEventKindCount, 0);
    slot_live_.resize(n * kEventKindCount, 0);
  }
}

std::size_t EventQueue::slot(NodeId node, EventKind kind) {
  const std::size_t index =
      static_cast<std::size_t>(node) * kEventKindCount +
      static_cast<std::size_t>(kind);
  if (index >= generations_.size()) {
    const std::size_t want =
        (static_cast<std::size_t>(node) + 1) * kEventKindCount;
    generations_.resize(want, 0);
    slot_live_.resize(want, 0);
  }
  return index;
}

bool EventQueue::stale(const Event& e) const noexcept {
  if (!e.cancellable) return false;
  const std::size_t slot =
      static_cast<std::size_t>(e.node) * kEventKindCount +
      static_cast<std::size_t>(e.kind);
  return e.stamp != generations_[slot];
}

void EventQueue::push(double time, EventKind kind, NodeId node) {
  heap_.push_back(Event{time, next_seq_++, kind, false, node, 0});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  ++live_;  // durable events stay live until popped
  ++stats_.pushes;
  stats_.peak_live = std::max(stats_.peak_live, heap_.size());
  maybe_compact();
}

void EventQueue::schedule(double time, EventKind kind, NodeId node) {
  const std::size_t s = slot(node, kind);
  const std::uint64_t gen = ++generations_[s];
  heap_.push_back(Event{time, next_seq_++, kind, true, node, gen});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  if (!slot_live_[s]) {
    slot_live_[s] = 1;
    ++live_;
  }  // else the superseded event went stale: net live count unchanged
  ++stats_.pushes;
  stats_.peak_live = std::max(stats_.peak_live, heap_.size());
  maybe_compact();
}

void EventQueue::cancel(NodeId node, EventKind kind) {
  const std::size_t s = slot(node, kind);
  ++generations_[s];
  if (slot_live_[s]) {
    slot_live_[s] = 0;
    --live_;
  }
}

const Event* EventQueue::peek_live() {
  while (!heap_.empty()) {
    const Event& head = heap_.front();
    if (!stale(head)) return &head;
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    heap_.pop_back();
    ++stats_.stale_drops;
  }
  return nullptr;
}

bool EventQueue::empty() { return peek_live() == nullptr; }

const Event& EventQueue::top() {
  const Event* head = peek_live();
  if (head == nullptr) throw std::logic_error("top of empty EventQueue");
  return *head;
}

Event EventQueue::pop() {
  if (peek_live() == nullptr)
    throw std::logic_error("pop from empty EventQueue");
  ++stats_.pops;
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  const Event event = heap_.back();
  heap_.pop_back();
  if (event.cancellable) slot_live_[slot(event.node, event.kind)] = 0;
  --live_;
  return event;
}

void EventQueue::maybe_compact() {
  const std::size_t stored = heap_.size();
  if (stored < kCompactionFloor || stored - live_ <= live_) return;
  // A stable keep-order filter followed by a re-heapify: the rebuilt layout
  // is a function of the surviving sequence alone, so compaction stays
  // deterministic. Every cancellable stored event's slot exists (schedule()
  // sized the table before entering it), so stale() never reads past it.
  const auto kept = std::remove_if(heap_.begin(), heap_.end(),
                                   [this](const Event& e) { return stale(e); });
  stats_.stale_drops += static_cast<std::uint64_t>(heap_.end() - kept);
  heap_.erase(kept, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EventLater{});
}

void EventQueue::clear() {
  heap_.clear();
  std::fill(slot_live_.begin(), slot_live_.end(), 0);
  live_ = 0;
  // Generations survive clear(): a cleared queue holds no events, so every
  // slot is trivially consistent either way.
}

void EventQueue::reserve(std::size_t n) { heap_.reserve(n); }

std::size_t EventQueue::capacity() const noexcept { return heap_.capacity(); }

std::size_t EventQueue::size() const noexcept { return heap_.size(); }

}  // namespace econcast::sim
