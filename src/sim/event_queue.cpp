#include "sim/event_queue.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"

namespace dagon {

void EventQueue::push(const Event& e) {
  DAGON_CHECK_MSG(e.time >= SimTime{0}, "event scheduled at negative time");
  heap_.push_back(Entry{e, next_seq_++});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

bool EventQueue::pop_into(Event& out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  out = heap_.back().event;
  heap_.pop_back();
  return true;
}

std::optional<Event> EventQueue::pop() {
  Event e;
  if (!pop_into(e)) return std::nullopt;
  return e;
}

SimTime EventQueue::next_time() const {
  return heap_.empty() ? kTimeInfinity : heap_.front().event.time;
}

}  // namespace dagon
