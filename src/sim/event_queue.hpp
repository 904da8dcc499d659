// Discrete-event queue with a total, deterministic order:
// (time, insertion sequence). Two runs that push the same events pop
// them identically — the foundation of the simulator's reproducibility.
//
// Implementation: one binary min-heap on (time, seq). The paper testbed
// holds at most a few hundred events at once, and there the heap costs
// under 3% of a run (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/sim_time.hpp"
#include "common/strong_id.hpp"
#include "dag/block.hpp"

namespace dagon {

enum class EventType {
  TaskFinish,
  PrefetchDone,
  /// Periodic scheduler wake-up; lets delay-scheduling timers expire
  /// even when no task event occurs.
  Tick,
  /// Multi-tenant reservation change (SimConfig::capacity_phases).
  CapacityChange,
  /// Fault injection: an executor dies (FaultConfig::crashes).
  ExecutorCrash,
  /// Fault injection: a running attempt fails partway through.
  TaskFail,
  /// A failed task index's retry backoff expired; re-queue it.
  TaskRetry,
  /// Periodic cached-block loss sampling (FaultConfig block loss).
  FaultTick,
  /// An executor's periodic heartbeat emission reaches the driver
  /// (gray-failure monitoring; dropped while the executor's rack is
  /// partitioned).
  Heartbeat,
  /// Online serving: a job arrives (`aux` = index into
  /// SimConfig::serving.jobs); its stages leave the gated state.
  JobSubmit,
  /// Online serving: a job's last stage completed (`aux` = job index).
  /// Emitted for metrics/trace symmetry — all bookkeeping already
  /// happened at the final TaskFinish.
  JobFinish,
};

struct Event {
  SimTime time{};
  EventType type = EventType::Tick;
  /// TaskFinish / TaskFail: which attempt.
  TaskId task = TaskId::invalid();
  /// PrefetchDone: which executor and block. ExecutorCrash: the victim.
  ExecutorId exec = ExecutorId::invalid();
  BlockId block;
  /// CapacityChange: index into SimConfig::capacity_phases.
  /// TaskRetry: stage id (with `aux2` the task index).
  std::int32_t aux = -1;
  std::int32_t aux2 = -1;
};

class EventQueue {
 public:
  void push(const Event& e);

  /// Pops the earliest event; nullopt when empty.
  std::optional<Event> pop();

  /// Allocation-free drain-loop fast path: writes the earliest event
  /// into `out` and returns true, or returns false when empty.
  bool pop_into(Event& out);

  /// Pre-sizes the heap's storage for `n` pending events.
  void reserve(std::size_t n) { heap_.reserve(n); }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event (kTimeInfinity when empty).
  [[nodiscard]] SimTime next_time() const;

 private:
  struct Entry {
    Event event;
    std::uint64_t seq;
    bool operator>(const Entry& other) const {
      if (event.time != other.event.time) return event.time > other.event.time;
      return seq > other.seq;
    }
  };

  std::vector<Entry> heap_;  // min-heap under std::greater<>
  std::uint64_t next_seq_ = 0;
};

}  // namespace dagon
