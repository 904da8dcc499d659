// Property tests: EventQueue must pop the exact (time, seq) sequence an
// independent std::priority_queue pops — the total order the whole
// simulator's determinism rests on (DESIGN.md §11). The schedules below
// (uniform storms, dense ties, monotone interleaving, far jumps and
// exact power-of-two offsets) are adversarial for any queue layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"

namespace dagon {
namespace {

/// Reference model: std::priority_queue on (time, seq), written
/// independently of EventQueue's own heap code.
class ReferenceQueue {
 public:
  void push(const Event& e) { heap_.push(Entry{e, next_seq_++}); }

  bool pop_into(Event& out) {
    if (heap_.empty()) return false;
    out = heap_.top().event;
    heap_.pop();
    return true;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  struct Entry {
    Event event;
    std::uint64_t seq;
    bool operator>(const Entry& other) const {
      if (event.time != other.event.time) {
        return event.time > other.event.time;
      }
      return seq > other.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::uint64_t next_seq_ = 0;
};

Event make_event(SimTime t, std::uint32_t tag) {
  Event e;
  e.time = t;
  e.type = EventType::Tick;
  // Tag the payload so sequence mismatches are visible even on time ties.
  e.aux = static_cast<std::int32_t>(tag);
  return e;
}

/// Pops both queues fully and asserts identical (time, payload) streams.
void drain_and_compare(EventQueue& q, ReferenceQueue& ref) {
  Event got;
  Event want;
  std::size_t i = 0;
  while (ref.pop_into(want)) {
    ASSERT_TRUE(q.pop_into(got)) << "EventQueue ran dry at pop " << i;
    ASSERT_EQ(got.time, want.time) << "time mismatch at pop " << i;
    ASSERT_EQ(got.aux, want.aux) << "order mismatch at pop " << i;
    ++i;
  }
  EXPECT_FALSE(q.pop_into(got)) << "EventQueue has extra events";
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, MatchesBinaryHeapOnUniformStorm) {
  std::mt19937_64 rng(20260809);
  std::uniform_int_distribution<std::int64_t> dist(0, (600 * kSec).count());
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    ReferenceQueue ref;
    std::uint32_t tag = 0;
    for (int i = 0; i < 2000; ++i) {
      const Event e = make_event(SimTime{dist(rng)}, tag++);
      q.push(e);
      ref.push(e);
    }
    drain_and_compare(q, ref);
  }
}

// Heavy duplicate times: seq must break every tie identically.
TEST(EventQueueProperty, MatchesBinaryHeapOnClusteredTies) {
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<std::int64_t> cluster(0, 7);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    ReferenceQueue ref;
    std::uint32_t tag = 0;
    for (int i = 0; i < 1500; ++i) {
      const Event e = make_event(cluster(rng) * kMsec, tag++);
      q.push(e);
      ref.push(e);
    }
    drain_and_compare(q, ref);
  }
}

// Interleaved push/pop with a monotone clock, as the sim driver does:
// every pop defines `now`, and pushes are now + bounded delay.
TEST(EventQueueProperty, MatchesBinaryHeapOnMonotoneInterleaving) {
  std::mt19937_64 rng(777);
  std::uniform_int_distribution<std::int64_t> delay(0, (90 * kSec).count());
  std::uniform_int_distribution<int> burst(1, 4);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    ReferenceQueue ref;
    std::uint32_t tag = 0;
    const Event seed = make_event(SimTime{0}, tag++);
    q.push(seed);
    ref.push(seed);
    Event got;
    Event want;
    std::size_t pops = 0;
    while (ref.pop_into(want)) {
      ASSERT_TRUE(q.pop_into(got));
      ASSERT_EQ(got.time, want.time) << "at pop " << pops;
      ASSERT_EQ(got.aux, want.aux) << "at pop " << pops;
      ++pops;
      if (pops < 3000) {
        const int n = burst(rng);
        for (int i = 0; i < n; ++i) {
          const Event e =
              make_event(want.time + SimTime{delay(rng)}, tag++);
          q.push(e);
          ref.push(e);
        }
      }
    }
    EXPECT_FALSE(q.pop_into(got));
  }
}

// Far-future pushes (hours out) mixed with near-`now` ones, so the clock
// jumps far forward and later pushes land far below queued events; the
// pop order must still match.
TEST(EventQueueProperty, MatchesBinaryHeapAcrossHorizonJumps) {
  std::mt19937_64 rng(1234);
  std::uniform_int_distribution<std::int64_t> near(0, (10 * kSec).count());
  std::uniform_int_distribution<std::int64_t> far(0,
                                                  (4 * 3600 * kSec).count());
  std::uniform_int_distribution<int> pick(0, 9);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    ReferenceQueue ref;
    std::uint32_t tag = 0;
    SimTime now{};
    for (int step = 0; step < 400; ++step) {
      const int n = pick(rng) + 1;
      for (int i = 0; i < n; ++i) {
        // 30% of pushes land hours out, the rest near `now`.
        const SimTime t =
            pick(rng) < 3 ? SimTime{far(rng)} : now + SimTime{near(rng)};
        const Event e = make_event(t, tag++);
        q.push(e);
        ref.push(e);
      }
      // Pop a few to advance the clock (possibly across the horizon).
      for (int i = 0; i < 3 && !ref.empty(); ++i) {
        Event got;
        Event want;
        ASSERT_TRUE(ref.pop_into(want));
        ASSERT_TRUE(q.pop_into(got));
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.aux, want.aux);
        now = want.time;
      }
    }
    drain_and_compare(q, ref);
  }
}

// Adversarial boundary sweep: every push lands at the pop clock plus an
// exact multiple of a power-of-two width or horizon (or its ±1
// neighbor). Pops then walk the clock onto those edges, so many events
// tie exactly on time across far jumps, and seq alone must order them
// as the reference heap does, pop for pop.
TEST(EventQueueProperty, MatchesBinaryHeapOnExactBoundaryJumps) {
  // A power-of-two grid: 2^15 µs widths x 1024 = a 2^25 µs horizon.
  // Offsets on and ±1 around its multiples make a schedule rich in
  // exact time ties.
  constexpr SimTime kWidth{std::int64_t{1} << 15};
  constexpr SimTime kHorizon{std::int64_t{1} << 25};
  constexpr SimTime kTick{1};
  const std::vector<SimTime> offsets = {
      SimTime{0},
      kTick,
      kWidth - kTick,
      kWidth,
      kWidth + kTick,
      2 * kWidth,
      513 * kWidth,  // an odd multiple far from both ends of the grid
      kHorizon - kWidth,
      kHorizon - kTick,
      kHorizon,  // the grid's end
      kHorizon + kTick,
      2 * kHorizon - kTick,
      2 * kHorizon,
      2 * kHorizon + kTick,
      5 * kHorizon + 3 * kWidth,  // multi-horizon jump, off-rim landing
  };
  std::mt19937_64 rng(9001);
  std::uniform_int_distribution<std::size_t> pick_off(0, offsets.size() - 1);
  std::uniform_int_distribution<int> burst(1, 6);
  std::uniform_int_distribution<int> pops(1, 4);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    ReferenceQueue ref;
    std::uint32_t tag = 0;
    SimTime now{};
    const Event seed = make_event(SimTime{0}, tag++);
    q.push(seed);
    ref.push(seed);
    for (int step = 0; step < 600; ++step) {
      // Near pushes (offset < horizon) and far pushes (offset >= horizon)
      // interleave freely within one burst.
      const int n = burst(rng);
      for (int i = 0; i < n; ++i) {
        const Event e = make_event(now + offsets[pick_off(rng)], tag++);
        q.push(e);
        ref.push(e);
      }
      for (int i = 0, k = pops(rng); i < k && !ref.empty(); ++i) {
        Event got;
        Event want;
        ASSERT_TRUE(ref.pop_into(want));
        ASSERT_TRUE(q.pop_into(got));
        ASSERT_EQ(got.time, want.time)
            << "round " << round << " step " << step;
        ASSERT_EQ(got.aux, want.aux) << "round " << round << " step " << step;
        now = want.time;
      }
    }
    drain_and_compare(q, ref);
  }
}

// Deterministic rim check: one far-forward pop sequence that stops
// exactly at a horizon multiple, with entries queued at h-1 / h / h+1
// around every multiple, plus a straggler pushed BELOW the clock
// afterwards (it must still come out in (time, seq) order).
TEST(EventQueueProperty, PromotionSplitsExactHorizonRim) {
  constexpr SimTime kWidth{std::int64_t{1} << 15};
  constexpr SimTime kHorizon{std::int64_t{1} << 25};
  constexpr SimTime kTick{1};
  EventQueue q;
  ReferenceQueue ref;
  std::uint32_t tag = 0;
  const auto push = [&](SimTime t) {
    const Event e = make_event(t, tag++);
    q.push(e);
    ref.push(e);
  };
  push(SimTime{0});
  for (std::int64_t k = 1; k <= 4; ++k) {
    push(k * kHorizon - kTick);
    push(k * kHorizon);  // exactly on the horizon multiple
    push(k * kHorizon + kTick);
    push(k * kHorizon + (kWidth - kTick));
    push(k * kHorizon + kWidth);
  }
  // Pop through the first rim only: 0, h-1, h, h+1.
  for (int i = 0; i < 4; ++i) {
    Event got;
    Event want;
    ASSERT_TRUE(ref.pop_into(want));
    ASSERT_TRUE(q.pop_into(got));
    ASSERT_EQ(got.time, want.time) << "rim pop " << i;
    ASSERT_EQ(got.aux, want.aux) << "rim pop " << i;
  }
  push(kWidth);            // straggler far below the clock
  push(2 * kHorizon);      // duplicate of an already-queued rim time
  push(kHorizon + kWidth);  // ties an entry queued before the pops
  drain_and_compare(q, ref);
}

TEST(EventQueue, PopReturnsOptionalAndReserveIsHarmless) {
  EventQueue q;
  q.reserve(1024);
  EXPECT_EQ(q.pop(), std::nullopt);
  q.push(make_event(5 * kMsec, 1));
  q.push(make_event(2 * kMsec, 2));
  const auto a = q.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->time, 2 * kMsec);
  EXPECT_EQ(q.next_time(), 5 * kMsec);
  const auto b = q.pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->time, 5 * kMsec);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dagon
