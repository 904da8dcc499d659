// Mutable runtime state of one job: per-stage task queues, per-executor
// free cores, delay-scheduling timers, and the priority-value (pv)
// bookkeeping of the paper's Algorithm 1 / Table III.
//
// The simulation driver owns a JobState and mutates it through the
// launch/finish methods; schedulers and delay policies read it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>
#include <vector>

#include "cluster/locality.hpp"
#include "cluster/topology.hpp"
#include "common/fsm.hpp"
#include "common/sim_time.hpp"
#include "dag/job_dag.hpp"
#include "dag/priority_values.hpp"
#include "dag/profile.hpp"
#include "sched/pending_list.hpp"

namespace dagon {

struct TaskRuntime {
  StageId stage;
  std::int32_t index = -1;  // partition index within the stage
  TaskStatus status = TaskStatus::Pending;
  ExecutorId executor = ExecutorId::invalid();
  Locality locality = Locality::Any;
  SimTime launch_time{-1};
  SimTime finish_time{-1};
  /// Split of the actual duration (filled at launch).
  SimTime fetch_time{};
  SimTime compute_time{};
  /// Set when this is a speculative copy of another attempt.
  bool speculative = false;
};

struct StageRuntime {
  StageId id;

  bool ready = false;     // all parents finished
  bool finished = false;
  /// Serving mode: the stage's job has not been submitted yet. A gated
  /// stage is never promoted to ready (even with zero parents) until the
  /// driver ungates it on JobSubmit.
  bool gated = false;
  /// Stage has at least one narrow input (set once at construction).
  /// Without one, task_locality_on answers NoPref for every task, which
  /// lets the scheduler skip per-task locality scans entirely.
  bool has_narrow = false;

  PendingList pending;  // task indices not yet launched, in queue order
  std::int32_t running = 0;
  std::int32_t finished_tasks = 0;
  std::int32_t num_tasks = 0;
  /// Bumped by every JobState call that changes the pending set or the
  /// finished tasks' durations (mark_launched, mark_finished,
  /// readd_pending, reopen_task). Not by changes to `running` alone: the
  /// driver also moves it for speculative copies.
  std::uint64_t epoch = 0;

  SimTime ready_time{-1};
  SimTime first_launch{-1};
  SimTime finish_time{-1};

  // --- native delay-scheduling state (per TaskSet, as in Spark) ---
  /// Index into the taskset's valid locality levels.
  std::size_t locality_index = 0;
  /// Start of the wait at the current level.
  SimTime locality_timer{};

  // --- observed per-locality durations for Algorithm 2's estimates ---
  std::array<double, 5> locality_duration_sum{};   // by Locality value
  std::array<std::int64_t, 5> locality_count{};

  /// Durations of finished tasks (for speculation medians and metrics).
  std::vector<SimTime> finished_durations;

  /// Lifecycle state per task index (not per attempt: a speculative twin
  /// shares its index's state). Every write flows through
  /// fsm::transition() in job_state.cpp.
  std::vector<TaskStatus> task_status;

  [[nodiscard]] bool has_pending() const { return !pending.empty(); }

  [[nodiscard]] TaskStatus status_of(std::int32_t index) const {
    return task_status[static_cast<std::size_t>(index)];
  }
};

struct ExecutorRuntime {
  ExecutorId id;
  /// End of blacklist probation; 0 when not blacklisted. A blacklisted
  /// executor receives no new launches until the probation expires.
  SimTime blacklisted_until{};
  /// Attempt failures accumulated toward the blacklist threshold; reset
  /// when probation expires.
  std::int32_t blacklist_failures = 0;
  /// Cores currently held by other tenants (multi-tenant reservation).
  Cpus reserved_cores{};
  /// Reservation demand not yet satisfiable (claimed as tasks finish).
  Cpus pending_reservation{};
  /// Block currently being prefetched, if any (one IO channel).
  std::optional<BlockId> prefetching;
  std::int64_t tasks_launched = 0;
  /// Speed-tier index into SimConfig::TailConfig::tiers (-1 = normal
  /// tier) and the tier's compute/transfer multiplier (< 1 = faster
  /// than baseline). Assigned once at driver construction; 1.0 when
  /// heterogeneity is off.
  std::int32_t speed_tier = -1;
  double speed_mult = 1.0;

  [[nodiscard]] bool alive() const { return health_ != ExecutorHealth::Dead; }
  [[nodiscard]] bool suspect() const {
    return health_ == ExecutorHealth::Suspect;
  }

  /// May the scheduler place a *new* attempt here at `now`? Dead,
  /// suspect and blacklisted executors are all excluded; already-running
  /// attempts are unaffected.
  [[nodiscard]] bool schedulable(SimTime now) const {
    return health_ == ExecutorHealth::Healthy && blacklisted_until <= now;
  }

  [[nodiscard]] Cpus free_cores() const { return free_cores_; }

 private:
  friend class JobState;
  /// Healthy / Suspect / Dead lifecycle (fsm::StateMachine<
  /// ExecutorHealth>). Dead once the fault plan crashed this executor —
  /// it holds no cores and is skipped by every placement decision.
  /// Suspect while the failure detector sees missed heartbeats: the
  /// executor keeps its cores and running attempts — it may well recover
  /// — but receives no new launches and grants no locality preference.
  /// Writable only through JobState (set_health), which bumps the
  /// capacity epoch when the executor leaves suspicion.
  ExecutorHealth health_ = ExecutorHealth::Healthy;
  /// Writable only through JobState (set_free_cores / add_free_cores /
  /// mark_launched / mark_finished), which keeps the free-slot index in
  /// lockstep with the value.
  Cpus free_cores_{};
};

/// Wait times per locality level, Spark's spark.locality.wait.* family.
struct LocalityWaits {
  SimTime process = 3 * kSec;
  SimTime node = 3 * kSec;
  SimTime rack = 3 * kSec;

  [[nodiscard]] static LocalityWaits uniform(SimTime w) {
    return LocalityWaits{w, w, w};
  }

  /// Wait before escalating *past* the given level.
  [[nodiscard]] SimTime wait_for(Locality l) const {
    switch (l) {
      case Locality::Process: return process;
      case Locality::Node: return node;
      case Locality::Rack: return rack;
      case Locality::NoPref:
      case Locality::Any: return SimTime{0};
    }
    return SimTime{0};
  }
};

class JobState {
 public:
  JobState(const JobDag& dag, const Topology& topo, const JobProfile& profile);

  // -- structure ---------------------------------------------------------

  [[nodiscard]] const JobDag& dag() const { return *dag_; }
  [[nodiscard]] const JobProfile& profile() const { return *profile_; }
  [[nodiscard]] const Topology& topology() const { return *topo_; }

  [[nodiscard]] StageRuntime& stage(StageId id);
  [[nodiscard]] const StageRuntime& stage(StageId id) const;
  [[nodiscard]] ExecutorRuntime& executor(ExecutorId id);
  [[nodiscard]] const ExecutorRuntime& executor(ExecutorId id) const;

  [[nodiscard]] const std::vector<StageRuntime>& stages() const {
    return stages_;
  }
  [[nodiscard]] std::vector<ExecutorRuntime>& executors() {
    return executors_;
  }
  [[nodiscard]] const std::vector<ExecutorRuntime>& executors() const {
    return executors_;
  }

  /// Ready, unfinished stages that still have pending tasks, in
  /// ascending id order.
  [[nodiscard]] std::vector<StageId> schedulable_stages() const;

  /// True when every stage has finished.
  [[nodiscard]] bool all_finished() const;

  /// Any executor with at least one free core? O(1) off the free-slot
  /// index (health and blacklists do not matter here — this gates the
  /// scheduler loop, not placement).
  [[nodiscard]] bool any_free_cores() const { return num_free_ > 0; }

  // -- free-slot executor index -------------------------------------------
  //
  // One bitmap over executor ids per demand d = 1..fit_levels(), bit e
  // set iff free_cores() >= d, plus the total launch count that defines
  // the scheduler's rotation. Every free-core mutation flows through
  // set_free_cores / add_free_cores (free_cores_ is private to enforce
  // it), so the index is exact at all times. A delay policy's walk
  // visits only the executors that fit the stage's task_cpus and lie in
  // its candidate mask (PendingTaskIndex::candidates): a word-scan over
  // n/64 words plus the executors actually visited.

  /// Demand levels kept: the DAG's largest task_cpus, capped at the
  /// largest executor's cores (a level above it would stay empty). At
  /// least 1; level 1 is "has a free core".
  [[nodiscard]] std::int32_t fit_levels() const { return fit_levels_; }

  /// Sets `exec`'s free cores to `cores`, updating the index.
  void set_free_cores(ExecutorId exec, Cpus cores);

  /// Adjusts `exec`'s free cores by `delta`, updating the index.
  void add_free_cores(ExecutorId exec, Cpus delta);

  /// Moves `exec`'s health along the executor lifecycle table
  /// (fsm::transition; `violations` as there).
  void set_health(ExecutorId exec, ExecutorHealth to,
                  fsm::Violations* violations = nullptr);

  /// Bumped whenever an executor may have gained room for a launch: its
  /// free cores rose, or it left suspicion. Nothing else turns an
  /// executor that refused a stage into one that accepts it at the same
  /// instant (see DelayPolicy::find).
  [[nodiscard]] std::uint64_t capacity_epoch() const {
    return capacity_epoch_;
  }

  /// Visits, in the order of the historical full scan — executor ids
  /// rotated left by (Σ tasks_launched) mod n — every executor with
  /// free_cores() >= min(demand, fit_levels()) whose bit is set in
  /// `mask` (n/64 words; empty = every executor), and stops early when
  /// `fn` returns true. An executor skipped for lacking cores is one
  /// whose fit check would fail; a demand above fit_levels() leaves
  /// that check to `fn`. `fn` must not change any executor's free-core
  /// state mid-scan. Returns true when `fn` stopped the scan.
  template <typename Fn>
  bool for_each_free_executor(Cpus demand, std::span<const std::uint64_t> mask,
                              Fn&& fn) const {
    const std::size_t n = executors_.size();
    if (n == 0 || num_free_ == 0) return false;
    const std::int32_t level =
        std::clamp(demand.count(), std::int32_t{1}, fit_levels_);
    const std::uint64_t* fit =
        &fit_[static_cast<std::size_t>(level - 1) * words_];
    const std::uint64_t* m = mask.empty() ? nullptr : mask.data();
    const auto shift = static_cast<std::size_t>(
        total_launched_ % static_cast<std::int64_t>(n));
    return scan_free(shift, n, fit, m, fn) || scan_free(0, shift, fit, m, fn);
  }

  // -- the paper's w_i and pv_i (Eq. 6) ------------------------------------

  /// w_i and pv_i from the profile's estimates. mark_launched takes one
  /// task's share as the task is *assigned* (Table III); readd_pending
  /// and reopen_task give it back; a stage's last mark_finished zeroes it.
  [[nodiscard]] const PriorityValues& priority_values() const { return pv_; }

  // -- state transitions (called by the simulation driver) ----------------

  /// Removes task `index` from stage `s`'s pending queue and charges the
  /// executor's cores; updates w_i / Table III bookkeeping. The first
  /// launch of an index transitions it Pending → Running; a speculative
  /// twin leaves the (already Running) index state untouched.
  void mark_launched(StageId s, std::int32_t index, ExecutorId exec,
                     SimTime now);

  /// Returns cores and records duration stats; transitions task `index`
  /// Running → Finished; marks the stage finished when its last task
  /// completes (returns true in that case).
  bool mark_finished(StageId s, std::int32_t index, ExecutorId exec,
                     Locality locality, SimTime launch_time, SimTime now);

  /// Transitions task `index` Running → Failed. Called by the driver
  /// when the last live attempt of an unproduced index fails; the retry
  /// path (readd_pending) later moves it Failed → Pending.
  void mark_failed(StageId s, std::int32_t index);

  /// Promotes stages whose parents have all finished; returns the newly
  /// ready stage ids. Gated stages are never promoted.
  std::vector<StageId> refresh_ready(SimTime now);

  /// Serving mode: (un)gates a stage. Gating demotes an already-ready
  /// stage (only legal before any of its tasks launched); ungating does
  /// not promote — call refresh_ready afterwards so promotion runs the
  /// usual parent check and timestamps ready_time with the submit time.
  void set_stage_gated(StageId s, bool gated);

  /// Re-queues a *failed* task for retry: transitions it
  /// Failed → Pending, re-inserts it into the pending queue and restores
  /// its share of w_i.
  void readd_pending(StageId s, std::int32_t index);

  /// Lineage recovery: re-opens a *finished* task of a (possibly
  /// finished) stage so it can be recomputed after its output block was
  /// lost. Un-finishes the stage, pushes `index` back onto pending and
  /// restores its share of w_i.
  void reopen_task(StageId s, std::int32_t index);

  /// Re-checks readiness after lineage recovery re-opened stages: any
  /// ready, unfinished stage with an unfinished parent loses its ready
  /// flag (refresh_ready() re-promotes it once the parent completes
  /// again). Returns the demoted stage ids.
  std::vector<StageId> demote_unready();

  /// Observed mean duration of finished tasks of `s` at `l`; nullopt if
  /// none finished at that level yet.
  [[nodiscard]] std::optional<SimTime> observed_duration(StageId s,
                                                         Locality l) const;

  /// Mean duration over all finished tasks of `s` (any locality).
  [[nodiscard]] std::optional<SimTime> observed_duration(StageId s) const;

  /// Release-build sink for illegal task-status transitions (folded into
  /// metrics_fingerprint by the driver). Null = throw-only enforcement.
  void set_fsm_violations(fsm::Violations* sink) { fsm_violations_ = sink; }

 private:
  /// Routes every task_status write through the transition table.
  void set_status(StageRuntime& rt, std::int32_t index, TaskStatus to);

  /// Visits the executors with ids in [lo, hi) whose bit is set in
  /// `fit` and in `mask` (null = all) in ascending order; true when `fn`
  /// stopped the scan.
  template <typename Fn>
  static bool scan_free(std::size_t lo, std::size_t hi,
                        const std::uint64_t* fit, const std::uint64_t* mask,
                        Fn&& fn) {
    if (lo >= hi) return false;
    std::size_t w = lo >> 6;
    const std::size_t wlast = (hi - 1) >> 6;
    const auto load = [&](std::size_t i) {
      return mask == nullptr ? fit[i] : fit[i] & mask[i];
    };
    std::uint64_t word = load(w) & (~std::uint64_t{0} << (lo & 63));
    while (true) {
      if (w == wlast) {
        const std::size_t tail = hi & 63;
        if (tail != 0) word &= (std::uint64_t{1} << tail) - 1;
      }
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (fn(ExecutorId(static_cast<std::int32_t>((w << 6) | bit)))) {
          return true;
        }
      }
      if (w == wlast) return false;
      word = load(++w);
    }
  }

  const JobDag* dag_;
  const Topology* topo_;
  const JobProfile* profile_;
  std::vector<StageRuntime> stages_;
  std::vector<ExecutorRuntime> executors_;
  /// Words per bitmap: (executors + 63) / 64.
  std::size_t words_ = 0;
  std::int32_t fit_levels_ = 1;
  /// fit_levels_ bitmaps of words_ words each; bit e of bitmap d - 1 is
  /// set iff executors_[e].free_cores_ >= d.
  std::vector<std::uint64_t> fit_;
  /// Popcount of bitmap 0 — executors with a free core right now.
  std::int64_t num_free_ = 0;
  /// Σ tasks_launched over all executors (the rotation phase).
  std::int64_t total_launched_ = 0;
  PriorityValues pv_;
  std::uint64_t capacity_epoch_ = 0;
  fsm::Violations* fsm_violations_ = nullptr;
};

}  // namespace dagon
