// SimDriver: the discrete-event simulation of one Spark application run
// on one cluster, under a chosen (scheduler, cache policy, delay policy)
// combination.
//
// One driver = one run. Construction wires the substrates together
// (topology, HDFS placement, cost model, reference oracle, block
// managers, job state); run() executes to completion and returns the
// collected metrics. Runs are deterministic for a fixed SimConfig::seed.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cache/block_manager_master.hpp"
#include "fault/failure_detector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/sim_config.hpp"

namespace dagon {

class SimDriver {
 public:
  SimDriver(const JobDag& dag, const JobProfile& profile,
            const SimConfig& config);

  /// Runs the job to completion; callable once.
  [[nodiscard]] RunMetrics run();

  // Accessors for tests and diagnostics.
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const BlockManagerMaster& master() const { return master_; }
  [[nodiscard]] const JobState& state() const { return state_; }
  [[nodiscard]] const HdfsPlacement& hdfs() const { return hdfs_; }

 private:
  void validate() const;
  void schedule_loop(SimTime now);
  void launch_task(StageId s, const Assignment& a, SimTime now,
                   bool speculative);
  void handle_task_finish(TaskId id, SimTime now);
  void cancel_attempt(TaskId id, SimTime now);
  /// Bookkeeping shared by every attempt end (finish, cancel, fail), run
  /// once the attempt's cores are back on its executor: a pending
  /// reservation claims them, and the running list, the job's running
  /// cores, the busy and running timelines and the executor profile drop
  /// the attempt.
  void release_attempt(TaskId id, SimTime now);
  void handle_prefetch_done(const Event& e, SimTime now);
  /// Applies SimConfig::capacity_phases[index]: re-targets per-executor
  /// tenant reservations, claiming free cores now and task completions
  /// later (claim_reservation).
  void handle_capacity_change(std::int32_t index, SimTime now);
  /// Moves up to `pending_reservation` cores of `exec` from free to
  /// reserved (called whenever cores free up).
  void claim_reservation(ExecutorId exec, SimTime now);
  void issue_prefetches(SimTime now);
  void try_speculation(SimTime now);
  /// Executor for an extra attempt of (s, index): schedulable, with room
  /// for the task. With `by_tier` the fastest speed tier below
  /// `mult_below` wins, never one already running an attempt of the
  /// index, and locality breaks ties; otherwise locality alone decides.
  [[nodiscard]] std::optional<Assignment> place_copy(
      StageId s, std::int32_t index, SimTime now, bool by_tier,
      double mult_below) const;
  /// Every input block of (s, index) still exists somewhere.
  [[nodiscard]] bool inputs_exist(StageId s, std::int32_t index) const;
  // -- tail tolerance -----------------------------------------------------
  /// Assigns a speed tier (TailConfig::tiers) to each executor at
  /// construction, from a dedicated forked RNG stream.
  void assign_speed_tiers();
  /// Congestion-aware escalation (TailConfig::escalate): a critical-path
  /// stage whose pending tasks have waited past `escalation_wait` gets
  /// its next task launched on the fastest free tier, bypassing the
  /// locality ladder.
  void try_escalation(SimTime now);
  // -- fault injection & lineage recovery --------------------------------
  /// Kills `exec`: fails its running attempts, removes its cores, drops
  /// its blocks and recovers whatever data died with it.
  void handle_executor_crash(ExecutorId exec, SimTime now);
  /// Terminal failure of one running attempt (transient fault or crash);
  /// returns cores and schedules a retry when no live twin remains.
  void fail_attempt(TaskId id, SimTime now, bool from_crash);
  /// Queues a TaskRetry for (s, index) after capped exponential backoff.
  void schedule_retry(StageId s, std::int32_t index, SimTime now);
  /// Backoff expired: re-queue the task index unless it completed (or
  /// re-queued) meanwhile; recovers missing inputs first.
  void handle_task_retry(StageId s, std::int32_t index, SimTime now);
  /// Periodic random cached-block loss sampling (FaultTick).
  void handle_fault_tick(SimTime now);
  /// Recomputes every input block of (s, index) that no longer exists.
  void ensure_inputs_available(StageId s, std::int32_t index, SimTime now);
  /// Lineage recovery of one lost block: re-opens the producing task
  /// index (and, recursively, whatever *its* recompute needs).
  void recover_block(const BlockId& block, SimTime now);
  /// All task attempts of (s, index) currently in Running state?
  [[nodiscard]] bool has_live_attempt(StageId s, std::int32_t index) const;
  // -- gray failures (heartbeats, suspicion, partitions, blacklist) -------
  /// A heartbeat emission from `exec` reached (or failed to reach, if
  /// partitioned) the driver; feeds the detector and re-arms the next
  /// emission.
  void handle_heartbeat(ExecutorId exec, SimTime now);
  /// Re-classifies every live executor against the detector (Tick).
  void evaluate_suspicions(SimTime now);
  /// Applies the detector's verdict for one executor: enter/clear
  /// suspicion, or declare it dead.
  void evaluate_executor(ExecutorId exec, SimTime now);
  void enter_suspicion(ExecutorId exec, SimTime now);
  /// `recovered` = the executor resumed heartbeating (a false positive,
  /// re-admitted); false when clearing state on the way to a crash.
  void clear_suspicion(ExecutorId exec, SimTime now, bool recovered);
  /// Suspect never resumed: recover it exactly like a planned crash.
  void declare_dead(ExecutorId exec, SimTime now);
  /// Blacklist accounting for one attempt failure on `exec`.
  void note_attempt_failure(ExecutorId exec, SimTime now);
  /// Ends probation for blacklisted executors whose timer expired.
  void expire_blacklists(SimTime now);
  /// True (and re-queues the event to heal time) when the attempt's
  /// executor sits behind an active partition, so the driver cannot
  /// observe the completion/failure yet.
  bool defer_partitioned_report(const Event& e, SimTime now);
  [[nodiscard]] RackId rack_of_exec(ExecutorId exec) const {
    return topo_.rack_of(topo_.node_of(exec));
  }
  [[nodiscard]] FaultStats::PerExecutor& exec_faults(ExecutorId exec) {
    return metrics_.faults.per_executor[static_cast<std::size_t>(
        exec.value())];
  }
  // -- online serving (multi-job mode) ------------------------------------
  /// JobSubmit fired: ungates the job's stages and re-activates their
  /// references in the oracle.
  void handle_job_submit(std::int32_t job, SimTime now);
  /// Job index owning stage `s`; -1 on single-job runs.
  [[nodiscard]] std::int32_t job_of(StageId s) const {
    return serving_ ? stage_job_[static_cast<std::size_t>(s.value())] : -1;
  }
  /// End-of-run invariant: every resource returned, no half-open state.
  void verify_quiescent() const;
  /// Pushes current pv values / current stage into the oracle so the
  /// cache policies see live scheduler state (the paper's Fig. 7 arrow
  /// from TaskScheduler to BlockManagerMaster).
  void push_priority_update();
  void sample_pending(SimTime now);
  void finalize_metrics(SimTime end);

  /// Dense global ordinal of task (s, index): prefix sums of stage task
  /// counts, so all per-task bookkeeping lives in flat arrays.
  [[nodiscard]] std::size_t task_ord(StageId s, std::int32_t index) const {
    return static_cast<std::size_t>(
        task_offset_[static_cast<std::size_t>(s.value())] + index);
  }

  SimConfig config_;
  const JobDag* dag_;
  JobProfile profile_;
  Topology topo_;
  Rng rng_;
  CostModel cost_;
  HdfsPlacement hdfs_;
  ReferenceOracle oracle_;
  std::unique_ptr<CachePolicy> policy_;
  BlockManagerMaster master_;
  JobState state_;
  std::unique_ptr<StageSelector> selector_;
  std::unique_ptr<DelayPolicy> delay_;
  EventQueue queue_;
  /// Resolved fault schedule and fault RNG streams (construction
  /// validates the knobs). The default config schedules nothing and
  /// draws nothing.
  FaultPlan fault_plan_;
  /// Present iff the gray layer runs (FaultConfig::gray_active()):
  /// heartbeats are emitted and the detector classifies executors.
  std::optional<FailureDetector> detector_;
  // -- tail-tolerance state -----------------------------------------------
  /// stage id -> 1 when the stage sits on the DAG's critical path
  /// (longest cp-length chain); sized only when tail.escalate is set.
  std::vector<char> stage_critical_;
  /// Last non-speculative launch time per stage (-1 = none yet); the
  /// escalation wait runs from max(ready_time, last launch).
  std::vector<SimTime> stage_last_launch_;

  /// Task attempts, indexed by TaskId. An attempt's own lifecycle lives
  /// in its status; `Cancelled` marks a hedge/speculation loser torn
  /// down when a sibling finished first.
  std::vector<TaskRuntime> attempts_;
  /// task_offset_[s] = global ordinal of stage s's task 0 (see task_ord).
  std::vector<std::int64_t> task_offset_;
  /// Attempt chain per task ordinal (speculation twins, retries): an
  /// intrusive singly-linked list of attempt ids in launch order —
  /// first/last per task, next per attempt, -1 = none.
  std::vector<std::int64_t> attempt_first_;
  std::vector<std::int64_t> attempt_last_;
  std::vector<std::int64_t> attempt_next_;  // parallel to attempts_
  /// The Running attempts in ascending id order: an intrusive doubly-
  /// linked list over attempt ids (-1 = none). launch_task appends (ids
  /// only grow) and release_attempt unlinks, both in O(1).
  std::vector<std::int64_t> running_prev_;  // parallel to attempts_
  std::vector<std::int64_t> running_next_;  // parallel to attempts_
  std::int64_t running_head_ = -1;
  std::int64_t running_tail_ = -1;
  /// Calls fn(id) for each Running attempt, ascending.
  template <class Fn>
  void for_each_running(Fn&& fn) const {
    for (std::int64_t id = running_head_; id >= 0;
         id = running_next_[static_cast<std::size_t>(id)]) {
      fn(id);
    }
  }
  /// 1 = a prefetch of this block ordinal is in flight somewhere.
  std::vector<char> prefetch_inflight_;
  /// The node ranking issue_prefetches picks from; its buffer is reused
  /// across passes.
  BlockManagerMaster::PrefetchRanking prefetch_ranking_;
  /// failures so far per task ordinal, for retry backoff / the cap.
  std::vector<std::int32_t> retry_counts_;

  // -- online serving state (empty on single-job runs) --------------------
  /// True iff config_.serving.enabled(): multi-job mode.
  bool serving_ = false;
  /// Stage -> owning job index (dense, from ServingConfig::jobs).
  std::vector<std::int32_t> stage_job_;
  struct JobRuntime {
    bool submitted = false;
    SimTime submit_time{};
    SimTime first_launch{-1};
    SimTime finished{-1};
    /// Stages of this job not yet finished; 0 = job complete.
    std::int32_t unfinished_stages = 0;
    /// vCPUs its running attempts hold right now (fair-share numerator).
    Cpus running_cores{};
    std::int64_t effective_task_reads = 0;
    std::int64_t effective_task_hits = 0;
  };
  std::vector<JobRuntime> jobs_;
  /// Scratch job ordering for the fair-share schedule loop.
  std::vector<std::int32_t> job_order_;

  RunMetrics metrics_;
  /// Last PriorityValues::epoch pushed into the oracle (0 = never).
  std::uint64_t pushed_pv_epoch_ = 0;
  bool ran_ = false;
};

}  // namespace dagon
