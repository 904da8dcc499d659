// Run metrics: everything the paper's evaluation section reports.
//
// Populated incrementally by the driver; consumed by benches and tests.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "cluster/locality.hpp"
#include "common/fsm.hpp"
#include "common/stats.hpp"
#include "common/strong_id.hpp"
#include "common/units.hpp"

namespace dagon {

struct TaskRecord {
  StageId stage;
  std::int32_t index = -1;
  ExecutorId exec = ExecutorId::invalid();
  Locality locality = Locality::Any;
  SimTime launch{};
  SimTime finish{};
  SimTime fetch_time{};
  SimTime compute_time{};
  bool speculative = false;
  bool cancelled = false;
  /// Attempt died (transient failure or executor crash) and was retried.
  bool failed = false;

  [[nodiscard]] SimTime duration() const { return finish - launch; }
};

struct StageRecord {
  StageId id;
  std::string name;
  SimTime ready_time{-1};
  SimTime first_launch{-1};
  SimTime finish_time{-1};

  [[nodiscard]] SimTime duration() const {
    return (first_launch >= SimTime{0} && finish_time >= SimTime{0})
               ? finish_time - first_launch
               : SimTime{0};
  }
};

struct CacheStats {
  std::int64_t local_memory_hits = 0;   // block in the reader's cache
  std::int64_t other_memory_hits = 0;   // in some other executor's memory
  std::int64_t disk_reads = 0;
  std::int64_t total_reads = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t proactive_evictions = 0;
  std::int64_t prefetches = 0;
  std::int64_t rejected_admissions = 0;

  /// Effective-hit accounting (LERC, arXiv:1708.07941): a task *read* is
  /// effective only when EVERY cacheable narrow input of the task was
  /// served from cluster memory (local or remote) — a single disk read
  /// or recompute stalls the task just as badly as missing them all.
  /// Counted per task (with >=1 cacheable narrow input), not per block.
  /// Excluded from the base fingerprint mix so pre-serving digests are
  /// preserved; serving runs gate them in via the jobs block.
  std::int64_t effective_task_reads = 0;
  std::int64_t effective_task_hits = 0;

  /// The paper's "cache hit ratio": reads served from the local memory
  /// store over all block reads.
  [[nodiscard]] double hit_ratio() const {
    return total_reads > 0 ? static_cast<double>(local_memory_hits) /
                                 static_cast<double>(total_reads)
                           : 0.0;
  }

  /// Fraction of tasks (with cacheable narrow inputs) whose entire input
  /// peer group was served from cluster memory.
  [[nodiscard]] double effective_hit_ratio() const {
    return effective_task_reads > 0
               ? static_cast<double>(effective_task_hits) /
                     static_cast<double>(effective_task_reads)
               : 0.0;
  }
};

/// Fault-injection and lineage-recovery counters; all zero unless
/// SimConfig::faults is active.
struct FaultStats {
  /// Executors killed by the fault plan.
  std::int64_t executor_crashes = 0;
  /// Attempts that failed transiently (FaultConfig::task_fail_prob).
  std::int64_t transient_failures = 0;
  /// Attempts killed because their executor crashed.
  std::int64_t crash_failures = 0;
  /// Retry events scheduled (backoff expiries).
  std::int64_t retries = 0;
  /// Cached memory copies destroyed (executor crash or random loss).
  std::int64_t memory_blocks_lost = 0;
  /// Produced durable disk copies destroyed by executor crashes.
  std::int64_t disk_copies_lost = 0;
  /// Disk copies re-materialized from a surviving memory holder.
  std::int64_t rereplications = 0;
  /// Blocks whose last copy died and had to be recomputed from lineage.
  std::int64_t blocks_fully_lost = 0;
  /// Finished task indices re-opened to recompute a lost output block.
  std::int64_t lineage_recomputes = 0;

  // -- gray-failure counters ---------------------------------------------

  /// Executors whose phi crossed suspect_phi (suspicion entries).
  std::int64_t suspicions = 0;
  /// Suspicions cleared because the executor resumed heartbeating.
  std::int64_t false_suspicions = 0;
  /// Suspects whose phi crossed dead_phi and were recovered as crashes.
  std::int64_t executors_declared_dead = 0;
  /// Heartbeats emitted inside an active partition (never delivered).
  std::int64_t heartbeats_dropped = 0;
  /// Task completions/failures whose report was held back by a partition
  /// and re-delivered at heal time.
  std::int64_t deferred_reports = 0;
  /// Launched attempts whose input fetch stalled on an active partition.
  std::int64_t partition_stalled_fetches = 0;
  /// Attempts launched on an executor inside a degrade window.
  std::int64_t degraded_launches = 0;
  /// Attempts whose duration drew the heavy tail
  /// (FaultConfig::heavy_tail_prob/mult).
  std::int64_t heavy_tail_injections = 0;
  /// Executors entering / leaving blacklist probation.
  std::int64_t blacklist_entries = 0;
  std::int64_t blacklist_exits = 0;
  /// Sole-copy blocks proactively re-replicated off suspect executors,
  /// and the bytes that moved.
  std::int64_t proactive_rereplications = 0;
  Bytes rereplicated_bytes{};

  /// Per-executor fault breakdown (fault-stats table, bench CSVs), one
  /// row per executor.
  struct PerExecutor {
    std::int64_t crashes = 0;
    std::int64_t transient_failures = 0;
    std::int64_t suspicions = 0;
    std::int64_t false_suspicions = 0;
    std::int64_t blacklist_entries = 0;
    std::int64_t blacklist_exits = 0;
    std::int64_t rereplicated_blocks = 0;
    Bytes rereplicated_bytes{};

    [[nodiscard]] bool any() const {
      return crashes | transient_failures | suspicions | false_suspicions |
             blacklist_entries | blacklist_exits | rereplicated_blocks |
             rereplicated_bytes.count();
    }
  };
  std::vector<PerExecutor> per_executor;

  [[nodiscard]] bool any() const {
    return executor_crashes | transient_failures | crash_failures |
           retries | memory_blocks_lost | disk_copies_lost |
           rereplications | blocks_fully_lost | lineage_recomputes |
           suspicions | false_suspicions | executors_declared_dead |
           heartbeats_dropped | deferred_reports |
           partition_stalled_fetches | degraded_launches |
           heavy_tail_injections | blacklist_entries | blacklist_exits |
           proactive_rereplications | rereplicated_bytes.count();
  }
};

/// Hedged-speculation accounting (SpeculationConfig::hedge); all zero
/// unless hedge mode is on, and folded into metrics_fingerprint only
/// when non-zero so hedge-off runs keep their pinned digests.
struct HedgeStats {
  /// Hedged (speculative) attempts launched.
  std::int64_t hedges_launched = 0;
  /// Hedges that finished before the original attempt.
  std::int64_t hedges_won = 0;
  /// Attempts cancelled because a sibling finished first (either the
  /// losing hedge or the out-raced original).
  std::int64_t hedges_cancelled = 0;
  /// Core-microseconds (vCPU-work) spent on attempts that were later
  /// cancelled — the price paid for the tail latency won.
  CpuWork wasted_core_us{};
  /// Critical-path launches escalated to a faster tier past the
  /// locality ladder (TailConfig::escalate).
  std::int64_t escalations = 0;

  [[nodiscard]] double wasted_core_seconds() const {
    return static_cast<double>(wasted_core_us.count()) / 1e6;
  }

  [[nodiscard]] bool any() const {
    return hedges_launched | hedges_won | hedges_cancelled |
           wasted_core_us.count() | escalations;
  }
};

/// Release-build lifecycle breach counters, one sink per state machine
/// (see common/fsm.hpp). All zero on a correct run; any non-zero counter
/// is folded into metrics_fingerprint so a violating run can never alias
/// a clean one's digest.
struct FsmStats {
  fsm::Violations task;
  fsm::Violations block;
  fsm::Violations executor;

  [[nodiscard]] bool any() const {
    return task.any() || block.any() || executor.any();
  }
};

/// Per-job metrics of one online-serving run; empty unless
/// SimConfig::serving is enabled.
struct JobStats {
  std::string name;
  std::int32_t weight = 1;
  SimTime submitted{};
  SimTime first_launch{-1};
  SimTime finished{-1};
  std::int64_t tasks = 0;
  std::int64_t stages = 0;
  /// Per-job slice of CacheStats::effective_task_{reads,hits}.
  std::int64_t effective_task_reads = 0;
  std::int64_t effective_task_hits = 0;

  /// Job completion time = finish − submit (the serving latency, which
  /// includes any queueing delay before the first launch).
  [[nodiscard]] SimTime jct() const {
    return finished >= SimTime{0} ? finished - submitted : SimTime{-1};
  }
};

/// Sampled pending-task counts for one executor (Fig. 4 top panes).
struct PendingSample {
  SimTime time{};
  std::int32_t node_local = 0;
  std::int32_t rack_local = 0;
};

struct ExecutorProfile {
  ExecutorId id;
  StepFunction busy_cores;
  std::vector<PendingSample> pending;
};

class RunMetrics {
 public:
  /// Job completion time (time the last stage finished).
  SimTime jct{};

  /// Busy vCPUs across the cluster over time.
  StepFunction busy_cores;
  /// Number of running tasks over time (the paper's task parallelism).
  StepFunction running_tasks;
  /// vCPUs reserved by other tenants over time (capacity fluctuation).
  StepFunction reserved_cores;

  Cpus total_cores{};

  /// Number of discrete events the driver processed — the denominator
  /// of the simulator-throughput (events/sec) figure bench_perf reports.
  /// Deterministic for a fixed config (unlike wall-clock time).
  std::int64_t sim_events = 0;

  std::vector<TaskRecord> tasks;
  std::vector<StageRecord> stages;
  CacheStats cache;
  FaultStats faults;
  HedgeStats hedge;
  FsmStats fsm;
  /// Per-job serving metrics, indexed like SimConfig::serving.jobs;
  /// empty on single-job (batch) runs.
  std::vector<JobStats> jobs;
  /// Launch counts per locality level (Fig. 10b).
  std::array<std::int64_t, 5> locality_histogram{};

  /// Only populated when SimConfig::per_executor_profiles is set.
  std::vector<ExecutorProfile> executor_profiles;

  // -- derived ------------------------------------------------------------

  /// Time-weighted mean CPU utilization over [0, jct].
  [[nodiscard]] double cpu_utilization() const;

  /// Mean running-task parallelism over [0, jct].
  [[nodiscard]] double avg_parallelism() const;

  /// Mean duration of completed (non-cancelled) task attempts.
  [[nodiscard]] double avg_task_duration_sec() const;

  /// Duration of stage `id` (first launch to finish), seconds.
  [[nodiscard]] double stage_duration_sec(StageId id) const;

  /// Fraction of launches at Process or Node locality.
  [[nodiscard]] double high_locality_fraction() const;

  /// Count of launches at exactly `l`.
  [[nodiscard]] std::int64_t locality_count(Locality l) const {
    return locality_histogram[static_cast<std::size_t>(l)];
  }
};

/// Order-sensitive FNV-1a digest over everything a run observably
/// produced: jct, every task/stage record, cache stats, locality
/// histogram, busy/running/reserved timelines and the event count. Two
/// runs with equal fingerprints produced bit-identical metrics — this is
/// how the sweep engine's determinism guarantee (parallel == serial) is
/// checked in tests and bench_perf.
[[nodiscard]] std::uint64_t metrics_fingerprint(const RunMetrics& m);

}  // namespace dagon
