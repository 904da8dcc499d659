// Complete configuration of one simulated run: cluster, data plane,
// scheduler, cache policy, delay-scheduling variant, and noise knobs.
//
// The paper's four evaluated systems map to:
//   stock Spark (FIFO+LRU):  {Fifo,   Lru, Native}
//   Graphene+LRU:            {Graphene, Lru, Native}
//   Graphene+MRD:            {Graphene, Mrd, Native}
//   Dagon:                   {Dagon,  Lrp, SensitivityAware}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_policy.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/hdfs.hpp"
#include "cluster/topology.hpp"
#include "fault/fault_config.hpp"
#include "sched/delay_scheduling.hpp"
#include "sched/speculation.hpp"
#include "sched/stage_selector.hpp"

namespace dagon {

struct SimConfig {
  TopologySpec topology;
  HdfsSpec hdfs;
  CostModelSpec cost;

  SchedulerKind scheduler = SchedulerKind::Fifo;
  CachePolicyKind cache = CachePolicyKind::Lru;
  DelayKind delay = DelayKind::Native;
  LocalityWaits waits;
  /// Algorithm 2 acceptance slack: a low-locality task is admitted when
  /// its estimated duration < ect_slack * ect (Eq. 7). 1.0 = strict.
  double ect_slack = 1.1;

  /// Disables all memory caching (the paper's Fig. 9/10 ablations run
  /// with "caching disabled").
  bool cache_enabled = true;
  /// Enables prefetching for policies that support it (MRD/LRP).
  bool prefetch_enabled = true;

  SpeculationConfig speculation;

  /// One executor speed tier: `fraction` of the cluster's executors run
  /// all compute (and data movement) scaled by `mult` (< 1 = faster
  /// than baseline, > 1 = slower). Executors not covered by any tier
  /// stay at 1.0 ("normal").
  struct ExecTier {
    std::string name;
    double fraction = 0.0;
    double mult = 1.0;
  };

  /// Executor heterogeneity + congestion-aware escalation knobs.
  struct TailConfig {
    /// Speed tiers; empty = homogeneous cluster, bit-identical to
    /// builds without the subsystem. Tier membership is assigned at
    /// driver construction from a dedicated forked RNG stream.
    std::vector<ExecTier> tiers;
    /// Critical-path escalation: when a stage on the DAG's critical
    /// path has pending tasks that have waited >= `escalation_wait`
    /// and a faster-tier executor has free cores, launch there even at
    /// worse locality (delay-scheduling-style patience, then escalate).
    bool escalate = false;
    SimTime escalation_wait = 2 * kSec;

    [[nodiscard]] bool enabled() const { return !tiers.empty(); }
  };
  TailConfig tail;

  /// Failure model (executor crashes, block loss, transient task
  /// failures) and lineage-recovery knobs. Default off: every fault draw
  /// comes from a dedicated RNG stream, so fault-free runs are
  /// bit-identical to builds without the subsystem.
  FaultConfig faults;

  /// Scheduler wake-up period (Spark's revive interval).
  SimTime tick_interval = 100 * kMsec;

  /// Lognormal-ish multiplicative noise on task compute durations
  /// (sigma of a normal factor centred at 1; 0 = deterministic).
  double duration_noise = 0.0;

  /// RNG seed (HDFS placement, noise).
  std::uint64_t seed = 42;

  /// Collect per-executor busy profiles and pending-task samples (needed
  /// by the Fig. 4 bench only; costs O(executors) per tick).
  bool per_executor_profiles = false;

  /// Multi-tenant capacity fluctuation (the paper's varying RC in
  /// Eq. (3)): from `at` onward, `reserved_fraction` of every executor's
  /// vCPUs belongs to other tenants. Reservations are claimed from free
  /// cores first and from task completions after; phases must be sorted
  /// by time.
  struct CapacityPhase {
    SimTime at{};
    double reserved_fraction = 0.0;
  };
  std::vector<CapacityPhase> capacity_phases;

  /// Online serving: one logical job inside a merged multi-job DAG.
  /// `stages` lists the stage ids belonging to this job (a partition of
  /// the DAG's stages across all jobs); until `submit_at` those stages
  /// are gated (not schedulable, references inactive in the oracle).
  struct ServingJob {
    std::string name;
    SimTime submit_at{};
    /// Weighted-fair-share weight (>=1); a job with weight 2 is entitled
    /// to twice the running cores of a weight-1 job under contention.
    std::int32_t weight = 1;
    std::vector<StageId> stages;
  };

  /// Online multi-job serving mode. Empty `jobs` = classic single-job
  /// batch semantics, bit-identical to builds without the subsystem.
  struct ServingConfig {
    std::vector<ServingJob> jobs;
    /// Inter-job weighted fair sharing: the schedule loop offers free
    /// cores to the job with the lowest running_cores/weight ratio
    /// first. Off = FIFO across jobs (arrival order, stage-selector
    /// order within).
    bool fair_share = false;

    [[nodiscard]] bool enabled() const { return !jobs.empty(); }
  };
  ServingConfig serving;

  /// Hard wall on simulated time (runaway guard).
  SimTime max_sim_time = 24LL * 3600 * kSec;
};

}  // namespace dagon
