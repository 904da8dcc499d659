// Fault-model knobs: scheduled executor crashes, random cached-block
// loss, transient task failures — and the gray-failure layer: rack
// network partitions, degraded executors, heartbeat monitoring and
// executor blacklisting.
//
// Everything defaults to off — no schedule, every rate zero — and every
// stochastic draw flows through a dedicated RNG stream (FaultPlan), so
// the default config produces a trace bit-identical to a build that
// predates the fault subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"

namespace dagon {

/// One scheduled executor crash.
struct ExecutorCrashSpec {
  SimTime at{};
  /// Executor id, or -1 to have FaultPlan pick a random distinct
  /// executor (deterministically, from the fault RNG stream).
  std::int32_t executor = -1;
};

/// One scheduled rack partition: from `at` until `heal_at` the rack is
/// cut off from the driver and from every other rack. Executors inside
/// keep running (a gray failure, not a crash): their heartbeats are
/// dropped, their task completions are reported only after the heal,
/// and fetches crossing the partition stall until it heals.
struct PartitionSpec {
  SimTime at{};
  SimTime heal_at{};
  /// Rack id, or -1 for a random rack (fault RNG stream).
  std::int32_t rack = -1;
};

/// One scheduled executor degradation: tasks launched on the executor
/// during [at, until) have their fetch and compute times scaled by
/// `slowdown`, and its heartbeats arrive `slowdown`x late — slow enough
/// to look sick, alive enough to never crash.
struct DegradeSpec {
  SimTime at{};
  SimTime until{};
  /// Executor id, or -1 for a random executor (fault RNG stream).
  std::int32_t executor = -1;
  double slowdown = 2.0;
};

struct FaultConfig {
  /// Executor crashes: the crashed executor's running attempts fail and
  /// are retried elsewhere, its cores leave the cluster for good, and
  /// its cached + produced-disk blocks are dropped. Blocks whose last
  /// copy dies are recomputed from DAG lineage.
  std::vector<ExecutorCrashSpec> crashes;

  /// Rack partitions with scheduled heal times (gray failures).
  std::vector<PartitionSpec> partitions;

  /// Degraded (slow) executors (gray failures).
  std::vector<DegradeSpec> degrades;

  /// Probability that a launched task attempt fails partway through and
  /// must be retried (Spark's transient task failures). In [0, 1).
  double task_fail_prob = 0.0;

  /// Heavy-tail duration injection: with probability `heavy_tail_prob`
  /// (one draw per launched attempt, from a dedicated forked RNG
  /// stream) the attempt's compute time is multiplied by
  /// `heavy_tail_mult`. Straggling is a property of the *attempt*, not
  /// the task — a hedged copy on a healthy executor redraws and
  /// genuinely escapes the tail. prob in [0, 1]; mult >= 1.
  double heavy_tail_prob = 0.0;
  double heavy_tail_mult = 10.0;

  /// Poisson-style loss rate of cached memory blocks, per GiB of block
  /// size per hour; sampled every `block_loss_interval`. Models bit-rot
  /// / OOM-killed cache entries: the durable disk copy survives, so the
  /// loss degrades locality and hit ratio but never loses data.
  double block_loss_per_gb_hour = 0.0;
  SimTime block_loss_interval = kSec;

  /// Capped exponential backoff before retry k of a failed task index:
  /// min(retry_backoff_base * 2^k, retry_backoff_cap).
  SimTime retry_backoff_base = kSec;
  SimTime retry_backoff_cap = 30 * kSec;

  /// Retries per task index before the run is declared failed.
  std::int32_t max_task_retries = 100;

  // -- heartbeat monitoring / phi-accrual suspicion ----------------------

  /// Force heartbeat monitoring on even with no partition or degrade
  /// scheduled. Monitoring runs automatically whenever either is.
  bool heartbeats = false;

  /// Executor heartbeat period (Spark's spark.executor.heartbeatInterval).
  SimTime heartbeat_interval = kSec;

  /// Phi threshold above which an executor is *suspected*: excluded from
  /// new launches and locality waits, its sole-copy blocks re-replicated
  /// — but nothing is torn down, so a recovery is cheap. With the
  /// phi-accrual form phi = log10(e) * elapsed / mean_interval, 1.0
  /// suspects after ~2.3 heartbeat intervals of silence.
  double suspect_phi = 1.0;

  /// Phi threshold above which a suspect is declared dead and recovered
  /// exactly like a crash. 8.0 ~= 18.4 intervals of silence.
  double dead_phi = 8.0;

  // -- executor blacklisting ---------------------------------------------

  /// Task-attempt failures on one executor before it is blacklisted
  /// (excluded from launches) for `blacklist_probation`. 0 = off.
  std::int32_t blacklist_threshold = 0;

  /// How long a blacklisted executor sits out; afterwards it re-enters
  /// with a clean failure count (timed probation).
  SimTime blacklist_probation = 60 * kSec;

  /// True when the gray layer (heartbeats, suspicion, partitions,
  /// degrades) is live — i.e. heartbeat events will be scheduled.
  [[nodiscard]] bool gray_active() const {
    return !partitions.empty() || !degrades.empty() || heartbeats;
  }
};

}  // namespace dagon
