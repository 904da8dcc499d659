// Speculative execution, modelled after Spark's TaskSetManager
// speculation plus the paper's §IV tweak: the copy is launched on an
// executor with free resources *close to the input data*.
//
// A task becomes a speculation candidate when (a) at least
// `quantile` of its stage's tasks have finished and (b) it has been
// running longer than `multiplier` × the median finished duration.
#pragma once

#include <vector>

#include "common/sim_time.hpp"
#include "sched/job_state.hpp"

namespace dagon {

struct SpeculationConfig {
  bool enabled = false;
  /// Fraction of the stage that must be finished before speculating
  /// (spark.speculation.quantile).
  double quantile = 0.75;
  /// How much slower than the median a task must be
  /// (spark.speculation.multiplier).
  double multiplier = 1.5;
  /// Hedged mode: the speculative copy is a true hedge — placed on the
  /// fastest available tier (never the straggler's own executor), and
  /// when either attempt finishes the sibling is cancelled through the
  /// `Running → Cancelled` FSM edge with its cores returned immediately
  /// and the wasted core-time accounted in RunMetrics::HedgeStats.
  bool hedge = false;
};

struct SpeculationCandidate {
  StageId stage;
  std::int32_t task_index = -1;
  SimTime running_for{};
  SimTime threshold{};
};

/// Scans running (non-speculative) tasks for stragglers. `running`
/// describes each in-flight task attempt; `impaired[i]` marks attempts
/// running on a suspect or degraded executor. Impaired attempts skip the
/// quantile gate and use a threshold of 1x the median — the attempt's
/// executor is already under suspicion, so a copy is justified as soon
/// as the attempt is merely slower than typical, not only when it is an
/// extreme straggler. `impaired` may be empty (equivalent to all-false).
[[nodiscard]] std::vector<SpeculationCandidate> speculation_candidates(
    const JobState& state, const std::vector<TaskRuntime>& running,
    const std::vector<bool>& impaired, const SpeculationConfig& config,
    SimTime now);

}  // namespace dagon
