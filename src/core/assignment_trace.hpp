// Resource-only schedule tracer: runs one of the simulator's stage
// selectors (make_stage_selector) over a JobState with a single executor
// that holds the whole pool of vCPUs, with exact task durations and no
// locality or caching. This isolates the paper's Algorithm 1 so that:
//   * Table III's step-by-step (w_i, pv_i, free CPUs) bookkeeping can be
//     printed verbatim, and
//   * Fig. 2's FIFO vs DAG-aware schedule diagrams can be regenerated.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "dag/job_dag.hpp"
#include "sched/stage_selector.hpp"

namespace dagon {

/// One Algorithm 1 assignment (Table III row).
struct AssignmentStep {
  int step = 0;
  SimTime time{};
  StageId chosen;
  /// Remaining workloads w_i and priority values pv_i AFTER the
  /// assignment, indexed by stage.
  std::vector<CpuWork> w_after;
  std::vector<CpuWork> pv_after;
  Cpus free_after{};
};

/// One placed task (for the Fig. 2 schedule diagram).
struct PlacedTask {
  StageId stage;
  std::int32_t index = -1;
  SimTime start{};
  SimTime end{};
  Cpus cpus{};
};

struct AssignmentTrace {
  std::vector<AssignmentStep> steps;
  std::vector<PlacedTask> placements;
  SimTime makespan{};
  /// Integral of (capacity − busy) over [0, makespan): the resource
  /// fragmentation the paper's Fig. 2 narration quantifies (vCPU·time).
  CpuWork idle_cpu_time{};
};

/// Runs `kind` (Fifo / Fair / CriticalPath / Graphene / Dagon) over the
/// DAG on one `capacity`-vCPU executor pool. w_i and pv_i are the
/// JobState's, from the DAG's exact profile.
[[nodiscard]] AssignmentTrace trace_priority_assignment(const JobDag& dag,
                                                        Cpus capacity,
                                                        SchedulerKind kind);

}  // namespace dagon
