// Static DAG analyses shared by schedulers and tests: critical-path
// lengths and simple shape statistics. The paper's priority values
// pv_i (Eq. 6) live in dag/priority_values.hpp.
#pragma once

#include <vector>

#include "dag/job_dag.hpp"

namespace dagon {

/// Critical-path length of each stage: the stage's own task duration plus
/// the longest chain of descendant stage durations. Used by the classic
/// critical-path scheduler [Graham'69] that the paper cites as baseline.
[[nodiscard]] std::vector<SimTime> critical_path_lengths(const JobDag& dag);

/// Length of the whole DAG's critical path (max over roots).
[[nodiscard]] SimTime critical_path(const JobDag& dag);

/// Lower bound on makespan given `capacity` total vCPUs: max(critical
/// path, total workload / capacity). Benches report schedules relative
/// to this bound.
[[nodiscard]] SimTime makespan_lower_bound(const JobDag& dag, Cpus capacity);

struct DagShape {
  int depth = 0;
  std::size_t stages = 0;
  std::int64_t tasks = 0;
  CpuWork total_work{};
  SimTime critical_path{};
  /// Work divided by (critical path · max task demand): a rough measure
  /// of how much parallelism the DAG offers.
  double parallelism_ratio = 0.0;
};

[[nodiscard]] DagShape analyze_shape(const JobDag& dag);

}  // namespace dagon
