#include "dag/dag_analysis.hpp"

#include <algorithm>

namespace dagon {

std::vector<SimTime> critical_path_lengths(const JobDag& dag) {
  std::vector<SimTime> cp(dag.num_stages());
  const auto& topo = dag.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const Stage& s = dag.stage(*it);
    SimTime best_child{};
    for (const StageId c : s.children) {
      best_child =
          std::max(best_child, cp[static_cast<std::size_t>(c.value())]);
    }
    // A stage's serial contribution is its longest task.
    SimTime longest_task{};
    for (std::int32_t t = 0; t < s.num_tasks; ++t) {
      longest_task = std::max(longest_task, s.task_compute_time(t));
    }
    cp[static_cast<std::size_t>(s.id.value())] = longest_task + best_child;
  }
  return cp;
}

SimTime critical_path(const JobDag& dag) {
  const auto cp = critical_path_lengths(dag);
  SimTime best{};
  for (const SimTime v : cp) best = std::max(best, v);
  return best;
}

SimTime makespan_lower_bound(const JobDag& dag, Cpus capacity) {
  const SimTime cp = critical_path(dag);
  const CpuWork work = dag.total_workload();
  const SimTime packing =
      capacity > Cpus{0} ? work / capacity : kTimeInfinity;
  return std::max(cp, packing);
}

DagShape analyze_shape(const JobDag& dag) {
  DagShape shape;
  shape.depth = dag.depth();
  shape.stages = dag.num_stages();
  shape.tasks = dag.total_tasks();
  shape.total_work = dag.total_workload();
  shape.critical_path = critical_path(dag);
  Cpus max_demand{1};
  for (const Stage& s : dag.stages()) {
    max_demand = std::max(max_demand, s.task_cpus);
  }
  if (shape.critical_path > SimTime{0}) {
    shape.parallelism_ratio =
        static_cast<double>(shape.total_work.count()) /
        (static_cast<double>(shape.critical_path.count()) *
         static_cast<double>(max_demand.count()));
  }
  return shape;
}

}  // namespace dagon
