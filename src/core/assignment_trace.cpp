#include "core/assignment_trace.hpp"

#include <memory>
#include <queue>

#include "cluster/topology.hpp"
#include "common/error.hpp"
#include "dag/profile.hpp"
#include "sched/job_state.hpp"

namespace dagon {

AssignmentTrace trace_priority_assignment(const JobDag& dag, Cpus capacity,
                                          SchedulerKind kind) {
  DAGON_CHECK(capacity > Cpus{0});
  for (const Stage& s : dag.stages()) {
    if (s.task_cpus > capacity) {
      throw ConfigError("stage '" + s.name + "' cannot fit the pool");
    }
  }

  // One executor holds the whole pool; the simulator's own JobState and
  // stage selector decide every assignment.
  TopologySpec spec;
  spec.nodes_per_rack = 1;
  spec.cores_per_executor = capacity;
  const Topology topo(spec);
  const JobProfile profile = exact_profile(dag);
  JobState state(dag, topo, profile);
  const std::unique_ptr<StageSelector> selector =
      make_stage_selector(kind, dag, profile, capacity);
  const ExecutorId pool(0);

  struct Finish {
    SimTime time;
    StageId stage;
    std::int32_t task;
    SimTime start;
    bool operator>(const Finish& o) const {
      if (time != o.time) return time > o.time;
      if (stage != o.stage) return stage > o.stage;
      return task > o.task;
    }
  };
  std::priority_queue<Finish, std::vector<Finish>, std::greater<>> finishes;

  AssignmentTrace trace;
  SimTime now{};
  int step = 0;

  const auto try_assign = [&]() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (const StageId sid : selector->order(state)) {
        const Stage& s = dag.stage(sid);
        if (s.task_cpus > state.executor(pool).free_cores()) continue;
        const std::int32_t task = *state.stage(sid).pending.begin();
        state.mark_launched(sid, task, pool, now);
        const SimTime end = now + s.task_compute_time(task);
        finishes.push(Finish{end, sid, task, now});
        trace.placements.push_back(
            PlacedTask{sid, task, now, end, s.task_cpus});

        AssignmentStep rec;
        rec.step = ++step;
        rec.time = now;
        rec.chosen = sid;
        rec.free_after = state.executor(pool).free_cores();
        rec.w_after = state.priority_values().workloads();
        rec.pv_after = state.priority_values().values();
        trace.steps.push_back(std::move(rec));
        progress = true;
        break;
      }
    }
  };

  try_assign();
  while (!finishes.empty()) {
    // Drain every completion at this instant before reassigning, so the
    // free-CPU column matches the paper's Table III (16 free at t=0,
    // 12 free after the two stage-2 tasks complete at t=2, ...).
    now = finishes.top().time;
    while (!finishes.empty() && finishes.top().time == now) {
      const Finish f = finishes.top();
      finishes.pop();
      if (state.mark_finished(f.stage, f.task, pool, Locality::Any, f.start,
                              now)) {
        state.refresh_ready(now);
      }
    }
    try_assign();
  }

  DAGON_CHECK_MSG(state.all_finished(),
                  "tracer finished with incomplete stages");
  trace.makespan = now;

  // Fragmentation: capacity·makespan − total useful work actually run.
  CpuWork busy{};
  for (const PlacedTask& p : trace.placements) {
    busy += p.cpus * (p.end - p.start);
  }
  trace.idle_cpu_time = capacity * trace.makespan - busy;
  return trace;
}

}  // namespace dagon
