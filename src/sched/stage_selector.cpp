#include "sched/stage_selector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dag/dag_analysis.hpp"

namespace dagon {

std::vector<StageId> FifoSelector::order(const JobState& state) const {
  return state.schedulable_stages();  // already in ascending id order
}

std::vector<StageId> FairSelector::order(const JobState& state) const {
  std::vector<StageId> stages = state.schedulable_stages();
  // Least currently-allocated vCPUs first: every runnable stage gets a
  // fair share of the executors (Spark Fair pools, one stage per pool).
  auto allocated = [&](StageId s) {
    return static_cast<std::int64_t>(state.stage(s).running) *
           state.dag().stage(s).task_cpus;
  };
  std::stable_sort(stages.begin(), stages.end(),
                   [&](StageId a, StageId b) {
                     const auto ra = allocated(a);
                     const auto rb = allocated(b);
                     if (ra != rb) return ra < rb;
                     return a < b;
                   });
  return stages;
}

CriticalPathSelector::CriticalPathSelector(const JobDag& dag)
    : cp_(critical_path_lengths(dag)) {}

std::vector<StageId> CriticalPathSelector::order(
    const JobState& state) const {
  std::vector<StageId> stages = state.schedulable_stages();
  std::stable_sort(stages.begin(), stages.end(),
                   [&](StageId a, StageId b) {
                     const SimTime ca = cp_[static_cast<std::size_t>(a.value())];
                     const SimTime cb = cp_[static_cast<std::size_t>(b.value())];
                     if (ca != cb) return ca > cb;
                     return a < b;
                   });
  return stages;
}

GrapheneSelector::GrapheneSelector(const JobDag& dag,
                                   const JobProfile& profile,
                                   Cpus executor_cores,
                                   double duration_quantile,
                                   double demand_fraction) {
  DAGON_CHECK(executor_cores > Cpus{0});
  SampleSet durations;
  for (const Stage& s : dag.stages()) {
    durations.add(static_cast<double>(profile.stage(s.id).task_duration.count()));
  }
  const double cutoff = durations.quantile(duration_quantile);
  troublesome_.resize(dag.num_stages());
  score_.resize(dag.num_stages());
  for (const Stage& s : dag.stages()) {
    const StageEstimate& est = profile.stage(s.id);
    const bool long_running =
        static_cast<double>(est.task_duration.count()) >= cutoff;
    const bool hard_to_pack =
        static_cast<double>(est.task_cpus.count()) >=
        demand_fraction * static_cast<double>(executor_cores.count());
    const auto idx = static_cast<std::size_t>(s.id.value());
    troublesome_[idx] = long_running || hard_to_pack;
    score_[idx] = static_cast<double>(est.task_duration.count()) *
                  static_cast<double>(est.task_cpus.count());
  }
}

std::vector<StageId> GrapheneSelector::order(const JobState& state) const {
  std::vector<StageId> stages = state.schedulable_stages();
  std::stable_sort(
      stages.begin(), stages.end(), [&](StageId a, StageId b) {
        const bool ta = troublesome(a);
        const bool tb = troublesome(b);
        if (ta != tb) return ta;  // troublesome first
        if (ta) {
          // Among troublesome: biggest resource-time footprint first.
          const double sa = score_[static_cast<std::size_t>(a.value())];
          const double sb = score_[static_cast<std::size_t>(b.value())];
          if (sa != sb) return sa > sb;
        }
        return a < b;  // remaining stages in submission order
      });
  return stages;
}

std::vector<StageId> DagonSelector::order(const JobState& state) const {
  std::vector<StageId> stages = state.schedulable_stages();
  const PriorityValues& pv = state.priority_values();
  // Algorithm 1 line 5: descending pv_i; ties to the earlier stage
  // (reproduces Table III step 2 where pv1 == pv2 == 52 picks stage 1).
  std::stable_sort(stages.begin(), stages.end(),
                   [&](StageId a, StageId b) {
                     const CpuWork pa = pv.value(a);
                     const CpuWork pb = pv.value(b);
                     if (pa != pb) return pa > pb;
                     return a < b;
                   });
  return stages;
}

std::unique_ptr<StageSelector> make_stage_selector(SchedulerKind kind,
                                                   const JobDag& dag,
                                                   const JobProfile& profile,
                                                   Cpus executor_cores) {
  switch (kind) {
    case SchedulerKind::Fifo: return std::make_unique<FifoSelector>();
    case SchedulerKind::Fair: return std::make_unique<FairSelector>();
    case SchedulerKind::CriticalPath:
      return std::make_unique<CriticalPathSelector>(dag);
    case SchedulerKind::Graphene:
      return std::make_unique<GrapheneSelector>(dag, profile,
                                                executor_cores);
    case SchedulerKind::Dagon: return std::make_unique<DagonSelector>();
  }
  throw ConfigError("unknown scheduler kind");
}

}  // namespace dagon
