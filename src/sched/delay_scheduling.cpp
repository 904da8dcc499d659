#include "sched/delay_scheduling.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace dagon {

namespace {

/// Position of `l` in `levels`; levels.size()-1 (worst) if absent.
std::size_t level_index(const std::vector<Locality>& levels, Locality l) {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] == l) return i;
  }
  return levels.empty() ? 0 : levels.size() - 1;
}

}  // namespace

Locality DelayPolicy::allowed_locality(JobState& state,
                                       const BlockManagerMaster& master,
                                       StageId s, SimTime now) const {
  StageRuntime& rt = state.stage(s);
  const std::vector<Locality> levels =
      cache_.levels(state.dag(), master, state.topology(), rt);
  DAGON_CHECK(!levels.empty());
  // Valid levels can change between calls (cache fills up, tasks drain);
  // clamp the stored ladder position.
  rt.locality_index = std::min(rt.locality_index, levels.size() - 1);
  if (rt.locality_timer < rt.ready_time) rt.locality_timer = rt.ready_time;

  // Spark's TaskSetManager::getAllowedLocalityLevel ladder walk.
  while (rt.locality_index < levels.size() - 1) {
    const SimTime wait = waits_.wait_for(levels[rt.locality_index]);
    if (now - rt.locality_timer < wait) break;
    rt.locality_timer += wait;
    ++rt.locality_index;
  }
  return levels[rt.locality_index];
}

void DelayPolicy::on_launch(JobState& state, const BlockManagerMaster& master,
                            StageId s, Locality l, SimTime now) const {
  StageRuntime& rt = state.stage(s);
  const std::vector<Locality> levels =
      cache_.levels(state.dag(), master, state.topology(), rt);
  if (levels.empty()) return;
  rt.locality_index = std::min(level_index(levels, l), levels.size() - 1);
  rt.locality_timer = now;
}

std::optional<Assignment> DelayPolicy::best_task_on(
    const JobState& state, const BlockManagerMaster& master, StageId s,
    ExecutorId exec) const {
  const Cpus demand = state.dag().stage(s).task_cpus;
  if (state.executor(exec).free_cores() < demand) return std::nullopt;
  const StageRuntime& rt = state.stage(s);
  // Pure-shuffle stage: with no narrow input, task_locality_on answers
  // NoPref for every task, so a full scan would keep the first pending
  // index (no later NoPref beats it). Answer in O(1).
  if (!rt.has_narrow) {
    if (rt.pending.empty()) return std::nullopt;
    return Assignment{rt.pending.front(), exec, Locality::NoPref};
  }
  std::optional<Assignment> best;
  for (const std::int32_t index : rt.pending) {
    const Locality l =
        cache_.locality(state.dag(), master, state.topology(), s, index, exec);
    if (!best || static_cast<int>(l) < static_cast<int>(best->locality)) {
      best = Assignment{index, exec, l};
      if (l == Locality::Process) break;  // cannot do better
    }
  }
  return best;
}

std::optional<Assignment> NativeDelayPolicy::find(
    JobState& state, const BlockManagerMaster& master, StageId s,
    SimTime now) const {
  const Locality allowed = allowed_locality(state, master, s, now);
  std::optional<Assignment> chosen;
  // Rotation-ordered walk over executors that have a free core, straight
  // off JobState's free-slot index. A core-less executor can never fit
  // the stage's demand (task_cpus >= 1 by construction), so skipping it
  // cannot change which launch the historical full scan would find.
  state.for_each_free_executor([&](ExecutorId exec) {
    // Suspect/blacklisted executors take no new work; they also grant no
    // Process preference (task_locality filters their memory copies), so
    // the locality ladder never waits for them.
    if (!state.executor(exec).schedulable(now)) return false;
    const auto best = best_task_on(state, master, s, exec);
    if (best && at_least(best->locality, allowed)) {
      chosen = best;
      return true;
    }
    // Otherwise this executor stays idle for this stage — the core
    // pathology the paper's Fig. 4 illustrates.
    return false;
  });
  return chosen;
}

std::optional<Assignment> SensitivityAwareDelayPolicy::find(
    JobState& state, const BlockManagerMaster& master, StageId s,
    SimTime now) const {
  const Locality allowed = allowed_locality(state, master, s, now);
  const TaskTimeEstimator estimator(state, *cost_);
  // Algorithm 2: accept a lower-locality task when it finishes within
  // the stage's earliest completion time (Eq. 7, with slack).
  const SimTime ect = scale_time(estimator.earliest_completion(s), ect_slack_);
  std::optional<Assignment> chosen;
  state.for_each_free_executor([&](ExecutorId exec) {
    if (!state.executor(exec).schedulable(now)) return false;
    const auto best = best_task_on(state, master, s, exec);
    if (!best) return false;
    if (at_least(best->locality, allowed)) {
      chosen = best;
      return true;
    }
    const SimTime est = estimator.estimate(s, best->locality);
    if (est < ect) {
      DAGON_TRACE("algorithm2 accepts stage "
                  << s << " task " << best->task_index << " @"
                  << locality_name(best->locality) << " on exec " << exec
                  << " (est " << format_duration(est) << " < ect "
                  << format_duration(ect) << ")");
      chosen = best;
      return true;
    }
    DAGON_TRACE("algorithm2 refuses stage "
                << s << " @" << locality_name(best->locality) << " on exec "
                << exec << " (est " << format_duration(est) << " >= ect "
                << format_duration(ect) << ")");
    // Locality-sensitive stage: skip this executor, try the next one
    // (Algorithm 2 line 9).
    return false;
  });
  return chosen;
}

std::unique_ptr<DelayPolicy> make_delay_policy(DelayKind kind,
                                               const LocalityWaits& waits,
                                               const CostModel& cost,
                                               double ect_slack) {
  switch (kind) {
    case DelayKind::Native:
      return std::make_unique<NativeDelayPolicy>(waits, cost);
    case DelayKind::SensitivityAware:
      return std::make_unique<SensitivityAwareDelayPolicy>(waits, cost,
                                                           ect_slack);
  }
  throw ConfigError("unknown delay policy kind");
}

}  // namespace dagon
