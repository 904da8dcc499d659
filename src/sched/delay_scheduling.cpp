#include "sched/delay_scheduling.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/error.hpp"
#include "common/log.hpp"

namespace dagon {

namespace {

/// Position of `l` in `levels`; levels.size()-1 (worst) if absent.
std::size_t level_index(std::span<const Locality> levels, Locality l) {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] == l) return i;
  }
  return levels.empty() ? 0 : levels.size() - 1;
}

/// The levels at least as good as `allowed`.
LocalitySet at_least_set(Locality allowed) {
  LocalitySet accept;
  for (const Locality l : kAllLocalities) {
    if (at_least(l, allowed)) accept.insert(l);
  }
  return accept;
}

#ifndef NDEBUG
std::ostream& operator<<(std::ostream& os, const std::optional<TaskPick>& p) {
  return p ? os << *p : os << "no task";
}

std::ostream& operator<<(std::ostream& os,
                         const std::optional<Assignment>& a) {
  if (!a) return os << "no launch";
  return os << "task " << a->task_index << " @" << locality_name(a->locality)
            << " on exec " << a->exec;
}
#endif

}  // namespace

std::optional<Assignment> DelayPolicy::find(JobState& state,
                                            const BlockManagerMaster& master,
                                            StageId s, SimTime now) const {
  const StageRuntime& rt = state.stage(s);
  const Refusal key{now, master.journal_end(), state.capacity_epoch(),
                    rt.epoch, rt.running};
  if (refusals_.empty()) refusals_.resize(state.dag().num_stages());
  Refusal& last = refusals_[static_cast<std::size_t>(s.value())];
  if (last == key) {
#ifndef NDEBUG
    DAGON_CHECK_MSG(!scan(state, master, s, now),
                    "refusal record of stage "
                        << s << " skipped a launch at "
                        << format_duration(now));
#endif
    return std::nullopt;
  }
  auto chosen = scan(state, master, s, now);
  if (!chosen) last = key;
  return chosen;
}

Locality DelayPolicy::allowed_locality(JobState& state,
                                       const BlockManagerMaster& master,
                                       StageId s, SimTime now) const {
  StageRuntime& rt = state.stage(s);
  const std::span<const Locality> levels = index_.levels(state, master, s);
#ifndef NDEBUG
  const std::vector<Locality> want =
      valid_locality_levels(state.dag(), master, state.topology(), rt);
  DAGON_CHECK_MSG(std::equal(levels.begin(), levels.end(), want.begin(),
                             want.end()),
                  "pending-task index of stage "
                      << s << " gives a " << levels.size()
                      << "-rung ladder, the scan " << want.size());
#endif
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
  const std::span<const Locality> levels = index_.levels(state, master, s);
  rt.locality_index = level_index(levels, l);
  rt.locality_timer = now;
}

std::optional<Assignment> DelayPolicy::best_task_on(
    const JobState& state, const BlockManagerMaster& master, StageId s,
    const ExecutorRuntime& exec, Cpus demand) const {
  if (exec.free_cores() < demand) return std::nullopt;
  const std::optional<TaskPick> pick = index_.best(state, master, s, exec.id);
#ifndef NDEBUG
  const std::optional<TaskPick> want = best_task_by_scan(
      state.dag(), master, state.topology(), state.stage(s), exec.id);
  DAGON_CHECK_MSG(pick == want, "pending-task index of stage "
                                    << s << " gives exec " << exec.id << " "
                                    << pick << ", the scan " << want);
#endif
  if (!pick) return std::nullopt;
  return Assignment{pick->task_index, exec.id, pick->locality};
}

template <typename Refused>
std::optional<Assignment> DelayPolicy::first_accepted(
    const JobState& state, const BlockManagerMaster& master, StageId s,
    SimTime now, LocalitySet accept, Refused&& refused) const {
  const Cpus demand = state.dag().stage(s).task_cpus;
  const auto walk = [&](Cpus fit, std::span<const std::uint64_t> mask,
                        auto&& on_refuse) {
    std::optional<Assignment> chosen;
    state.for_each_free_executor(fit, mask, [&](ExecutorId id) {
      // Suspect/blacklisted executors take no new work; they also grant
      // no Process preference (task_locality filters their memory
      // copies), so the locality ladder never waits for them.
      const ExecutorRuntime& exec = state.executor(id);
      if (!exec.schedulable(now)) return false;
      const auto best = best_task_on(state, master, s, exec, demand);
      if (!best) return false;
      if (accept.contains(best->locality)) {
        chosen = best;
        return true;
      }
      // Otherwise this executor stays idle for this stage — the core
      // pathology the paper's Fig. 4 illustrates.
      on_refuse(*best);
      return false;
    });
    return chosen;
  };
  // An executor without `demand` free cores fails best_task_on, and one
  // outside the mask answers only levels outside `accept` (DESIGN.md
  // §11), so skipping either cannot change the first accepted executor.
  const std::optional<Assignment> chosen =
      walk(demand, index_.candidates(state, master, s, accept), refused);
#ifndef NDEBUG
  const std::optional<Assignment> want =
      walk(Cpus{1}, {}, [](const Assignment&) {});
  DAGON_CHECK_MSG(chosen == want, "candidate walk of stage "
                                      << s << " at " << format_duration(now)
                                      << " gives " << chosen
                                      << ", the full walk " << want);
#endif
  return chosen;
}

std::optional<Assignment> NativeDelayPolicy::scan(
    JobState& state, const BlockManagerMaster& master, StageId s,
    SimTime now) const {
  const Locality allowed = allowed_locality(state, master, s, now);
  return first_accepted(state, master, s, now, at_least_set(allowed),
                        [](const Assignment&) {});
}

std::optional<Assignment> SensitivityAwareDelayPolicy::scan(
    JobState& state, const BlockManagerMaster& master, StageId s,
    SimTime now) const {
  const Locality allowed = allowed_locality(state, master, s, now);
  LocalitySet accept = at_least_set(allowed);
  // A pure-shuffle stage's tasks are all NoPref, which every rung of its
  // ladder accepts.
  if (!state.stage(s).has_narrow) {
    return first_accepted(state, master, s, now, accept,
                          [](const Assignment&) {});
  }
  const TaskTimeEstimator estimator(state, *cost_);
  // Algorithm 2: accept a lower-locality task when it finishes within
  // the stage's earliest completion time (Eq. 7, with slack).
  const SimTime ect = scale_time(estimator.earliest_completion(s), ect_slack_);
  // The estimate depends only on the stage and the level, and nothing
  // in this call changes either: ask once per level below `allowed`.
  std::array<SimTime, 5> est_by_level{};
  for (const Locality l : kAllLocalities) {
    if (at_least(l, allowed)) continue;
    const SimTime est = estimator.estimate(s, l);
    est_by_level[static_cast<std::size_t>(l)] = est;
    if (est < ect) accept.insert(l);
  }
  const auto chosen = first_accepted(
      state, master, s, now, accept, [&](const Assignment& a) {
        DAGON_TRACE("algorithm2 refuses stage "
                    << s << " @" << locality_name(a.locality) << " on exec "
                    << a.exec << " (est "
                    << format_duration(
                           est_by_level[static_cast<std::size_t>(a.locality)])
                    << " >= ect " << format_duration(ect) << ")");
        // Locality-sensitive stage: skip this executor, try the next one
        // (Algorithm 2 line 9).
      });
  if (chosen && !at_least(chosen->locality, allowed)) {
    DAGON_TRACE("algorithm2 accepts stage "
                << s << " task " << chosen->task_index << " @"
                << locality_name(chosen->locality) << " on exec "
                << chosen->exec << " (est "
                << format_duration(
                       est_by_level[static_cast<std::size_t>(chosen->locality)])
                << " < ect " << format_duration(ect) << ")");
  }
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
