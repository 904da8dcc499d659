#include "sched/job_state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dagon {

JobState::JobState(const JobDag& dag, const Topology& topo,
                   const JobProfile& profile)
    : dag_(&dag), topo_(&topo), profile_(&profile), pv_(dag, profile) {
  stages_.reserve(dag.num_stages());
  for (const Stage& s : dag.stages()) {
    StageRuntime rt;
    rt.id = s.id;
    rt.num_tasks = s.num_tasks;
    rt.pending.assign_all(s.num_tasks);
    for (const RddRef& ref : s.inputs) {
      if (ref.kind == DepKind::Narrow) {
        rt.has_narrow = true;
        break;
      }
    }
    rt.task_status.assign(static_cast<std::size_t>(s.num_tasks),
                          TaskStatus::Pending);
    rt.ready = s.parents.empty();
    rt.ready_time = rt.ready ? SimTime{0} : SimTime{-1};
    stages_.push_back(std::move(rt));
  }
  executors_.reserve(topo.num_executors());
  for (const Executor& e : topo.executors()) {
    ExecutorRuntime rt;
    rt.id = e.id;
    rt.free_cores_ = e.cores;
    executors_.push_back(rt);
  }
  Cpus max_demand{1};
  for (const Stage& s : dag.stages()) {
    max_demand = std::max(max_demand, s.task_cpus);
  }
  Cpus max_cores{1};
  for (const Executor& e : topo.executors()) {
    max_cores = std::max(max_cores, e.cores);
  }
  fit_levels_ = std::min(max_demand, max_cores).count();
  words_ = (executors_.size() + 63) / 64;
  fit_.assign(static_cast<std::size_t>(fit_levels_) * words_, 0);
  for (const ExecutorRuntime& e : executors_) {
    const auto idx = static_cast<std::size_t>(e.id.value());
    const std::int32_t fits = std::min(e.free_cores_.count(), fit_levels_);
    for (std::int32_t d = 0; d < fits; ++d) {
      fit_[static_cast<std::size_t>(d) * words_ + (idx >> 6)] |=
          std::uint64_t{1} << (idx & 63);
    }
    if (fits > 0) ++num_free_;
  }
}

StageRuntime& JobState::stage(StageId id) {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < stages_.size());
  return stages_[static_cast<std::size_t>(id.value())];
}

const StageRuntime& JobState::stage(StageId id) const {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < stages_.size());
  return stages_[static_cast<std::size_t>(id.value())];
}

ExecutorRuntime& JobState::executor(ExecutorId id) {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < executors_.size());
  return executors_[static_cast<std::size_t>(id.value())];
}

const ExecutorRuntime& JobState::executor(ExecutorId id) const {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < executors_.size());
  return executors_[static_cast<std::size_t>(id.value())];
}

std::vector<StageId> JobState::schedulable_stages() const {
  std::vector<StageId> out;
  for (const StageRuntime& s : stages_) {
    if (s.ready && !s.finished && s.has_pending()) out.push_back(s.id);
  }
  return out;
}

bool JobState::all_finished() const {
  return std::all_of(stages_.begin(), stages_.end(),
                     [](const StageRuntime& s) { return s.finished; });
}

void JobState::set_free_cores(ExecutorId exec, Cpus cores) {
  DAGON_CHECK(cores >= Cpus{0});
  ExecutorRuntime& e = executor(exec);
  const std::int32_t was = std::min(e.free_cores_.count(), fit_levels_);
  const std::int32_t is = std::min(cores.count(), fit_levels_);
  if (cores > e.free_cores_) ++capacity_epoch_;
  e.free_cores_ = cores;
  // Flip exec's bit in the levels between the old and the new value.
  const auto idx = static_cast<std::size_t>(exec.value());
  const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
  for (std::int32_t d = std::min(was, is); d < std::max(was, is); ++d) {
    fit_[static_cast<std::size_t>(d) * words_ + (idx >> 6)] ^= bit;
  }
  if ((was == 0) != (is == 0)) num_free_ += is > 0 ? 1 : -1;
#ifndef NDEBUG
  for (std::int32_t d = 1; d <= fit_levels_; ++d) {
    const bool set =
        (fit_[static_cast<std::size_t>(d - 1) * words_ + (idx >> 6)] & bit) != 0;
    DAGON_CHECK_MSG(set == (cores >= Cpus{d}),
                    "fit bitmap " << d << " of executor " << exec
                                  << " disagrees with its " << cores
                                  << " free cores");
  }
#endif
}

void JobState::add_free_cores(ExecutorId exec, Cpus delta) {
  set_free_cores(exec, executor(exec).free_cores_ + delta);
}

void JobState::set_health(ExecutorId exec, ExecutorHealth to,
                          fsm::Violations* violations) {
  ExecutorRuntime& e = executor(exec);
  if (e.health_ == ExecutorHealth::Suspect) ++capacity_epoch_;
  fsm::transition(e.health_, to, exec.value(), violations);
}

void JobState::set_status(StageRuntime& rt, std::int32_t index,
                          TaskStatus to) {
  DAGON_CHECK(index >= 0 && index < rt.num_tasks);
  // Entity id packs (stage, index) so an illegal-edge diagnostic or a
  // counted breach can be traced back to one task.
  const auto entity =
      (static_cast<std::int64_t>(rt.id.value()) << 32) | index;
  fsm::transition(rt.task_status[static_cast<std::size_t>(index)], to,
                  entity, fsm_violations_);
}

void JobState::mark_launched(StageId s, std::int32_t index, ExecutorId exec,
                             SimTime now) {
  StageRuntime& rt = stage(s);
  DAGON_CHECK_MSG(rt.pending.contains(index),
                  "task " << index << " of stage " << s << " not pending");
  set_status(rt, index, TaskStatus::Running);
  rt.pending.erase(index);
  ++rt.running;
  ++rt.epoch;
  if (rt.first_launch < SimTime{0}) rt.first_launch = now;

  pv_.on_launch(s);

  ExecutorRuntime& e = executor(exec);
  const Cpus demand = dag_->stage(s).task_cpus;
  DAGON_CHECK_MSG(e.free_cores_ >= demand,
                  "executor " << exec << " lacks cores for stage " << s);
  set_free_cores(exec, e.free_cores_ - demand);
  ++e.tasks_launched;
  ++total_launched_;
}

bool JobState::mark_finished(StageId s, std::int32_t index, ExecutorId exec,
                             Locality locality, SimTime launch_time,
                             SimTime now) {
  StageRuntime& rt = stage(s);
  DAGON_CHECK(rt.running > 0);
  set_status(rt, index, TaskStatus::Finished);
  --rt.running;
  ++rt.finished_tasks;
  ++rt.epoch;

  const auto li = static_cast<std::size_t>(locality);
  rt.locality_duration_sum[li] += static_cast<double>((now - launch_time).count());
  ++rt.locality_count[li];
  rt.finished_durations.push_back(now - launch_time);

  add_free_cores(exec, dag_->stage(s).task_cpus);
  DAGON_CHECK(executor(exec).free_cores_ <=
              topo_->executor(exec).cores);

  if (rt.finished_tasks == rt.num_tasks) {
    rt.finished = true;
    rt.finish_time = now;
    pv_.on_finish(s);
    return true;
  }
  return false;
}

std::vector<StageId> JobState::refresh_ready(SimTime now) {
  std::vector<StageId> newly_ready;
  for (StageRuntime& rt : stages_) {
    if (rt.ready || rt.finished || rt.gated) continue;
    const Stage& s = dag_->stage(rt.id);
    const bool ok = std::all_of(
        s.parents.begin(), s.parents.end(),
        [&](StageId p) { return stage(p).finished; });
    if (ok) {
      rt.ready = true;
      rt.ready_time = now;
      rt.locality_timer = now;  // delay-scheduling wait starts here
      newly_ready.push_back(rt.id);
    }
  }
  return newly_ready;
}

void JobState::set_stage_gated(StageId s, bool gated) {
  StageRuntime& rt = stage(s);
  if (rt.gated == gated) return;
  rt.gated = gated;
  if (gated) {
    DAGON_CHECK_MSG(rt.running == 0 && rt.finished_tasks == 0,
                    "cannot gate started stage " << s);
    rt.ready = false;
    rt.ready_time = SimTime{-1};
  }
}

void JobState::mark_failed(StageId s, std::int32_t index) {
  StageRuntime& rt = stage(s);
  set_status(rt, index, TaskStatus::Failed);
}

void JobState::readd_pending(StageId s, std::int32_t index) {
  StageRuntime& rt = stage(s);
  DAGON_CHECK(index >= 0 && index < rt.num_tasks);
  set_status(rt, index, TaskStatus::Pending);
  rt.pending.push_back(index);
  ++rt.epoch;
  pv_.on_requeue(s);
}

void JobState::reopen_task(StageId s, std::int32_t index) {
  StageRuntime& rt = stage(s);
  DAGON_CHECK(index >= 0 && index < rt.num_tasks);
  DAGON_CHECK_MSG(rt.finished_tasks > 0,
                  "reopen_task on stage " << s << " with no finished tasks");
  DAGON_CHECK_MSG(!rt.pending.contains(index),
                  "task " << index << " of stage " << s << " already pending");
  set_status(rt, index, TaskStatus::Pending);
  --rt.finished_tasks;
  if (rt.finished) {
    rt.finished = false;
    rt.finish_time = SimTime{-1};
  }
  rt.pending.push_back(index);
  ++rt.epoch;
  pv_.on_requeue(s);
}

std::vector<StageId> JobState::demote_unready() {
  std::vector<StageId> demoted;
  // Walk in reverse topological-ish id order is unnecessary: a fixpoint
  // loop handles chains (child demoted because parent was demoted).
  bool changed = true;
  while (changed) {
    changed = false;
    for (StageRuntime& rt : stages_) {
      if (!rt.ready || rt.finished) continue;
      const Stage& s = dag_->stage(rt.id);
      const bool ok = std::all_of(
          s.parents.begin(), s.parents.end(),
          [&](StageId p) { return stage(p).finished; });
      if (!ok) {
        rt.ready = false;
        demoted.push_back(rt.id);
        changed = true;
      }
    }
  }
  return demoted;
}

std::optional<SimTime> JobState::observed_duration(StageId s,
                                                   Locality l) const {
  const StageRuntime& rt = stage(s);
  const auto li = static_cast<std::size_t>(l);
  if (rt.locality_count[li] == 0) return std::nullopt;
  return time_from_usec(rt.locality_duration_sum[li] /
                        static_cast<double>(rt.locality_count[li]));
}

std::optional<SimTime> JobState::observed_duration(StageId s) const {
  const StageRuntime& rt = stage(s);
  double sum = 0.0;
  std::int64_t count = 0;
  // FP reduction in ascending locality-level order over a fixed-size
  // array — the summation order is deterministic.
  for (std::size_t i = 0; i < rt.locality_count.size(); ++i) {
    sum += rt.locality_duration_sum[i];
    count += rt.locality_count[i];
  }
  if (count == 0) return std::nullopt;
  return time_from_usec(sum / static_cast<double>(count));
}

}  // namespace dagon
