#include "sched/speculation.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace dagon {

std::vector<SpeculationCandidate> speculation_candidates(
    const JobState& state, const std::vector<TaskRuntime>& running,
    const std::vector<bool>& impaired, const SpeculationConfig& config,
    SimTime now) {
  std::vector<SpeculationCandidate> out;
  if (!config.enabled) return out;

  // Attempts launch in bursts per stage, so the running ones of a stage
  // mostly sit next to each other: keep the last stage's median.
  StageId median_stage = StageId::invalid();
  SimTime median{};
  for (std::size_t i = 0; i < running.size(); ++i) {
    const TaskRuntime& task = running[i];
    if (task.status != TaskStatus::Running || task.speculative) continue;
    const bool is_impaired = i < impaired.size() && impaired[i];
    const StageRuntime& rt = state.stage(task.stage);
    if (rt.finished_durations.empty()) continue;
    if (!is_impaired) {
      const double done_fraction =
          static_cast<double>(rt.finished_tasks) /
          static_cast<double>(std::max(1, rt.num_tasks));
      if (done_fraction < config.quantile) continue;
    }
    if (task.stage != median_stage) {
      median_stage = task.stage;
      median = median_of(rt.finished_durations);
    }
    const double multiplier = is_impaired ? 1.0 : config.multiplier;
    const SimTime threshold = scale_time(median, multiplier);
    const SimTime elapsed = now - task.launch_time;
    if (elapsed > threshold) {
      out.push_back(SpeculationCandidate{task.stage, task.index, elapsed,
                                         threshold});
    }
  }
  return out;
}

}  // namespace dagon
