// Delay scheduling: native (Zaharia et al., EuroSys'10 — Spark's
// TaskSetManager) and the paper's sensitivity-aware variant (Alg. 2).
//
// Both answer one question for Algorithm 1's inner call: given a stage,
// is there a (task, executor, locality) launch we should do right now?
#pragma once

#include <memory>
#include <optional>

#include "cache/block_manager_master.hpp"
#include "sched/estimator.hpp"
#include "sched/job_state.hpp"
#include "sched/task_locality.hpp"

namespace dagon {

enum class DelayKind { Native, SensitivityAware };

[[nodiscard]] constexpr const char* delay_kind_name(DelayKind k) {
  return k == DelayKind::Native ? "delay" : "sensitivity-aware";
}

struct Assignment {
  std::int32_t task_index = -1;
  ExecutorId exec = ExecutorId::invalid();
  Locality locality = Locality::Any;
};

class DelayPolicy {
 public:
  DelayPolicy(const LocalityWaits& waits, const CostModel& cost)
      : waits_(waits), cost_(&cost) {}
  virtual ~DelayPolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// One launchable (task, executor) for stage `s`, or nullopt. Does not
  /// mutate task queues; the driver calls JobState::mark_launched and
  /// then this policy's on_launch.
  /// Mutates only the stage's delay-ladder bookkeeping (index/timer),
  /// exactly as Spark's getAllowedLocalityLevel does.
  [[nodiscard]] virtual std::optional<Assignment> find(
      JobState& state, const BlockManagerMaster& master, StageId s,
      SimTime now) const = 0;

  /// Resets the stage's wait timer after a successful launch at `l`
  /// (Spark: currentLocalityIndex := index of the launched level).
  void on_launch(JobState& state, const BlockManagerMaster& master,
                 StageId s, Locality l, SimTime now) const;

  [[nodiscard]] const LocalityWaits& waits() const { return waits_; }

 protected:
  /// Spark's getAllowedLocalityLevel: walks the wait ladder based on the
  /// time since the last launch at the current level.
  [[nodiscard]] Locality allowed_locality(JobState& state,
                                          const BlockManagerMaster& master,
                                          StageId s, SimTime now) const;

  /// Best-locality pending task of `s` on `exec`, or nullopt when the
  /// executor cannot fit the stage's demand.
  [[nodiscard]] std::optional<Assignment> best_task_on(
      const JobState& state, const BlockManagerMaster& master, StageId s,
      ExecutorId exec) const;

  LocalityWaits waits_;
  const CostModel* cost_;
  /// Pure memo of placement-derived answers (see LocalityCache); safe to
  /// mutate from const find() — it never changes observable results.
  mutable LocalityCache cache_;
};

/// Spark's stock delay scheduling: launch only at the allowed level or
/// better; otherwise leave the executor idle and wait.
class NativeDelayPolicy final : public DelayPolicy {
 public:
  using DelayPolicy::DelayPolicy;
  [[nodiscard]] const char* name() const override { return "delay"; }
  [[nodiscard]] std::optional<Assignment> find(
      JobState& state, const BlockManagerMaster& master, StageId s,
      SimTime now) const override;
};

/// The paper's Algorithm 2: additionally admits a lower-locality task
/// when its estimated duration would not push the stage past its
/// earliest completion time (Eq. 7) — so locality-insensitive stages
/// never leave executors idle.
class SensitivityAwareDelayPolicy final : public DelayPolicy {
 public:
  /// `ect_slack` loosens Eq. (7)'s acceptance test (est < slack * ect):
  /// a low-locality task within 10% of the stage's earliest completion
  /// time cannot meaningfully delay it, and refusing it would idle the
  /// executor for the whole stage.
  SensitivityAwareDelayPolicy(const LocalityWaits& waits,
                              const CostModel& cost, double ect_slack = 1.1)
      : DelayPolicy(waits, cost), ect_slack_(ect_slack) {}
  [[nodiscard]] const char* name() const override {
    return "sensitivity-aware";
  }
  [[nodiscard]] std::optional<Assignment> find(
      JobState& state, const BlockManagerMaster& master, StageId s,
      SimTime now) const override;

 private:
  double ect_slack_;
};

[[nodiscard]] std::unique_ptr<DelayPolicy> make_delay_policy(
    DelayKind kind, const LocalityWaits& waits, const CostModel& cost,
    double ect_slack = 1.1);

}  // namespace dagon
