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
  friend bool operator==(const Assignment&, const Assignment&) = default;
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
  ///
  /// A refusal is recorded per stage and repeated without a scan while
  /// all it read is unchanged: the same `now`, placement journal end,
  /// capacity epoch, stage epoch and `running` (DESIGN.md §11 argues why
  /// nothing else can turn it into a launch). Without NDEBUG a repeated
  /// refusal still scans, and throws InvariantError if it would launch.
  [[nodiscard]] std::optional<Assignment> find(JobState& state,
                                               const BlockManagerMaster& master,
                                               StageId s, SimTime now) const;

  /// Resets the stage's wait timer after a successful launch at `l`
  /// (Spark: currentLocalityIndex := index of the launched level).
  void on_launch(JobState& state, const BlockManagerMaster& master,
                 StageId s, Locality l, SimTime now) const;

  [[nodiscard]] const LocalityWaits& waits() const { return waits_; }

 protected:
  /// The policy's own decision: find() without the refusal record.
  [[nodiscard]] virtual std::optional<Assignment> scan(
      JobState& state, const BlockManagerMaster& master, StageId s,
      SimTime now) const = 0;

  /// Spark's getAllowedLocalityLevel: walks the wait ladder based on the
  /// time since the last launch at the current level.
  [[nodiscard]] Locality allowed_locality(JobState& state,
                                          const BlockManagerMaster& master,
                                          StageId s, SimTime now) const;

  /// Best-locality pending task of `s` on `exec`, or nullopt when the
  /// executor cannot fit `demand` (the stage's task_cpus). Without NDEBUG
  /// it also walks the pending tasks (best_task_by_scan) and throws
  /// InvariantError if the index disagrees.
  [[nodiscard]] std::optional<Assignment> best_task_on(
      const JobState& state, const BlockManagerMaster& master, StageId s,
      const ExecutorRuntime& exec, Cpus demand) const;

  /// The walk both policies share: the first schedulable free executor,
  /// in rotation order, whose best task of `s` (best_task_on) is at a
  /// level in `accept`, and that task. It visits only the executors that
  /// fit the stage's task_cpus and lie in the index's candidate mask for
  /// `accept`, which holds every executor that can be accepted, so it
  /// meets the same executor as a walk over every free one. Without
  /// NDEBUG it also takes that full walk and throws InvariantError if the
  /// answers differ. `refused(a)` hears each visited executor whose best
  /// task `a` is at a level outside `accept`.
  template <typename Refused>
  [[nodiscard]] std::optional<Assignment> first_accepted(
      const JobState& state, const BlockManagerMaster& master, StageId s,
      SimTime now, LocalitySet accept, Refused&& refused) const;

  LocalityWaits waits_;
  const CostModel* cost_;
  /// Placement-derived answers (see PendingTaskIndex); safe to mutate
  /// from const find() — it never changes observable results.
  mutable PendingTaskIndex index_;

 private:
  /// What a refusal read (see find); one per stage, `now` = -1 until the
  /// stage is first refused.
  struct Refusal {
    SimTime now{-1};
    std::uint64_t journal_end = 0;
    std::uint64_t capacity_epoch = 0;
    std::uint64_t stage_epoch = 0;
    std::int32_t running = 0;
    bool operator==(const Refusal&) const = default;
  };
  /// Indexed by stage id; like index_, never changes results.
  mutable std::vector<Refusal> refusals_;
};

/// Spark's stock delay scheduling: launch only at the allowed level or
/// better; otherwise leave the executor idle and wait.
class NativeDelayPolicy final : public DelayPolicy {
 public:
  using DelayPolicy::DelayPolicy;
  [[nodiscard]] const char* name() const override { return "delay"; }

 protected:
  [[nodiscard]] std::optional<Assignment> scan(
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

 protected:
  [[nodiscard]] std::optional<Assignment> scan(
      JobState& state, const BlockManagerMaster& master, StageId s,
      SimTime now) const override;

 private:
  double ect_slack_;
};

[[nodiscard]] std::unique_ptr<DelayPolicy> make_delay_policy(
    DelayKind kind, const LocalityWaits& waits, const CostModel& cost,
    double ect_slack = 1.1);

}  // namespace dagon
