// The paper's priority value (Eq. 6, Table III):
//
//   pv_i = w_i + Σ_{j ∈ SuccessorSet_i} w_j
//
// where w_i is stage i's unprocessed workload. Dagon offers executors to
// the highest pv first (Algorithm 1), and LRP keeps the blocks whose
// readers have the highest pv (Fig. 7). A change to w_i moves pv_i and
// the pv of each ancestor of i (JobDag::ancestor_set), and nothing else;
// CpuWork is an integer, so the running sums are exact.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "dag/job_dag.hpp"
#include "dag/profile.hpp"

namespace dagon {

class PriorityValues {
 public:
  /// Ground truth: w_i = Stage::workload(), split evenly over the tasks.
  explicit PriorityValues(const JobDag& dag);

  /// The scheduler's estimate: one task's share is d_i times the
  /// estimated task duration, and w_i is n_i shares. `profile` must
  /// have one entry per stage.
  PriorityValues(const JobDag& dag, const JobProfile& profile);

  [[nodiscard]] CpuWork work(StageId s) const { return work_[index(s)]; }
  [[nodiscard]] CpuWork value(StageId s) const { return pv_[index(s)]; }
  /// w_i and pv_i for every stage, indexed by stage id.
  [[nodiscard]] const std::vector<CpuWork>& workloads() const { return work_; }
  [[nodiscard]] const std::vector<CpuWork>& values() const { return pv_; }

  /// Bumped by every update below, whether or not a value moved.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// A task of `s` was assigned: w_s loses one share, floored at zero.
  void on_launch(StageId s);
  /// A task of `s` is pending again (a retry or a lineage reopen): w_s
  /// regains one share.
  void on_requeue(StageId s);
  /// `s` finished: w_s = 0.
  void on_finish(StageId s);

 private:
  [[nodiscard]] std::size_t index(StageId s) const {
    DAGON_CHECK(s.valid() &&
                static_cast<std::size_t>(s.value()) < pv_.size());
    return static_cast<std::size_t>(s.value());
  }

  /// The one place Eq. (6) is summed: sets w_s and moves pv_s and each
  /// ancestor's pv by the difference.
  void set_work(StageId s, CpuWork w);

  const JobDag* dag_;
  std::vector<CpuWork> work_;
  std::vector<CpuWork> share_;
  std::vector<CpuWork> pv_;
  std::uint64_t epoch_ = 1;
};

}  // namespace dagon
