#include "dag/priority_values.hpp"

#include <algorithm>

namespace dagon {

PriorityValues::PriorityValues(const JobDag& dag)
    : dag_(&dag),
      work_(dag.num_stages()),
      share_(dag.num_stages()),
      pv_(dag.num_stages()) {
  for (const Stage& s : dag.stages()) {
    const CpuWork w = s.workload();
    share_[index(s.id)] = s.num_tasks > 0 ? w / s.num_tasks : CpuWork{0};
    set_work(s.id, w);
  }
}

PriorityValues::PriorityValues(const JobDag& dag, const JobProfile& profile)
    : dag_(&dag),
      work_(dag.num_stages()),
      share_(dag.num_stages()),
      pv_(dag.num_stages()) {
  DAGON_CHECK_MSG(profile.stages.size() == dag.num_stages(),
                  "profile does not match DAG");
  for (const Stage& s : dag.stages()) {
    share_[index(s.id)] = profile.workload(s.id, 1);
    set_work(s.id, profile.workload(s.id, s.num_tasks));
  }
}

void PriorityValues::on_launch(StageId s) {
  const std::size_t i = index(s);
  set_work(s, std::max(CpuWork{0}, work_[i] - share_[i]));
}

void PriorityValues::on_requeue(StageId s) {
  const std::size_t i = index(s);
  set_work(s, work_[i] + share_[i]);
}

void PriorityValues::on_finish(StageId s) { set_work(s, CpuWork{0}); }

void PriorityValues::set_work(StageId s, CpuWork w) {
  const std::size_t i = index(s);
  const CpuWork delta = w - work_[i];
  work_[i] = w;
  pv_[i] += delta;
  for (const StageId a : dag_->ancestor_set(s)) {
    pv_[static_cast<std::size_t>(a.value())] += delta;
  }
  ++epoch_;
}

}  // namespace dagon
