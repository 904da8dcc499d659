#include "cache/ref_oracle.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dag/priority_values.hpp"

namespace dagon {

ReferenceOracle::ReferenceOracle(const JobDag& dag) : dag_(&dag) {
  finished_.assign(dag.num_stages(), false);
  active_.assign(dag.num_stages(), 1);
  pv_ = PriorityValues(dag).values();
  refs_.resize(static_cast<std::size_t>(dag.num_blocks()));
  shuffle_first_.reserve(dag.num_stages() + 1);
  // Stages are visited in ascending id order, so every block's list is
  // born sorted by stage. JobDagBuilder allows one edge per (stage,
  // parent), so each (block, stage) pair gets one record.
  for (const Stage& s : dag.stages()) {
    shuffle_first_.push_back(
        static_cast<std::int32_t>(shuffle_remaining_.size()));
    for (const RddRef& ref : s.inputs) {
      const Rdd& parent = dag.rdd(ref.rdd);
      if (ref.kind == DepKind::Narrow) {
        // Block k is read by exactly task k.
        for (std::int32_t t = 0; t < s.num_tasks; ++t) {
          refs_of(BlockId{ref.rdd, t}).push_back(Ref{s.id, 1});
        }
      } else {
        // Every task pulls a slice of every parent block: the blocks'
        // counts move together, so they share one counter.
        const auto counter =
            static_cast<std::int32_t>(shuffle_remaining_.size());
        shuffle_remaining_.push_back(s.num_tasks);
        for (std::int32_t p = 0; p < parent.num_partitions; ++p) {
          refs_of(BlockId{ref.rdd, p}).push_back(Ref{s.id, ~counter});
        }
      }
    }
  }
  shuffle_first_.push_back(
      static_cast<std::int32_t>(shuffle_remaining_.size()));
}

template <class Fn>
void ReferenceOracle::for_each_task_count(StageId stage, std::int32_t task,
                                          Fn&& fn) {
  const Stage& s = dag_->stage(stage);
  DAGON_CHECK_MSG(task >= 0 && task < s.num_tasks,
                  "task " << task << " out of range for stage " << stage);
  auto counter = static_cast<std::size_t>(
      shuffle_first_[static_cast<std::size_t>(stage.value())]);
  for (const RddRef& ref : s.inputs) {
    const bool shuffle = ref.kind == DepKind::Shuffle;
    std::int32_t* shared = shuffle ? &shuffle_remaining_[counter++] : nullptr;
    if (dag_->rdd(ref.rdd).bytes_per_partition <= Bytes{0}) continue;
    if (shuffle) {
      fn(*shared);
      continue;
    }
    for (Ref& r : refs_of(BlockId{ref.rdd, task})) {
      if (r.stage == stage) {
        fn(r.count);
        break;
      }
    }
  }
}

void ReferenceOracle::on_task_launched(StageId stage, std::int32_t task) {
  ++epoch_;
  for_each_task_count(stage, task, [](std::int32_t& count) {
    if (count > 0) --count;
  });
}

void ReferenceOracle::mark_stage_finished(StageId stage) {
  DAGON_CHECK(stage.valid() &&
              static_cast<std::size_t>(stage.value()) < finished_.size());
  ++epoch_;
  finished_[static_cast<std::size_t>(stage.value())] = true;
}

void ReferenceOracle::restore_task_refs(StageId stage, std::int32_t task) {
  DAGON_CHECK(stage.valid() &&
              static_cast<std::size_t>(stage.value()) < finished_.size());
  ++epoch_;
  finished_[static_cast<std::size_t>(stage.value())] = false;
  for_each_task_count(stage, task,
                      [](std::int32_t& count) { ++count; });
}

void ReferenceOracle::set_priority_values(const std::vector<CpuWork>& pv) {
  DAGON_CHECK(pv.size() == pv_.size());
  ++epoch_;
  std::copy(pv.begin(), pv.end(), pv_.begin());
}

void ReferenceOracle::set_current_stage(StageId stage) {
  DAGON_CHECK(stage.valid());
  ++epoch_;
  current_stage_ord_ = stage.value();
}

void ReferenceOracle::set_stage_active(StageId stage, bool stage_on) {
  DAGON_CHECK(stage.valid() &&
              static_cast<std::size_t>(stage.value()) < active_.size());
  auto& slot = active_[static_cast<std::size_t>(stage.value())];
  const char next = stage_on ? 1 : 0;
  if (slot == next) return;
  ++epoch_;
  slot = next;
}

void ReferenceOracle::enable_peer_tracking() {
  if (peer_tracking_) return;
  peer_tracking_ = true;
  in_memory_.assign(static_cast<std::size_t>(dag_->num_blocks()), 0);
  // A task's peer group = partition p of every cacheable parent it
  // reads through a narrow dep (a non-cacheable block can never be
  // memory-resident, so including it would make all-or-nothing
  // unsatisfiable forever; a shuffle read touches every parent block,
  // so it carries no per-task group).
  narrow_readers_.assign(dag_->rdds().size(), {});
  task_group_offset_.assign(static_cast<std::size_t>(dag_->num_stages()) + 1,
                            0);
  for (const Stage& s : dag_->stages()) {
    const auto i = static_cast<std::size_t>(s.id.value());
    task_group_offset_[i + 1] = task_group_offset_[i] + s.num_tasks;
  }
  task_missing_.assign(static_cast<std::size_t>(task_group_offset_.back()),
                       0);
  for (const Stage& s : dag_->stages()) {
    for (const RddRef& ref : s.inputs) {
      if (ref.kind != DepKind::Narrow) continue;
      if (!dag_->rdd(ref.rdd).cacheable) continue;
      narrow_readers_[static_cast<std::size_t>(ref.rdd.value())].push_back(
          s.id);
      for (std::int32_t t = 0; t < s.num_tasks; ++t) {
        ++task_missing_[group_ord(s.id, t)];
      }
    }
  }
}

void ReferenceOracle::set_memory_resident(const BlockId& block,
                                          bool resident) {
  if (!peer_tracking_) return;
  if (!dag_->rdd(block.rdd).cacheable) return;
  const auto o = static_cast<std::size_t>(dag_->block_ord(block));
  const char next = resident ? 1 : 0;
  if (in_memory_[o] == next) return;
  ++epoch_;
  in_memory_[o] = next;
  const std::int32_t delta = resident ? -1 : 1;
  for (const StageId s :
       narrow_readers_[static_cast<std::size_t>(block.rdd.value())]) {
    auto& missing = task_missing_[group_ord(s, block.partition)];
    missing += delta;
    DAGON_CHECK(missing >= 0);
  }
}

int ReferenceOracle::effective_ref_count(const BlockId& block) const {
  DAGON_CHECK_MSG(peer_tracking_,
                  "effective_ref_count needs enable_peer_tracking()");
  const auto o = static_cast<std::size_t>(dag_->block_ord(block));
  if (!dag_->rdd(block.rdd).cacheable) return 0;
  // If `block` itself is absent it still contributes one "missing" slot
  // to each of its groups; the question LERC asks is whether caching it
  // would *complete* the group.
  const std::int32_t self_missing = in_memory_[o] == 0 ? 1 : 0;
  const auto& readers =
      narrow_readers_[static_cast<std::size_t>(block.rdd.value())];
  int count = 0;
  for (const Ref& r : refs_[o]) {
    if (!live(r)) continue;
    if (std::find(readers.begin(), readers.end(), r.stage) ==
        readers.end()) {
      continue;  // shuffle-only reader: no per-task peer group
    }
    if (task_missing_[group_ord(r.stage, block.partition)] - self_missing ==
        0) {
      ++count;
    }
  }
  return count;
}

int ReferenceOracle::remaining_ref_count(const BlockId& block) const {
  int count = 0;
  for (const Ref& r : refs_of(block)) {
    if (live(r)) ++count;
  }
  return count;
}

int ReferenceOracle::stage_distance(const BlockId& block) const {
  int best = kNeverUsed;
  for (const Ref& r : refs_of(block)) {
    if (!live(r)) continue;
    // MRD measures distance in stage-id (FIFO) order; a stage at or
    // before the current one is about to run: distance 0.
    const int d = std::max(0, r.stage.value() - current_stage_ord_);
    best = std::min(best, d);
  }
  return best;
}

CpuWork ReferenceOracle::reference_priority(const BlockId& block) const {
  CpuWork best{};
  for (const Ref& r : refs_of(block)) {
    if (!live(r)) continue;
    best = std::max(best, pv_[static_cast<std::size_t>(r.stage.value())]);
  }
  return best;
}

std::vector<StageId> ReferenceOracle::live_readers(
    const BlockId& block) const {
  std::vector<StageId> out;
  for (const Ref& r : refs_of(block)) {
    if (live(r)) out.push_back(r.stage);
  }
  return out;
}

bool ReferenceOracle::stage_finished(StageId stage) const {
  DAGON_CHECK(stage.valid() &&
              static_cast<std::size_t>(stage.value()) < finished_.size());
  return finished_[static_cast<std::size_t>(stage.value())];
}

CpuWork ReferenceOracle::priority_value(StageId stage) const {
  DAGON_CHECK(stage.valid() &&
              static_cast<std::size_t>(stage.value()) < pv_.size());
  return pv_[static_cast<std::size_t>(stage.value())];
}

}  // namespace dagon
