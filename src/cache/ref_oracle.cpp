#include "cache/ref_oracle.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "dag/priority_values.hpp"

namespace dagon {

ReferenceOracle::ReferenceOracle(const JobDag& dag,
                                 const std::vector<StageId>& inactive)
    : dag_(&dag) {
  finished_.assign(dag.num_stages(), false);
  active_.assign(dag.num_stages(), 1);
  for (const StageId s : inactive) active_[stage_slot(s)] = 0;
  pv_ = PriorityValues(dag).values();
  refs_.resize(static_cast<std::size_t>(dag.num_blocks()));
  live_count_.assign(static_cast<std::size_t>(dag.num_blocks()), 0);
  shuffle_first_.reserve(dag.num_stages() + 1);
  // Stages are visited in ascending id order, so every block's list is
  // born sorted by stage. JobDagBuilder allows one edge per (stage,
  // parent), so each (block, stage) pair gets one record. A record is
  // born live when its stage is active and has a task to launch.
  for (const Stage& s : dag.stages()) {
    shuffle_first_.push_back(
        static_cast<std::int32_t>(shuffle_remaining_.size()));
    const std::int32_t live = stage_live(s.id) && s.num_tasks > 0 ? 1 : 0;
    for (const RddRef& ref : s.inputs) {
      const Rdd& parent = dag.rdd(ref.rdd);
      if (ref.kind == DepKind::Narrow) {
        // Block k is read by exactly task k.
        for (std::int32_t t = 0; t < s.num_tasks; ++t) {
          const BlockId block{ref.rdd, t};
          refs_of(block).push_back(Ref{s.id, 1});
          live_count_[ord(block)] += live;
        }
      } else {
        // Every task pulls a slice of every parent block: the blocks'
        // counts move together, so they share one counter.
        const auto counter =
            static_cast<std::int32_t>(shuffle_remaining_.size());
        shuffle_remaining_.push_back(s.num_tasks);
        for (std::int32_t p = 0; p < parent.num_partitions; ++p) {
          const BlockId block{ref.rdd, p};
          refs_of(block).push_back(Ref{s.id, ~counter});
          live_count_[ord(block)] += live;
        }
      }
    }
  }
  shuffle_first_.push_back(
      static_cast<std::int32_t>(shuffle_remaining_.size()));
}

std::size_t ReferenceOracle::stage_slot(StageId stage) const {
  DAGON_CHECK(stage.valid() &&
              static_cast<std::size_t>(stage.value()) < finished_.size());
  return static_cast<std::size_t>(stage.value());
}

std::int32_t& ReferenceOracle::narrow_count(const BlockId& block,
                                            StageId stage) {
  auto& refs = refs_of(block);
  const auto it = std::find_if(refs.begin(), refs.end(),
                               [&](const Ref& r) { return r.stage == stage; });
  DAGON_CHECK_MSG(it != refs.end(),
                  "stage " << stage << " has no record on block " << block);
  return it->count;
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
    fn(shuffle ? *shared : narrow_count(BlockId{ref.rdd, task}, stage), ref);
  }
}

void ReferenceOracle::move_live(const BlockId& block, std::int32_t delta) {
  std::int32_t& count = live_count_[ord(block)];
  const bool was = count > 0;
  count += delta;
  DAGON_CHECK(count >= 0);
  if (hook_ && (count > 0) != was) hook_(block, count > 0);
}

void ReferenceOracle::move_edge(const RddRef& edge, std::int32_t task,
                                std::int32_t delta) {
  if (edge.kind == DepKind::Narrow) {
    move_live(BlockId{edge.rdd, task}, delta);
    return;
  }
  const std::int32_t parts = dag_->rdd(edge.rdd).num_partitions;
  for (std::int32_t p = 0; p < parts; ++p) {
    move_live(BlockId{edge.rdd, p}, delta);
  }
}

void ReferenceOracle::move_stage(StageId stage, std::int32_t delta) {
  const Stage& s = dag_->stage(stage);
  auto counter = static_cast<std::size_t>(
      shuffle_first_[static_cast<std::size_t>(stage.value())]);
  for (const RddRef& edge : s.inputs) {
    if (edge.kind == DepKind::Shuffle) {
      if (shuffle_remaining_[counter++] > 0) move_edge(edge, 0, delta);
      continue;
    }
    for (std::int32_t t = 0; t < s.num_tasks; ++t) {
      if (narrow_count(BlockId{edge.rdd, t}, stage) > 0) {
        move_edge(edge, t, delta);
      }
    }
  }
}

void ReferenceOracle::on_task_launched(StageId stage, std::int32_t task) {
  ++epoch_;
  const bool live = stage_live(stage);
  for_each_task_count(stage, task,
                      [&](std::int32_t& count, const RddRef& edge) {
                        if (count <= 0) return;
                        // The last reading task of a live record launched.
                        if (--count == 0 && live) move_edge(edge, task, -1);
                      });
}

void ReferenceOracle::mark_stage_finished(StageId stage) {
  const std::size_t i = stage_slot(stage);
  ++epoch_;
  if (finished_[i]) return;
  const bool was_live = stage_live(stage);
  finished_[i] = true;
  if (was_live) move_stage(stage, -1);
}

void ReferenceOracle::restore_task_refs(StageId stage, std::int32_t task) {
  const std::size_t i = stage_slot(stage);
  ++epoch_;
  // The counts move while the stage's liveness holds still; un-finishing
  // it afterwards revives every record with a reading task left, the
  // restored ones included.
  const bool live = stage_live(stage);
  for_each_task_count(stage, task,
                      [&](std::int32_t& count, const RddRef& edge) {
                        if (++count == 1 && live) move_edge(edge, task, 1);
                      });
  if (!finished_[i]) return;
  finished_[i] = false;
  if (stage_live(stage)) move_stage(stage, 1);
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
  const std::size_t i = stage_slot(stage);
  const char next = stage_on ? 1 : 0;
  if (active_[i] == next) return;
  ++epoch_;
  active_[i] = next;
  if (!finished_[i]) move_stage(stage, stage_on ? 1 : -1);
}

void ReferenceOracle::set_reference_hook(ReferenceHook hook) {
  DAGON_CHECK_MSG(!hook_, "a reference hook is already installed");
  hook_ = std::move(hook);
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
  const std::int32_t count = live_count_[ord(block)];
#ifndef NDEBUG
  // Debug builds hold the live count to a walk of the block's records.
  int walked = 0;
  for (const Ref& r : refs_of(block)) {
    if (live(r)) ++walked;
  }
  DAGON_CHECK_MSG(walked == count, "block " << block << " has live count "
                                            << count << ", its records "
                                            << walked);
#endif
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
  return finished_[stage_slot(stage)];
}

CpuWork ReferenceOracle::priority_value(StageId stage) const {
  return pv_[stage_slot(stage)];
}

}  // namespace dagon
