#include "sched/task_locality.hpp"

#include <algorithm>
#include <array>
#include <ostream>

namespace dagon {

Locality task_locality_on(const JobDag& dag,
                          const BlockManagerMaster& master,
                          const Topology& topo, StageId s,
                          std::int32_t index, ExecutorId exec) {
  // Allocation-free fast path: this runs once per (pending task,
  // executor) pair in the scheduler's inner loop.
  const Stage& stage = dag.stage(s);
  const NodeId my_node = topo.node_of(exec);
  const RackId my_rack = topo.rack_of(my_node);

  bool any_pref = false;
  Locality best = Locality::Any;
  const auto improve = [&](Locality l) {
    if (static_cast<int>(l) < static_cast<int>(best)) best = l;
  };

  for (const RddRef& ref : stage.inputs) {
    if (ref.kind != DepKind::Narrow) continue;
    const BlockId block{ref.rdd, index};
    for (const ExecutorId holder : master.memory_holders(block)) {
      // A suspect's memory copy grants no preference: steering (or
      // delay-waiting) toward an executor that may be dying burns the
      // locality wait for nothing. Its durable disk copy still counts
      // below.
      if (master.executor_suspect(holder)) continue;
      any_pref = true;
      if (holder == exec) return Locality::Process;
      const NodeId n = topo.node_of(holder);
      improve(n == my_node ? Locality::Node
              : topo.rack_of(n) == my_rack ? Locality::Rack
                                           : Locality::Any);
    }
    const auto consider_disk = [&](NodeId n) {
      any_pref = true;
      improve(n == my_node ? Locality::Node
              : topo.rack_of(n) == my_rack ? Locality::Rack
                                           : Locality::Any);
    };
    for (const NodeId n : master.hdfs_replicas(block)) consider_disk(n);
    for (const NodeId n : master.produced_disk_nodes(block)) {
      consider_disk(n);
    }
  }
  if (!any_pref) return Locality::NoPref;
  return best;
}

namespace {

constexpr std::array<Locality, 2> kShuffleLadder{Locality::NoPref,
                                                 Locality::Any};
constexpr std::array<Locality, 4> kNarrowLadder{
    Locality::Process, Locality::Node, Locality::Rack, Locality::Any};

bool stage_has_narrow(const Stage& s) {
  for (const RddRef& ref : s.inputs) {
    if (ref.kind == DepKind::Narrow) return true;
  }
  return false;
}

}  // namespace

std::span<const Locality> locality_ladder(bool has_narrow,
                                          bool any_process) {
  if (!has_narrow) return kShuffleLadder;
  return std::span<const Locality>(kNarrowLadder).subspan(any_process ? 0
                                                                      : 1);
}

std::vector<Locality> valid_locality_levels(const JobDag& dag,
                                            const BlockManagerMaster& master,
                                            const Topology& topo,
                                            const StageRuntime& stage) {
  (void)topo;
  const Stage& s = dag.stage(stage.id);
  // Pure-shuffle stages have no preferred locations at all: every task
  // is NO_PREF. A narrow-dep stage's ladder has no NoPref rung, even
  // for a task with no usable copy anywhere.
  bool any_process = false;
  if (stage_has_narrow(s)) {
    for (const std::int32_t index : stage.pending) {
      for (const RddRef& ref : s.inputs) {
        if (ref.kind != DepKind::Narrow) continue;
        if (master.any_healthy_memory_holder(BlockId{ref.rdd, index})) {
          any_process = true;
          break;
        }
      }
      if (any_process) break;
    }
  }
  const auto ladder = locality_ladder(stage_has_narrow(s), any_process);
  return {ladder.begin(), ladder.end()};
}

std::ostream& operator<<(std::ostream& os, const TaskPick& pick) {
  return os << "task " << pick.task_index << " @"
            << locality_name(pick.locality);
}

std::optional<TaskPick> best_task_by_scan(const JobDag& dag,
                                          const BlockManagerMaster& master,
                                          const Topology& topo,
                                          const StageRuntime& stage,
                                          ExecutorId exec) {
  std::optional<TaskPick> best;
  for (const std::int32_t index : stage.pending) {
    const Locality l = task_locality_on(dag, master, topo, stage.id, index,
                                        exec);
    if (!best || static_cast<int>(l) < static_cast<int>(best->locality)) {
      best = TaskPick{index, l};
      if (l == Locality::Process) break;  // cannot do better
    }
  }
  return best;
}

// --- PendingTaskIndex ------------------------------------------------------

namespace {

void add_unique(std::vector<std::int32_t>& ids, std::int32_t id) {
  if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
}

std::uint64_t bit_of(std::int32_t e) {
  return std::uint64_t{1} << (static_cast<std::uint32_t>(e) & 63);
}

std::uint64_t& word_of(std::uint64_t* bits, std::int32_t e) {
  return bits[static_cast<std::size_t>(e) >> 6];
}

/// Sets (`on`) or clears the bits of `r`, a word at a time.
void assign_range(std::uint64_t* bits, ExecutorRange r, bool on) {
  if (r.begin >= r.end) return;
  const auto lo = static_cast<std::size_t>(r.begin);
  const auto hi = static_cast<std::size_t>(r.end);
  const std::size_t wlast = (hi - 1) >> 6;
  for (std::size_t w = lo >> 6; w <= wlast; ++w) {
    std::uint64_t m = ~std::uint64_t{0};
    if (w == lo >> 6) m &= ~std::uint64_t{0} << (lo & 63);
    if (w == wlast && (hi & 63) != 0) m &= (std::uint64_t{1} << (hi & 63)) - 1;
    bits[w] = on ? bits[w] | m : bits[w] & ~m;
  }
}

/// Clears `r`, which is all set or all clear, unless `e` in it is clear.
void clear_range(std::uint64_t* bits, ExecutorRange r, std::int32_t e) {
  if ((word_of(bits, e) & bit_of(e)) != 0) assign_range(bits, r, false);
}

}  // namespace

PendingTaskIndex::StageIndex& PendingTaskIndex::sync(
    const JobState& state, const BlockManagerMaster& master,
    const StageRuntime& rt) {
  if (stages_.empty()) {
    stages_.resize(state.dag().num_stages());
    words_ = (state.executors().size() + 63) / 64;
    masks_.assign(stages_.size() * 3 * words_, 0);
    watchers_.resize(state.dag().rdds().size());
  }
  if (cursor_ != master.journal_end()) catch_up(state, master);
  StageIndex& si = stages_[static_cast<std::size_t>(rt.id.value())];
  if (!si.built) {
    build(state, master, rt.id, si);
  } else if (si.indexed_end != rt.pending.end_position()) {
    rt.pending.for_each_since(si.indexed_end, [&](std::int32_t task) {
      index_task(state, master, rt.id, si, task);
    });
    si.indexed_end = rt.pending.end_position();
  }
  if (memo_.stage != rt.id || memo_.epoch != rt.epoch ||
      memo_.cursor != cursor_) {
    memo_ = Memo{rt.id, rt.epoch, cursor_,
                 first_live(&si.in_memory, rt.pending, si).has_value()};
  }
  return si;
}

void PendingTaskIndex::catch_up(const JobState& state,
                                const BlockManagerMaster& master) {
  const std::uint64_t end = master.journal_end();
  if (cursor_ < master.journal_begin()) {
    // The journal dropped entries this index never read.
    for (StageIndex& si : stages_) si = StageIndex{};
    for (std::vector<StageId>& stages : watchers_) stages.clear();
    cursor_ = end;
    return;
  }
  for (std::uint64_t pos = cursor_; pos < end; ++pos) {
    const BlockId& block = master.journal_at(pos);
    for (const StageId s :
         watchers_[static_cast<std::size_t>(block.rdd.value())]) {
      StageIndex& si = stages_[static_cast<std::size_t>(s.value())];
      const PendingList& pending = state.stage(s).pending;
      // A task re-queued since the stage's last ask is indexed at its
      // next one, with the placement of then.
      if (pending.contains(block.partition) &&
          pending.position(block.partition) < si.indexed_end) {
        index_task(state, master, s, si, block.partition);
      }
    }
  }
  cursor_ = end;
}

void PendingTaskIndex::build(const JobState& state,
                             const BlockManagerMaster& master, StageId s,
                             StageIndex& si) {
  const StageRuntime& rt = state.stage(s);
  si.built = true;
  si.stamp.assign(static_cast<std::size_t>(rt.num_tasks), 0);
  std::fill_n(mask(s, Mask::Process), 3 * words_, 0);
  for (const std::int32_t task : rt.pending) {
    index_task(state, master, s, si, task);
  }
  si.indexed_end = rt.pending.end_position();
  for (const RddRef& ref : state.dag().stage(s).inputs) {
    if (ref.kind == DepKind::Narrow) {
      watchers_[static_cast<std::size_t>(ref.rdd.value())].push_back(s);
    }
  }
}

void PendingTaskIndex::index_task(const JobState& state,
                                  const BlockManagerMaster& master,
                                  StageId s, StageIndex& si,
                                  std::int32_t task) {
  const Topology& topo = state.topology();
  execs_.clear();
  nodes_.clear();
  racks_.clear();
  for (const RddRef& ref : state.dag().stage(s).inputs) {
    if (ref.kind != DepKind::Narrow) continue;
    const BlockId block{ref.rdd, task};
    for (const ExecutorId holder : master.memory_holders(block)) {
      if (master.executor_suspect(holder)) continue;  // as task_locality_on
      add_unique(execs_, holder.value());
      add_unique(nodes_, topo.node_of(holder).value());
    }
    for (const NodeId n : master.hdfs_replicas(block)) {
      add_unique(nodes_, n.value());
    }
    for (const NodeId n : master.produced_disk_nodes(block)) {
      add_unique(nodes_, n.value());
    }
  }
  for (const std::int32_t n : nodes_) {
    add_unique(racks_, topo.rack_of(NodeId(n)).value());
  }

  const Entry entry{state.stage(s).pending.position(task), task,
                    ++si.stamp[static_cast<std::size_t>(task)]};
  const auto push = [&](Bucket& bucket) {
    bucket.push_back(entry);
    std::push_heap(bucket.begin(), bucket.end(), Entry::later);
  };
  for (const std::int32_t e : execs_) {
    push(si.by_node.get(topo.node_of(ExecutorId(e)).value()).by_exec.get(e));
    word_of(mask(s, Mask::Process), e) |= bit_of(e);
  }
  for (const std::int32_t n : nodes_) {
    push(si.by_node.get(n).tasks);
    assign_range(mask(s, Mask::Node), topo.node_executors(NodeId(n)), true);
  }
  for (const std::int32_t r : racks_) {
    push(si.by_rack.get(r));
    assign_range(mask(s, Mask::Rack), topo.rack_executors(RackId(r)), true);
  }
  if (nodes_.empty()) push(si.no_pref);
  if (!execs_.empty()) push(si.in_memory);
}

std::optional<std::int32_t> PendingTaskIndex::first_live(
    Bucket* bucket, const PendingList& pending, const StageIndex& si) {
  if (bucket == nullptr) return std::nullopt;
  while (!bucket->empty()) {
    const Entry& top = bucket->front();
    if (pending.contains(top.task) && pending.position(top.task) == top.pos &&
        si.stamp[static_cast<std::size_t>(top.task)] == top.stamp) {
      return top.task;
    }
    std::pop_heap(bucket->begin(), bucket->end(), Entry::later);
    bucket->pop_back();
  }
  return std::nullopt;
}

std::optional<TaskPick> PendingTaskIndex::best(
    const JobState& state, const BlockManagerMaster& master, StageId s,
    ExecutorId exec) {
  const StageRuntime& rt = state.stage(s);
  if (rt.pending.empty()) return std::nullopt;
  // Pure-shuffle stage: every task is NoPref, so the first pending one
  // wins, in O(1).
  if (!rt.has_narrow) return TaskPick{rt.pending.front(), Locality::NoPref};
  StageIndex& si = sync(state, master, rt);
  const Topology& topo = state.topology();
  const NodeId node = topo.node_of(exec);
  const auto pick = [&](Bucket* bucket) {
    return first_live(bucket, rt.pending, si);
  };
  NodeBuckets* buckets = si.by_node.find(node.value());
  if (memo_.any_in_memory && buckets != nullptr) {
    if (const auto t = pick(buckets->by_exec.find(exec.value()))) {
      return TaskPick{*t, Locality::Process};
    }
  }
  word_of(mask(s, Mask::Process), exec.value()) &= ~bit_of(exec.value());
  if (const auto t = pick(buckets ? &buckets->tasks : nullptr)) {
    return TaskPick{*t, Locality::Node};
  }
  clear_range(mask(s, Mask::Node), topo.node_executors(node), exec.value());
  if (const auto u = pick(&si.no_pref)) return TaskPick{*u, Locality::NoPref};
  const RackId rack = topo.rack_of(node);
  if (const auto v = pick(si.by_rack.find(rack.value()))) {
    return TaskPick{*v, Locality::Rack};
  }
  clear_range(mask(s, Mask::Rack), topo.rack_executors(rack), exec.value());
  return TaskPick{rt.pending.front(), Locality::Any};
}

std::span<const Locality> PendingTaskIndex::levels(
    const JobState& state, const BlockManagerMaster& master, StageId s) {
  const StageRuntime& rt = state.stage(s);
  if (!rt.has_narrow) return locality_ladder(false, false);
  (void)sync(state, master, rt);
  return locality_ladder(true, memo_.any_in_memory);
}

std::span<const std::uint64_t> PendingTaskIndex::candidates(
    const JobState& state, const BlockManagerMaster& master, StageId s,
    LocalitySet accept) {
  const StageRuntime& rt = state.stage(s);
  if (!rt.has_narrow || accept.contains(Locality::Any)) return {};
  StageIndex& si = sync(state, master, rt);
  if (accept.contains(Locality::NoPref) &&
      first_live(&si.no_pref, rt.pending, si)) {
    return {};
  }
  // best() answers Process only on a live executor bucket, otherwise
  // the first live rung below it: Node on a live node bucket, NoPref on
  // a live no-copy bucket (here dead or not accepted), Rack on a live
  // rack bucket, then Any (not accepted). Each rung is live only inside
  // its own mask.
  const std::uint64_t* process =
      memo_.any_in_memory ? mask(s, Mask::Process) : nullptr;
  const std::uint64_t* node =
      accept.contains(Locality::Node) ? mask(s, Mask::Node) : nullptr;
  const std::uint64_t* rack =
      accept.contains(Locality::Rack) ? mask(s, Mask::Rack) : nullptr;
  candidates_.resize(words_);
  for (std::size_t w = 0; w < words_; ++w) {
    candidates_[w] = (process ? process[w] : 0) | (node ? node[w] : 0) |
                     (rack ? rack[w] : 0);
  }
  return candidates_;
}

}  // namespace dagon
