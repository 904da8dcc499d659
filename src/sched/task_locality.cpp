#include "sched/task_locality.hpp"

#include <algorithm>

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

/// Ladder for stages with narrow deps, with/without a Process rung.
std::vector<Locality> narrow_levels(bool any_process) {
  std::vector<Locality> levels;
  if (any_process) levels.push_back(Locality::Process);
  levels.push_back(Locality::Node);
  levels.push_back(Locality::Rack);
  levels.push_back(Locality::Any);
  return levels;
}

bool stage_has_narrow(const Stage& s) {
  for (const RddRef& ref : s.inputs) {
    if (ref.kind == DepKind::Narrow) return true;
  }
  return false;
}

}  // namespace

std::vector<Locality> valid_locality_levels(const JobDag& dag,
                                            const BlockManagerMaster& master,
                                            const Topology& topo,
                                            const StageRuntime& stage) {
  (void)topo;
  const Stage& s = dag.stage(stage.id);
  // Pure-shuffle stages have no preferred locations at all: every task
  // is NO_PREF. Narrow-dep stages always have at least a disk location
  // for every pending task (the parent block exists by readiness), so
  // none of their tasks is NO_PREF.
  if (!stage_has_narrow(s)) {
    return {Locality::NoPref, Locality::Any};
  }
  bool any_process = false;
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
  return narrow_levels(any_process);
}

// --- LocalityCache ---------------------------------------------------------

void LocalityCache::catch_up(const JobDag& dag,
                             const BlockManagerMaster& master) {
  constexpr auto kUnknown = static_cast<std::int8_t>(-1);
  const std::uint64_t end = master.journal_end();
  if (cursor_ < master.journal_begin()) {
    // The journal dropped entries this memo never read.
    for (auto& slots : loc_) std::fill(slots.begin(), slots.end(), kUnknown);
    for (auto& bits : mem_pref_) std::fill(bits.begin(), bits.end(), kUnknown);
    cursor_ = end;
    return;
  }
  if (narrow_readers_.empty()) {
    narrow_readers_.resize(dag.rdds().size());
    for (const Stage& s : dag.stages()) {
      for (const RddRef& ref : s.inputs) {
        if (ref.kind != DepKind::Narrow) continue;
        narrow_readers_[static_cast<std::size_t>(ref.rdd.value())].push_back(
            s.id);
      }
    }
  }
  for (std::uint64_t pos = cursor_; pos < end; ++pos) {
    const BlockId& block = master.journal_at(pos);
    const auto row = static_cast<std::size_t>(block.partition);
    for (const StageId s :
         narrow_readers_[static_cast<std::size_t>(block.rdd.value())]) {
      const auto si = static_cast<std::size_t>(s.value());
      if (si < loc_.size() && !loc_[si].empty()) {
        std::fill_n(loc_[si].begin() +
                        static_cast<std::ptrdiff_t>(row * num_executors_),
                    num_executors_, kUnknown);
      }
      if (si < mem_pref_.size() && !mem_pref_[si].empty()) {
        mem_pref_[si][row] = kUnknown;
      }
    }
  }
  cursor_ = end;
}

Locality LocalityCache::locality(const JobDag& dag,
                                 const BlockManagerMaster& master,
                                 const Topology& topo, StageId s,
                                 std::int32_t index, ExecutorId exec) {
  sync(dag, master);
  if (loc_.empty()) {
    loc_.resize(dag.num_stages());
    num_executors_ = topo.num_executors();
  }
  const std::size_t want =
      static_cast<std::size_t>(dag.stage(s).num_tasks) * num_executors_;
  if (want > kMaxMemoSlots) {
    // Memo table would be too large for this stage (see kMaxMemoSlots);
    // recompute directly — identical answer, no storage.
    return task_locality_on(dag, master, topo, s, index, exec);
  }
  auto& slots = loc_[static_cast<std::size_t>(s.value())];
  if (slots.empty()) slots.assign(want, static_cast<std::int8_t>(-1));
  const std::size_t slot =
      static_cast<std::size_t>(index) * num_executors_ +
      static_cast<std::size_t>(exec.value());
  if (slots[slot] < 0) {
    slots[slot] = static_cast<std::int8_t>(
        task_locality_on(dag, master, topo, s, index, exec));
  }
  return static_cast<Locality>(slots[slot]);
}

bool LocalityCache::any_process_pref(const JobDag& dag,
                                     const BlockManagerMaster& master,
                                     const StageRuntime& stage) {
  sync(dag, master);
  if (mem_pref_.empty()) mem_pref_.resize(dag.num_stages());
  auto& bits = mem_pref_[static_cast<std::size_t>(stage.id.value())];
  const Stage& s = dag.stage(stage.id);
  if (bits.empty()) {
    bits.assign(static_cast<std::size_t>(s.num_tasks),
                static_cast<std::int8_t>(-1));
  }
  for (const std::int32_t index : stage.pending) {
    auto& bit = bits[static_cast<std::size_t>(index)];
    if (bit < 0) {
      bit = 0;
      for (const RddRef& ref : s.inputs) {
        if (ref.kind != DepKind::Narrow) continue;
        if (master.any_healthy_memory_holder(BlockId{ref.rdd, index})) {
          bit = 1;
          break;
        }
      }
    }
    if (bit > 0) return true;
  }
  return false;
}

std::vector<Locality> LocalityCache::levels(const JobDag& dag,
                                            const BlockManagerMaster& master,
                                            const Topology& topo,
                                            const StageRuntime& stage) {
  (void)topo;
  if (!stage_has_narrow(dag.stage(stage.id))) {
    return {Locality::NoPref, Locality::Any};
  }
  return narrow_levels(any_process_pref(dag, master, stage));
}

}  // namespace dagon
