// Input reads of one task launch: the bytes each source serves, the bytes
// to deserialize, and the stall behind a rack partition — the half of
// SimDriver::launch_task that runs before compute (DESIGN.md §11,
// "Shuffle accounting by source").
#pragma once

#include <algorithm>
#include <array>
#include <optional>

#include "cache/block_manager_master.hpp"
#include "fault/fault_plan.hpp"

namespace dagon {

struct InputReads {
  /// Indexed by BlockSource.
  std::array<Bytes, 7> bytes_by_source{};
  Bytes serde_bytes{};
  SimTime partition_stall{};
};

/// Reads the inputs of task `task` of stage `s` on `reader` at `now`.
/// `plan` is the run's fault plan when the failure detector runs (a fetch
/// whose source sits across an active rack partition stalls until the
/// heal), null otherwise.
///
/// A non-cacheable shuffle parent with no memory copy is read in one step
/// from the master's counts (shuffle_disk_split): each of its blocks only
/// adds a slice to LocalDisk, RackDisk or RemoteDisk. Every other parent
/// is read block by block in task_inputs order: lookup(), then
/// `on_block(in, lookup)`, where the driver keeps cache statistics and
/// calls on_block_read. So is every parent while a partition is active,
/// because the stall depends on which copy each block's lookup picks.
template <class OnBlock>
InputReads read_inputs(const JobDag& dag, const Topology& topo,
                       const BlockManagerMaster& master,
                       const FaultPlan* plan, StageId s, std::int32_t task,
                       ExecutorId reader, SimTime now, OnBlock&& on_block) {
  InputReads reads;
  const bool stalls = plan != nullptr && plan->partition_active(now);
  const RackId reader_rack = topo.rack_of(topo.node_of(reader));
  const auto add = [&](BlockSource src, Bytes bytes) {
    reads.bytes_by_source[static_cast<std::size_t>(src)] += bytes;
  };
  const auto read_block = [&](const TaskInput& in, bool raw_input) {
    const auto lookup = master.lookup(in.block, reader);
    add(lookup.source, in.bytes);
    if (stalls) {
      const NodeId src_node = is_memory_source(lookup.source)
                                  ? topo.node_of(lookup.holder)
                                  : lookup.disk_node;
      const SimTime heal = plan->cross_partition_heal(
          reader_rack, topo.rack_of(src_node), now);
      if (heal > now) {
        reads.partition_stall = std::max(reads.partition_stall, heal - now);
      }
    }
    // Raw HDFS input pays no deserialization; RDD data does, on every
    // source except the reader's own memory store.
    if (!raw_input && lookup.source != BlockSource::LocalMemory) {
      reads.serde_bytes += in.bytes;
    }
    on_block(in, lookup);
  };

  const Stage& stage = dag.stage(s);
  DAGON_CHECK_MSG(task >= 0 && task < stage.num_tasks,
                  "task " << task << " out of range for stage " << s);
  for (const RddRef& ref : stage.inputs) {
    const Rdd& parent = dag.rdd(ref.rdd);
    // Zero-byte RDDs (pure control dependencies) carry no data to read.
    if (parent.bytes_per_partition <= Bytes{0}) continue;
    if (ref.kind == DepKind::Narrow) {
      read_block(TaskInput{BlockId{ref.rdd, task},
                           parent.bytes_per_partition, DepKind::Narrow},
                 parent.is_input);
      continue;
    }
    const Bytes slice = JobDag::shuffle_slice(stage, parent);
    std::optional<BlockManagerMaster::DiskSplit> split;
    if (!stalls) split = master.shuffle_disk_split(ref.rdd, reader);
    if (split) {
      add(BlockSource::LocalDisk, slice * split->local);
      add(BlockSource::RackDisk, slice * split->rack);
      add(BlockSource::RemoteDisk, slice * split->remote);
      if (!parent.is_input) reads.serde_bytes += slice * parent.num_partitions;
      continue;
    }
    for (std::int32_t p = 0; p < parent.num_partitions; ++p) {
      read_block(TaskInput{BlockId{ref.rdd, p}, slice, DepKind::Shuffle},
                 parent.is_input);
    }
  }
  return reads;
}

}  // namespace dagon
