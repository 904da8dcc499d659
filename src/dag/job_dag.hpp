// Job DAG: immutable description of one application's stages and RDDs.
//
// Construction goes through JobDagBuilder, which wires parent/child
// links, validates narrow-dependency partition counts, and rejects
// cyclic or dangling structures — so a JobDag in hand is always sound.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dag/block.hpp"
#include "dag/rdd.hpp"
#include "dag/stage.hpp"

namespace dagon {

class JobDag {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] const std::vector<Stage>& stages() const { return stages_; }
  [[nodiscard]] const std::vector<Rdd>& rdds() const { return rdds_; }

  [[nodiscard]] const Stage& stage(StageId id) const;
  [[nodiscard]] const Rdd& rdd(RddId id) const;

  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }

  /// Stage producing `rdd`, or nullopt for input RDDs.
  [[nodiscard]] std::optional<StageId> producer_of(RddId rdd) const;

  /// Stages with no parents (ready at t=0).
  [[nodiscard]] std::vector<StageId> root_stages() const;
  /// Stages with no children.
  [[nodiscard]] std::vector<StageId> leaf_stages() const;

  /// Stage ids in a valid topological order (parents first). Stable:
  /// among ready stages, lower ids first — this is also the FIFO order.
  [[nodiscard]] const std::vector<StageId>& topological_order() const {
    return topo_order_;
  }

  /// All transitive descendants of `id` (the paper's SuccessorSet_i).
  [[nodiscard]] const std::vector<StageId>& successor_set(StageId id) const;

  /// All transitive ancestors of `id`, ascending: the stages whose
  /// SuccessorSet contains `id`, so the stages whose pv_i (Eq. 6) counts
  /// `id`'s workload.
  [[nodiscard]] const std::vector<StageId>& ancestor_set(StageId id) const;

  /// Input reads of task `task` of stage `id`: full parent blocks for
  /// narrow deps, per-task shuffle slices for wide deps.
  [[nodiscard]] std::vector<TaskInput> task_inputs(StageId id,
                                                   std::int32_t task) const;

  /// Calls `fn(const TaskInput&)` for each read of task_inputs(id, task),
  /// in the same order, without building the vector.
  template <class Fn>
  void for_each_task_input(StageId id, std::int32_t task, Fn&& fn) const;

  /// Bytes one task of `reader` pulls from each block of `parent`
  /// through a shuffle edge: the block split evenly over the reader's
  /// tasks, at least one byte.
  [[nodiscard]] static Bytes shuffle_slice(const Stage& reader,
                                           const Rdd& parent) {
    return std::max(Bytes{1},
                    parent.bytes_per_partition / std::max(1, reader.num_tasks));
  }

  /// Distinct blocks accessed by the whole stage (union over tasks).
  [[nodiscard]] std::vector<BlockId> stage_input_blocks(StageId id) const;

  /// Total bytes task `task` of stage `id` reads.
  [[nodiscard]] Bytes task_input_bytes(StageId id, std::int32_t task) const;

  /// Longest chain length in stages (DAG depth).
  [[nodiscard]] int depth() const;

  /// Sum of all stage workloads (vCPU-time).
  [[nodiscard]] CpuWork total_workload() const;

  /// Total number of tasks across stages.
  [[nodiscard]] std::int64_t total_tasks() const;

  // -- dense block ordinals ------------------------------------------------
  // Every block of the DAG (one per RDD partition) has a dense ordinal in
  // [0, num_blocks()), assigned in ascending BlockId order: all blocks of
  // rdd 0 first, then rdd 1, ... Hot-path state (HDFS placement, copy
  // sets, reference records) is stored in flat arrays indexed by ordinal
  // instead of hash maps, and iterating ordinals ascending IS the sorted
  // block-id order the determinism discipline requires.

  /// Total number of blocks across all RDDs.
  [[nodiscard]] std::int64_t num_blocks() const {
    return block_offset_.empty() ? 0 : block_offset_.back();
  }

  /// Dense ordinal of `b`; `b` must be a valid block of this DAG.
  [[nodiscard]] std::int64_t block_ord(BlockId b) const {
    return block_offset_[static_cast<std::size_t>(b.rdd.value())] +
           b.partition;
  }

  /// Inverse of block_ord.
  [[nodiscard]] BlockId block_at(std::int64_t ord) const;

 private:
  friend class JobDagBuilder;

  std::string name_;
  std::vector<Stage> stages_;
  std::vector<Rdd> rdds_;
  std::vector<StageId> topo_order_;
  /// successor_sets_[i] = transitive descendants of stage i.
  std::vector<std::vector<StageId>> successor_sets_;
  /// ancestor_sets_[i] = transitive ancestors of stage i (the inverse).
  std::vector<std::vector<StageId>> ancestor_sets_;
  /// block_offset_[r] = ordinal of rdd r's partition 0; one trailing
  /// entry holds num_blocks(). Built by JobDagBuilder::build().
  std::vector<std::int64_t> block_offset_;
};

template <class Fn>
void JobDag::for_each_task_input(StageId id, std::int32_t task,
                                 Fn&& fn) const {
  const Stage& s = stage(id);
  DAGON_CHECK_MSG(task >= 0 && task < s.num_tasks,
                  "task " << task << " out of range for stage " << id);
  for (const RddRef& ref : s.inputs) {
    const Rdd& parent = rdd(ref.rdd);
    // Zero-byte RDDs (pure control dependencies) carry no data to read.
    if (parent.bytes_per_partition <= Bytes{0}) continue;
    if (ref.kind == DepKind::Narrow) {
      fn(TaskInput{BlockId{ref.rdd, task}, parent.bytes_per_partition,
                   DepKind::Narrow});
    } else {
      // Shuffle: every task pulls a slice of every parent block.
      const Bytes slice = shuffle_slice(s, parent);
      for (std::int32_t p = 0; p < parent.num_partitions; ++p) {
        fn(TaskInput{BlockId{ref.rdd, p}, slice, DepKind::Shuffle});
      }
    }
  }
}

/// Incremental builder; see workloads/ for usage examples.
class JobDagBuilder {
 public:
  explicit JobDagBuilder(std::string name);

  /// Registers an input RDD, materialized on HDFS before the job starts.
  /// `initially_cached` partitions begin resident in executor memory
  /// (the paper's Fig. 1 black blocks).
  RddId input_rdd(std::string name, std::int32_t partitions,
                  Bytes bytes_per_partition,
                  std::int32_t initially_cached = 0);

  struct StageParams {
    std::string name;
    std::vector<RddRef> inputs;
    std::int32_t num_tasks = 0;
    Cpus task_cpus{1};
    SimTime task_duration{};
    /// Size of each output partition; 0 for terminal stages whose output
    /// is written out / discarded.
    Bytes output_bytes_per_partition{};
    /// Whether the output RDD is persisted (enters the cache).
    bool cache_output = true;
    std::vector<double> duration_skew;
    /// Name of the output RDD; defaults to "<stage>.out".
    std::string output_name;
  };

  /// Adds a stage and its implicit output RDD; returns the stage id.
  StageId add_stage(const StageParams& params);

  /// Output RDD of a previously added stage (for wiring descendants).
  [[nodiscard]] RddId output_of(StageId stage) const;

  /// Marks the output of `stage` as not cacheable (pure shuffle data the
  /// application never persists).
  void set_output_cacheable(StageId stage, bool cacheable);

  /// Sets whether an RDD (typically a raw input the application never
  /// persists) enters the cache when read.
  void set_rdd_cacheable(RddId rdd, bool cacheable);

  /// Validates and produces the immutable JobDag. Throws ConfigError on
  /// structural problems. The builder must not be reused afterwards.
  [[nodiscard]] JobDag build();

 private:
  JobDag dag_;
  bool built_ = false;
};

}  // namespace dagon
