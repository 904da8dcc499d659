// Task locality classification.
//
// Mirrors Spark's preferred-location logic: a task's preferences come
// from its narrow-dependency inputs — the executors holding those blocks
// in memory (process-local) and the nodes holding them on disk
// (node-local). Pure-shuffle tasks have no preference (NO_PREF) and can
// launch anywhere without waiting.
#pragma once

#include <vector>

#include "cache/block_manager_master.hpp"
#include "cluster/locality.hpp"
#include "sched/job_state.hpp"

namespace dagon {

/// Locality level task `index` of stage `s` would run at on `exec`.
[[nodiscard]] Locality task_locality_on(const JobDag& dag,
                                        const BlockManagerMaster& master,
                                        const Topology& topo, StageId s,
                                        std::int32_t index, ExecutorId exec);

/// The locality levels that can occur for stage `s`'s pending tasks,
/// best-first — Spark's TaskSetManager::myLocalityLevels. A taskset
/// whose tasks have no preferences yields {NoPref, Any}. The scheduler
/// asks LocalityCache::levels; this recompute is its test reference.
[[nodiscard]] std::vector<Locality> valid_locality_levels(
    const JobDag& dag, const BlockManagerMaster& master,
    const Topology& topo, const StageRuntime& stage);

/// Memoizes task_locality_on answers per (stage, task, executor) plus a
/// per-(stage, task) "has a memory-resident input" bit, keyed on the
/// master's placement_version(): the answers depend only on block
/// placement, so the memo stays valid across every event that moves no
/// block and is dropped wholesale the moment one does (block admit,
/// evict, or a task finish producing a new durable copy).
///
/// This turns the scheduler's O(pending × executors) inner loop from
/// recompute-per-event into amortized array reads. One instance serves
/// one run (not thread-safe across runs; each SimDriver owns its own).
class LocalityCache {
 public:
  /// Per-stage memo ceiling: a stage whose num_tasks × num_executors
  /// table would exceed this many entries (16 MiB of int8) is served by
  /// direct recomputation instead — same answers, bounded footprint.
  /// Matters only at bench_scale sizes (e.g. 1M tasks × 10k executors
  /// would want a 10 GB table).
  static constexpr std::size_t kMaxMemoSlots = std::size_t{1} << 24;

  /// Same answer as task_locality_on, served from the memo when the
  /// placement has not changed since it was computed.
  [[nodiscard]] Locality locality(const JobDag& dag,
                                  const BlockManagerMaster& master,
                                  const Topology& topo, StageId s,
                                  std::int32_t index, ExecutorId exec);

  /// True when any *pending* task of `stage` has a narrow-dep input
  /// block resident in some executor's memory — the expensive scan of
  /// valid_locality_levels, memoized per (stage, task).
  [[nodiscard]] bool any_process_pref(const JobDag& dag,
                                      const BlockManagerMaster& master,
                                      const StageRuntime& stage);

  /// valid_locality_levels with the any-process scan served by the memo.
  [[nodiscard]] std::vector<Locality> levels(const JobDag& dag,
                                             const BlockManagerMaster& master,
                                             const Topology& topo,
                                             const StageRuntime& stage);

 private:
  void sync(const BlockManagerMaster& master);

  std::uint64_t version_ = 0;  // 0 = never synced (real versions start at 1)
  std::size_t num_executors_ = 0;
  /// Per stage: num_tasks × num_executors locality values, -1 = unknown.
  std::vector<std::vector<std::int8_t>> loc_;
  /// Per stage: per task, 1/0 = has/lacks a memory holder, -1 = unknown.
  std::vector<std::vector<std::int8_t>> mem_pref_;
};

}  // namespace dagon
