// Task locality classification.
//
// Mirrors Spark's preferred-location logic: a task's preferences come
// from its narrow-dependency inputs — the executors holding those blocks
// in memory (process-local) and the nodes holding them on disk
// (node-local). Pure-shuffle tasks have no preference (NO_PREF) and can
// launch anywhere without waiting.
#pragma once

#include <algorithm>
#include <iosfwd>
#include <optional>
#include <span>
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

/// Spark's TaskSetManager::myLocalityLevels, best-first: {NoPref, Any}
/// for a stage without narrow inputs; otherwise {Process, Node, Rack,
/// Any} when some pending task has a memory copy on a healthy executor,
/// and {Node, Rack, Any} when none has.
[[nodiscard]] std::span<const Locality> locality_ladder(bool has_narrow,
                                                        bool any_process);

/// The locality levels that can occur for stage `s`'s pending tasks,
/// best-first (locality_ladder). The scheduler asks
/// PendingTaskIndex::levels; this recompute is its test reference.
[[nodiscard]] std::vector<Locality> valid_locality_levels(
    const JobDag& dag, const BlockManagerMaster& master,
    const Topology& topo, const StageRuntime& stage);

/// A pending task and the locality it would run at on some executor.
struct TaskPick {
  std::int32_t task_index = -1;
  Locality locality = Locality::Any;
  friend bool operator==(const TaskPick&, const TaskPick&) = default;
};

/// Prints e.g. "task 3 @NODE_LOCAL".
std::ostream& operator<<(std::ostream& os, const TaskPick& pick);

/// The first pending task of `stage`, in pending order, at the best
/// locality on `exec`, found by walking every pending task through
/// task_locality_on; nullopt when nothing is pending. The reference
/// PendingTaskIndex::best must match.
[[nodiscard]] std::optional<TaskPick> best_task_by_scan(
    const JobDag& dag, const BlockManagerMaster& master,
    const Topology& topo, const StageRuntime& stage, ExecutorId exec);

/// Spark TaskSetManager's pending-task lists, kept exact. For each stage
/// with a narrow input, built on the stage's first ask, it keeps the
/// pending tasks in buckets, each a min-heap on pending position
/// (PendingList::position):
///   - per executor (filed under its node): tasks with a memory copy
///     there;
///   - per node: tasks with any copy there (memory or disk);
///   - tasks with no copy at all;
///   - per rack: tasks with any copy there;
///   - tasks with a memory copy anywhere (the ladder's Process rung).
/// Memory copies on suspects count nowhere, as in task_locality_on.
/// Buckets exist only for locations that hold a copy.
///
/// best() reads at most four bucket tops and pending.front(), in the
/// order Process < Node < NoPref < Rack < Any. The first non-empty one
/// is exact: a task with a memory copy on `e` also has node(e) among its
/// nodes, so when e's executor bucket is empty every task of node(e)'s
/// bucket is Node-local on `e`, and so on down the ladder.
///
/// Per built stage it also keeps three candidate masks over executor
/// ids, each a superset of the executors whose executor bucket, node
/// bucket or rack bucket holds a live entry: index_task sets bits as it
/// pushes, best() clears them once it finds the bucket empty, and a
/// rebuild starts them afresh. candidates() combines them into the
/// executors a delay policy's walk must visit.
///
/// Entries are never removed eagerly. One is live while its task is
/// pending at the entry's position and its locations have not been
/// recomputed since; the rest are popped when they reach a top, as
/// Spark skips launched tasks. Each placement journal entry (r, i)
/// recomputes task i's locations in every indexed stage that narrow-
/// reads r; a cursor behind journal_begin() drops every stage's buckets,
/// to be rebuilt on its next ask. Re-queued tasks (positions at or past
/// the stage's last look) are indexed on the stage's next ask.
///
/// One instance serves one run (not thread-safe across runs; each
/// SimDriver's delay policy owns its own).
class PendingTaskIndex {
 public:
  /// best_task_by_scan's answer.
  [[nodiscard]] std::optional<TaskPick> best(const JobState& state,
                                             const BlockManagerMaster& master,
                                             StageId s, ExecutorId exec);

  /// valid_locality_levels's answer, without allocating.
  [[nodiscard]] std::span<const Locality> levels(
      const JobState& state, const BlockManagerMaster& master, StageId s);

  /// A mask over executor ids (n/64 words) holding every executor on
  /// which best() can answer a level in `accept` (and every one where
  /// it can answer Process, which both delay policies accept), or an
  /// empty span when that may be any executor: for a pure-shuffle
  /// stage, when `accept` holds Any, or when it holds NoPref while some
  /// pending task has no copy. The span points into a buffer reused by
  /// the next call.
  [[nodiscard]] std::span<const std::uint64_t> candidates(
      const JobState& state, const BlockManagerMaster& master, StageId s,
      LocalitySet accept);

 private:
  struct Entry {
    std::int32_t pos = 0;  // pending position
    std::int32_t task = 0;
    std::uint32_t stamp = 0;  // the task's stamp when this entry was made
    /// Heap order: the smallest position on top.
    static bool later(const Entry& a, const Entry& b) { return a.pos > b.pos; }
  };
  /// A min-heap on position.
  using Bucket = std::vector<Entry>;
  /// Values by location id, ids ascending.
  template <class V>
  struct Keyed {
    std::vector<std::int32_t> ids;
    std::vector<V> values;
    /// The value of `id`, or null.
    V* find(std::int32_t id) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (it == ids.end() || *it != id) return nullptr;
      return &values[static_cast<std::size_t>(it - ids.begin())];
    }
    /// The value of `id`, added empty if missing.
    V& get(std::int32_t id) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      const auto at = it - ids.begin();
      if (it == ids.end() || *it != id) {
        ids.insert(it, id);
        values.insert(values.begin() + at, V{});
      }
      return values[static_cast<std::size_t>(at)];
    }
  };
  /// A node's tasks (any copy there), and per executor of the node the
  /// tasks with a memory copy on it.
  struct NodeBuckets {
    Bucket tasks;
    Keyed<Bucket> by_exec;
  };
  struct StageIndex {
    bool built = false;
    /// Pending positions below this have been indexed.
    std::int32_t indexed_end = 0;
    /// Per task: bumped whenever its locations are recomputed.
    std::vector<std::uint32_t> stamp;
    Keyed<NodeBuckets> by_node;
    Keyed<Bucket> by_rack;
    Bucket no_pref;
    Bucket in_memory;
  };
  /// A stage's candidate masks: bit e is set whenever e's executor
  /// bucket (Process), node(e)'s bucket (Node) or rack(e)'s bucket
  /// (Rack) has a live entry. A node's or a rack's bits are set and
  /// cleared together, so any one of them tells all.
  enum class Mask { Process, Node, Rack };
  [[nodiscard]] std::uint64_t* mask(StageId s, Mask m) {
    return &masks_[(static_cast<std::size_t>(s.value()) * 3 +
                    static_cast<std::size_t>(m)) *
                   words_];
  }

  /// Catches up with the journal and with the stage's re-queues,
  /// building the stage's buckets on its first ask, and points memo_ at
  /// the stage as it is now.
  StageIndex& sync(const JobState& state, const BlockManagerMaster& master,
                   const StageRuntime& rt);
  void catch_up(const JobState& state, const BlockManagerMaster& master);
  void build(const JobState& state, const BlockManagerMaster& master,
             StageId s, StageIndex& si);
  /// (Re)computes `task`'s locations and pushes one live entry for each.
  void index_task(const JobState& state, const BlockManagerMaster& master,
                  StageId s, StageIndex& si, std::int32_t task);
  /// Task of `bucket`'s top live entry, popping the stale ones above it;
  /// nullopt when none is live or `bucket` is null.
  static std::optional<std::int32_t> first_live(Bucket* bucket,
                                                const PendingList& pending,
                                                const StageIndex& si);

  /// Journal position up to which every entry has been applied.
  std::uint64_t cursor_ = 0;
  /// Indexed by stage id.
  std::vector<StageIndex> stages_;
  /// Words per bitmap over executor ids.
  std::size_t words_ = 0;
  /// Every stage's three candidate masks in one block (see mask()); a
  /// stage's are zeroed when it is built.
  std::vector<std::uint64_t> masks_;
  /// Per RDD id: the built stages that read it through a narrow edge.
  std::vector<std::vector<StageId>> watchers_;
  /// What holds for one stage while its pending set (its epoch) and the
  /// placement (the cursor) stay as they are: whether any pending task
  /// has a memory copy (the ladder's Process rung).
  struct Memo {
    StageId stage = StageId::invalid();
    std::uint64_t epoch = 0;
    std::uint64_t cursor = 0;
    bool any_in_memory = false;
  };
  Memo memo_;
  /// candidates()'s buffer.
  std::vector<std::uint64_t> candidates_;
  /// index_task's scratch: the task's executors, nodes and racks.
  std::vector<std::int32_t> execs_;
  std::vector<std::int32_t> nodes_;
  std::vector<std::int32_t> racks_;
};

}  // namespace dagon
