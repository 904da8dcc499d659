// ReferenceOracle: the shared "who will still use this block" knowledge
// base behind every DAG-aware cache policy.
//
// It is the simulator-side equivalent of the paper's reference-priority
// profile maintained by BlockManagerMaster (Fig. 7): the DAG fixes which
// stages read which blocks; the scheduler streams in live stage state
// (task launches, finished stages, current stage, priority values pv_i),
// and the policies query derived quantities:
//   * remaining reference count          -> LRC
//   * stage reference distance (FIFO)    -> MRD
//   * reference priority (max pv)        -> LRP (Definition 1)
//
// References are tracked per (block, stage) pair and *consumed* as the
// reading tasks launch: once every task of stage s that reads block b
// has started, s no longer holds a reference on b — this is what lets
// MRD/LRP discard data the moment its last reader has picked it up
// (Fig. 6's per-stage reference deletion). A narrow reader's count is
// its own (task k reads block k); a shuffle reader's count is shared
// by every block of the parent, because each of its tasks reads them
// all, so a launch moves one counter per shuffle edge (DESIGN.md §12).
//
// Each block also carries its live count: the number of its (block,
// reader stage) records whose stage is unfinished and active and still
// has a reading task to launch. The four updates that can change a
// record's liveness keep it — a launch consuming a narrow count or
// emptying a shuffle edge's counter, a stage finishing, a lineage
// reopen (un-finishing the stage), and a gate flip — so
// remaining_ref_count() is O(1). Every time a count crosses zero the
// oracle tells one hook (set_reference_hook), which is how
// BlockManagerMaster keeps its prefetch index to referenced blocks.
// Debug builds hold each answer to a walk of the block's records.
//
// Online serving extends the same structure across jobs. The merged
// serving DAG contains every job's stages, so one oracle aggregates
// remaining references over all of them; stages of jobs that have not
// *arrived* yet are inactive (the driver names them to the constructor,
// and set_stage_active switches them on when their JobSubmit fires) and
// hold no live references until then — a cache policy only ever sees
// demand from jobs the cluster actually knows about. The LERC
// policy (arXiv:1708.07941) additionally needs peer-group state: a
// consumer task's peers are the cacheable blocks it reads together (for
// narrow deps, partition p of every cacheable parent), and a hit is
// only effective when the whole group is memory-resident.
// BlockManagerMaster mirrors residency in via set_memory_resident;
// effective_ref_count(b) then counts the live reader stages whose
// consuming task's peer group would be fully cached if b itself were —
// the "effective cache hit" criterion (all-or-nothing caching per
// consumer task). Peer tracking is off unless enabled explicitly, so
// non-LERC runs never touch (or pay for) the mirror.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/units.hpp"
#include "dag/job_dag.hpp"

namespace dagon {

class ReferenceOracle {
 public:
  /// Distance value meaning "no unfinished stage will ever read this".
  static constexpr int kNeverUsed = std::numeric_limits<int>::max();

  /// Stages listed in `inactive` start inactive (serving: jobs not
  /// submitted yet); every other stage starts active.
  explicit ReferenceOracle(const JobDag& dag,
                           const std::vector<StageId>& inactive = {});

  // -- updates streamed from the scheduler / simulation ------------------

  /// A (non-speculative) task launched: consume its block references.
  void on_task_launched(StageId stage, std::int32_t task);

  /// Marks stage finished: all its remaining references disappear.
  void mark_stage_finished(StageId stage);

  /// Lineage recovery: exact inverse of on_task_launched for a re-opened
  /// task — its block references become live again (and the stage is
  /// un-finished) so cache policies keep the recomputation's inputs warm.
  void restore_task_refs(StageId stage, std::int32_t task);

  /// Current priority values pv_i (Eq. 6), indexed by stage id, copied
  /// into the oracle's snapshot in place. The driver pushes its
  /// JobState's values after every event that moved them, under any
  /// scheduler, so LRP stays well-defined in ablations. Until the first
  /// push the snapshot holds the ground-truth initial values
  /// (PriorityValues(dag)).
  void set_priority_values(const std::vector<CpuWork>& pv);

  /// The stage whose tasks are currently being launched, as a position
  /// in FIFO (stage-id) order; MRD measures distances from here.
  void set_current_stage(StageId stage);

  /// Serving mode: stages of jobs that have not arrived yet are marked
  /// inactive — their references are not live, so cross-job policies
  /// only see demand from submitted jobs. Stages default to active.
  void set_stage_active(StageId stage, bool active);

  /// Called with each block whose live count (remaining_ref_count)
  /// crosses zero: `referenced` is true when it rose from zero, false
  /// when it fell to zero. It runs inside the update, so it must not
  /// query or update the oracle.
  using ReferenceHook = std::function<void(const BlockId& block,
                                           bool referenced)>;
  /// Installs the one hook; throws InvariantError if one is installed.
  void set_reference_hook(ReferenceHook hook);
  void clear_reference_hook() { hook_ = nullptr; }

  // -- LERC peer groups (effective-cache-hit management) -----------------

  /// Builds the per-task peer-group counters (for every consumer task,
  /// how many of its cacheable narrow input blocks are NOT
  /// memory-resident). Must be called before the first
  /// set_memory_resident; idempotent. Only the LERC policy needs this —
  /// when never enabled, residency mirroring is a no-op and single-job
  /// runs stay bit-identical.
  void enable_peer_tracking();

  [[nodiscard]] bool peer_tracking_enabled() const {
    return peer_tracking_;
  }

  /// BlockManagerMaster mirrors memory residency here: `resident` flips
  /// when `block` gains its first / loses its last memory copy anywhere
  /// in the cluster. No-op unless peer tracking is enabled.
  void set_memory_resident(const BlockId& block, bool resident);

  /// LERC's count: live narrow-reader stages of `block` whose consuming
  /// task's peer group (partition p of every cacheable narrow parent)
  /// would be fully memory-resident if `block` itself were cached. A
  /// block with effective count 0 cannot currently produce an effective
  /// hit, so caching it is wasted memory — while a block that would
  /// *complete* a group outranks every broken-group resident. Requires
  /// peer tracking.
  [[nodiscard]] int effective_ref_count(const BlockId& block) const;

  // -- queries ------------------------------------------------------------

  /// Number of live stage references on `block` (LRC's count). O(1):
  /// the block's live count.
  [[nodiscard]] int remaining_ref_count(const BlockId& block) const;

  /// MRD's stage reference distance: (next live reader's stage id) −
  /// (current stage id), minimum over live references; >= 0; kNeverUsed
  /// when no live reference remains.
  [[nodiscard]] int stage_distance(const BlockId& block) const;

  /// LRP's reference priority: max pv over live reader stages; 0 when
  /// none (inactive data, proactively evictable).
  [[nodiscard]] CpuWork reference_priority(const BlockId& block) const;

  /// Stages still holding a live reference on `block`, from a walk of
  /// its records.
  [[nodiscard]] std::vector<StageId> live_readers(const BlockId& block) const;

  [[nodiscard]] bool stage_finished(StageId stage) const;

  [[nodiscard]] const JobDag& dag() const { return *dag_; }

  [[nodiscard]] CpuWork priority_value(StageId stage) const;

  /// Monotonic counter bumped on every mutation (launch/finish/restore/
  /// pv/current-stage). Consumers caching oracle-derived answers (e.g.
  /// BlockManager's dead-block sweep) compare it to skip re-computation
  /// when nothing could have changed.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  /// One (block, reader stage) record. `count` >= 0 is a narrow
  /// reader's tasks that have not launched yet (0 = consumed); `count` <
  /// 0 names the shared counter of a shuffle edge, ~count in
  /// shuffle_remaining_.
  struct Ref {
    StageId stage;
    std::int32_t count = 0;
  };
  static_assert(sizeof(Ref) == 8);

  [[nodiscard]] std::size_t ord(const BlockId& block) const {
    return static_cast<std::size_t>(dag_->block_ord(block));
  }
  [[nodiscard]] const std::vector<Ref>& refs_of(const BlockId& block) const {
    return refs_[ord(block)];
  }
  [[nodiscard]] std::vector<Ref>& refs_of(const BlockId& block) {
    return refs_[ord(block)];
  }
  /// `stage`'s index into the per-stage arrays; throws InvariantError
  /// if it names no stage of the DAG.
  [[nodiscard]] std::size_t stage_slot(StageId stage) const;
  /// Reading tasks of `ref`'s stage that have not launched yet.
  [[nodiscard]] std::int32_t remaining(const Ref& ref) const {
    return ref.count >= 0
               ? ref.count
               : shuffle_remaining_[static_cast<std::size_t>(~ref.count)];
  }
  /// Unfinished and active: the stage's records with a reading task
  /// left are live.
  [[nodiscard]] bool stage_live(StageId stage) const {
    const std::size_t i = stage_slot(stage);
    return !finished_[i] && active_[i] != 0;
  }
  [[nodiscard]] bool live(const Ref& ref) const {
    return remaining(ref) > 0 && stage_live(ref.stage);
  }
  /// `stage`'s narrow record on `block`.
  [[nodiscard]] std::int32_t& narrow_count(const BlockId& block,
                                           StageId stage);
  /// Calls `fn(std::int32_t& count, const RddRef& edge)` on each count
  /// task `task` of `stage` moves: the block's record for a narrow edge,
  /// the shared counter for a shuffle edge. Zero-byte parents are
  /// skipped: no task reads them, so their references last until the
  /// stage finishes.
  template <class Fn>
  void for_each_task_count(StageId stage, std::int32_t task, Fn&& fn);
  /// Adds `delta` to the live count of every block `edge` of a stage
  /// reads in one record: block `task` of a narrow edge, every block of
  /// a shuffle edge.
  void move_edge(const RddRef& edge, std::int32_t task, std::int32_t delta);
  /// Adds `delta` to the live count of every block on which `stage`'s
  /// record has a reading task left: `stage` just became live (+1) or
  /// stopped being live (-1).
  void move_stage(StageId stage, std::int32_t delta);
  /// Adds `delta` to `block`'s live count and tells the hook when the
  /// count crosses zero.
  void move_live(const BlockId& block, std::int32_t delta);

  const JobDag* dag_;
  /// Per-stage reference records (ascending stage id), indexed by dense
  /// block ordinal (JobDag::block_ord); empty for unreferenced blocks.
  std::vector<std::vector<Ref>> refs_;
  /// Live records per block ordinal: always the count of refs_[o]'s
  /// records for which live() holds.
  std::vector<std::int32_t> live_count_;
  ReferenceHook hook_;
  /// One remaining-task counter per shuffle edge, in stage order and,
  /// within a stage, input order; shuffle_first_[s] is stage s's first.
  std::vector<std::int32_t> shuffle_remaining_;
  std::vector<std::int32_t> shuffle_first_;
  std::vector<bool> finished_;
  /// 0 = the stage's job has not arrived; its references are inactive.
  std::vector<char> active_;
  std::vector<CpuWork> pv_;
  std::int32_t current_stage_ord_ = 0;
  std::uint64_t epoch_ = 0;

  // -- peer-group state (populated by enable_peer_tracking) --------------
  [[nodiscard]] std::size_t group_ord(StageId stage,
                                      std::int32_t task) const {
    return static_cast<std::size_t>(
        task_group_offset_[static_cast<std::size_t>(stage.value())] + task);
  }

  bool peer_tracking_ = false;
  /// 1 = some executor holds this block ordinal in memory.
  std::vector<char> in_memory_;
  /// Stages reading each RDD through a narrow dep (cacheable parents
  /// only): the consumers whose task-level peer groups the RDD's blocks
  /// belong to. Indexed by RDD id.
  std::vector<std::vector<StageId>> narrow_readers_;
  /// Per (stage, task) — flattened via task_group_offset_: cacheable
  /// narrow input blocks of that task currently NOT memory-resident.
  /// 0 means the task's whole peer group is cached (its read would be
  /// an effective hit).
  std::vector<std::int32_t> task_missing_;
  /// Prefix sums of num_tasks by stage id; size num_stages + 1.
  std::vector<std::int64_t> task_group_offset_;
};

}  // namespace dagon
