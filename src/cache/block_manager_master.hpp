// BlockManagerMaster: cluster-wide view of block copies and the decision
// point for caching, lookup, proactive eviction and prefetch — the
// simulator analogue of the paper's modified Spark component (Fig. 7).
//
// Physical data rules (see DESIGN.md §4):
//  * input RDD blocks live on HDFS node disks per HdfsPlacement, forever;
//  * every produced block is durably written to the producer node's disk;
//  * memory copies are the cache: eviction drops the memory copy only.
//
// All per-block state is stored in flat arrays indexed by the DAG's
// dense block ordinal (JobDag::block_ord); ordinal order is ascending
// BlockId order, so index-order walks are the deterministic walks the
// sorted_view discipline used to provide (DESIGN.md §11).
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "cache/block_manager.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/hdfs.hpp"
#include "cluster/topology.hpp"
#include "common/fsm.hpp"

namespace dagon {

class BlockManagerMaster {
 public:
  /// `cache_enabled = false` models the paper's caching-disabled ablation
  /// (Fig. 9/10): no block is ever admitted to memory.
  /// A master that prefetches installs `oracle`'s reference hook (see
  /// the prefetch candidate index) and removes it on destruction, so
  /// `oracle` must outlive it and serve no other prefetching master.
  BlockManagerMaster(const Topology& topo, const JobDag& dag,
                     const HdfsPlacement& hdfs, ReferenceOracle& oracle,
                     const CachePolicy& policy, bool cache_enabled = true);
  ~BlockManagerMaster();
  BlockManagerMaster(const BlockManagerMaster&) = delete;
  BlockManagerMaster& operator=(const BlockManagerMaster&) = delete;

  /// Seeds memory with the DAG's initially-cached input partitions (the
  /// black blocks of Fig. 1): each goes to the first executor of its
  /// primary HDFS replica node.
  void seed_initial_cache(SimTime now);

  /// Where executor `reader` would read `block` from right now, best
  /// source first. Throws InvariantError if the block exists nowhere
  /// (reading a block before its producer finished is a scheduler bug).
  struct Lookup {
    BlockSource source = BlockSource::LocalDisk;
    /// Holder executor for memory sources.
    ExecutorId holder = ExecutorId::invalid();
    /// Holder node for disk sources.
    NodeId disk_node = NodeId::invalid();
  };
  [[nodiscard]] Lookup lookup(const BlockId& block, ExecutorId reader) const;

  [[nodiscard]] bool exists(const BlockId& block) const;

  /// Shuffle reads by source (DESIGN.md §11): how many partitions of
  /// `rdd` a reader on `reader`'s node would read from its own node's
  /// disk, from another disk in its rack, and from a disk in another
  /// rack. This is one answer for the whole RDD, and it is given only
  /// when `rdd` is non-cacheable, some stage reads it through a shuffle
  /// edge, and no partition has a memory copy; otherwise nullopt, and
  /// the reader asks lookup() block by block. Throws InvariantError, as
  /// lookup() does, if a partition exists nowhere.
  struct DiskSplit {
    std::int32_t local = 0;
    std::int32_t rack = 0;
    std::int32_t remote = 0;
    friend bool operator==(const DiskSplit&, const DiskSplit&) = default;
  };
  [[nodiscard]] std::optional<DiskSplit> shuffle_disk_split(
      RddId rdd, ExecutorId reader) const;

  /// A task on `exec` finished producing `block`: record the durable
  /// disk copy and (for cacheable RDDs) try to admit it to memory.
  void on_block_produced(const BlockId& block, ExecutorId exec, SimTime now);

  /// A task on `exec` read `block` via `how`. Updates recency; on a disk
  /// read of a cacheable RDD, admits the block into the reader's memory
  /// (Spark caches a persisted partition where it is first materialized).
  void on_block_read(const BlockId& block, ExecutorId exec,
                     const Lookup& how, SimTime now);

  /// Proactively evicts dead blocks everywhere (policies that opt in).
  /// Returns the number of blocks dropped.
  int proactive_sweep();

  /// Best node-local prefetch candidate for `exec`: a disk-resident
  /// block with no memory copy anywhere that fits in `exec`'s free
  /// space, ranked by the policy's prefetch priority, ties to the smaller
  /// BlockId. Returns nullopt when the master does not prefetch (see
  /// prefetches()) or no candidate fits. Ranks the node afresh on each
  /// call; a pass over many executors instead ranks each node once
  /// (rank_prefetch_candidates) and lets every executor pick from it.
  struct PrefetchChoice {
    BlockId block;
    Bytes bytes{};
    NodeId from_disk = NodeId::invalid();
  };
  [[nodiscard]] std::optional<PrefetchChoice> prefetch_candidate(
      ExecutorId exec) const;

  /// One node's prefetch candidates that have a positive size and a
  /// prefetch priority, each with that priority, in ascending BlockId
  /// order. Ranking asks the policy once per candidate; picking only
  /// compares sizes and priorities, so every executor of the node can
  /// pick from one ranking while nothing it read has changed.
  class PrefetchRanking {
   public:
    /// The highest-priority candidate of at most `free` bytes; among
    /// equal priorities the first, i.e. the smallest BlockId.
    [[nodiscard]] std::optional<PrefetchChoice> pick(Bytes free) const;

   private:
    friend class BlockManagerMaster;
    struct Candidate {
      BlockId block;
      Bytes bytes{};
      double priority = 0.0;
    };
    NodeId node_ = NodeId::invalid();
    std::vector<Candidate> candidates_;
  };

  /// Ranks `node`'s candidates into `out`, reusing its buffer.
  void rank_prefetch_candidates(NodeId node, PrefetchRanking& out) const;

  /// Whether `node` has no candidate, so its ranking picks nothing.
  [[nodiscard]] bool prefetch_node_empty(NodeId node) const {
    return prefetch_by_node_[static_cast<std::size_t>(node.value())].empty();
  }
  /// Candidates indexed over all nodes (a block counts once per disk
  /// node); 0 when no ranking can pick anything.
  [[nodiscard]] std::int64_t prefetch_indexed() const {
    return prefetch_indexed_;
  }

  /// Whether prefetching can pick anything: the cache is on and the
  /// policy prefetches. When false the master keeps no candidate index.
  [[nodiscard]] bool prefetches() const { return prefetching_; }

  /// Completes a prefetch: admit into `exec`'s memory (may be refused if
  /// the cache filled up meanwhile).
  bool finish_prefetch(const BlockId& block, ExecutorId exec, SimTime now);

  /// Executors holding `block` in memory (for locality preferences).
  /// Returns a view into internal state; invalidated by any mutation.
  [[nodiscard]] const std::vector<ExecutorId>& memory_holders(
      const BlockId& block) const {
    return memory_copies_[ord(block)];
  }

  /// HDFS replica nodes of `block` (empty for non-input blocks).
  [[nodiscard]] const std::vector<NodeId>& hdfs_replicas(
      const BlockId& block) const {
    return hdfs_->replicas(block);
  }

  /// Nodes holding a produced durable copy of `block`.
  [[nodiscard]] const std::vector<NodeId>& produced_disk_nodes(
      const BlockId& block) const {
    return produced_disk_[ord(block)];
  }

  // -- fault injection ----------------------------------------------------

  /// Everything an executor crash destroyed, from the master's view.
  struct DropResult {
    std::int64_t memory_dropped = 0;
    std::int64_t disk_dropped = 0;
    /// Disk copies re-materialized from a surviving memory holder (keeps
    /// the "every memory block is disk-backed" invariant that makes
    /// normal eviction safe).
    std::int64_t rereplicated = 0;
    /// Blocks whose last copy died: lineage recovery must recompute them.
    std::vector<BlockId> lost;
  };

  /// Executor `exec` crashed: drop its memory copies and every produced
  /// durable disk copy it wrote. Blocks with a surviving memory copy get
  /// a replacement disk copy at the holder's node; blocks with no copy
  /// left anywhere are returned in `lost` (ascending id order).
  DropResult drop_executor(ExecutorId exec);

  /// Random block loss: destroys one memory copy (the disk copy, if any,
  /// survives). Returns false if `exec` no longer holds the block.
  bool drop_memory_block(const BlockId& block, ExecutorId exec);

  // -- gray failures ------------------------------------------------------

  /// Marks `exec` suspect (or clears the mark). Suspect executors still
  /// serve reads — a gray-failed executor is reachable, just untrusted —
  /// but their memory copies grant no locality preference, so the
  /// scheduler stops steering tasks toward them. On a change, journals
  /// every block in `exec`'s memory store: those are the only locality
  /// answers the flip changes.
  void set_executor_suspect(ExecutorId exec, bool suspect);
  [[nodiscard]] bool executor_suspect(ExecutorId exec) const {
    return suspect_[static_cast<std::size_t>(exec.value())] != 0;
  }

  /// Any memory holder of `block` that is not suspect? (The locality
  /// layer's definition of a usable Process preference.)
  [[nodiscard]] bool any_healthy_memory_holder(const BlockId& block) const;

  /// Proactive re-replication: every block whose copies (memory holders,
  /// produced-disk attributions) all live on *currently suspect*
  /// executors and that has no HDFS replica would be fully lost if those
  /// suspects die. Write each such block a durable disk copy attributed
  /// to `target` (same re-materialization as drop_executor), so a later
  /// death degrades to a plain crash with zero lineage recomputes.
  struct RereplicationResult {
    std::int64_t blocks = 0;
    Bytes bytes{};
  };
  RereplicationResult rereplicate_suspect_blocks(ExecutorId target);

  [[nodiscard]] BlockManager& manager(ExecutorId exec);
  [[nodiscard]] const BlockManager& manager(ExecutorId exec) const;

  [[nodiscard]] const ReferenceOracle& oracle() const { return *oracle_; }
  [[nodiscard]] bool cache_enabled() const { return cache_enabled_; }

  [[nodiscard]] Bytes block_bytes(const BlockId& block) const;

  /// Lifetime counters for metrics.
  struct Counters {
    std::int64_t insertions = 0;
    std::int64_t evictions = 0;
    std::int64_t proactive_evictions = 0;
    std::int64_t prefetches = 0;
    std::int64_t rejected_admissions = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // -- placement journal ---------------------------------------------------
  //
  // One entry per change to where a block can be read from or to whether
  // its memory copies grant locality: a memory copy admitted or evicted,
  // a durable disk copy written or destroyed, and on a suspicion flip
  // every block in that executor's memory store. Consumers caching
  // placement-derived answers (PendingTaskIndex, the delay policies'
  // refusal records) keep a cursor into it. Positions count every entry
  // ever appended. The master does not know its readers, so it bounds
  // the journal instead of truncating behind them: an append to a full
  // journal first drops every entry, and a reader whose cursor is then
  // behind journal_begin() must treat every block as changed.

  static constexpr std::size_t kJournalCap = 4096;

  [[nodiscard]] std::uint64_t journal_begin() const {
    return journal_end_ - journal_.size();
  }
  [[nodiscard]] std::uint64_t journal_end() const { return journal_end_; }
  /// Entry at `pos`, for journal_begin() <= pos < journal_end().
  [[nodiscard]] const BlockId& journal_at(std::uint64_t pos) const {
    return journal_[static_cast<std::size_t>(pos - journal_begin())];
  }

  // -- lifecycle (fsm::StateMachine<BlockResidency>) -----------------------

  /// Current residency of `block`. Input blocks start at Disk (HDFS);
  /// a never-produced block reports Absent. Tracked through the block
  /// transition table purely as a shadow of the copy maps — placement
  /// decisions never read it, so it cannot perturb fingerprints.
  [[nodiscard]] BlockResidency residency(const BlockId& block) const {
    return residency_[ord(block)];
  }

  /// Checks every tracked block's residency against the copy maps
  /// (Memory ⟺ a memory holder exists, Disk/Evicted ⟹ durable copy
  /// only, Lost/Absent ⟹ no copy anywhere). Throws InvariantError on
  /// divergence; the driver runs this at quiescence.
  void verify_residency() const;

  /// Release-build sink for illegal residency transitions (folded into
  /// metrics_fingerprint by the driver). Null = throw-only enforcement.
  void set_fsm_violations(fsm::Violations* sink) { fsm_violations_ = sink; }

 private:
  [[nodiscard]] std::size_t ord(const BlockId& block) const {
    return static_cast<std::size_t>(dag_->block_ord(block));
  }

  void apply_insert(const BlockManager::InsertResult& result,
                    const BlockId& block, ExecutorId exec);
  /// The one writer of produced_disk_: applies `change` to `block`'s
  /// produced disk nodes, keeps the prefetch index and the shuffle-read
  /// counts in step (out before the change, back in after), and
  /// journals the block.
  template <class Change>
  void change_disk_nodes(const BlockId& block, Change&& change);
  /// Adds `delta` to the counts of every disk holder of `block`, if its
  /// RDD is tracked for shuffle reads.
  void count_disk_copies(const BlockId& block, std::int32_t delta);
  void note_evicted(const BlockId& block, ExecutorId exec);
  void journal(const BlockId& block);
  /// Routes every residency write through the transition table.
  void set_residency(const BlockId& block, BlockResidency to);

  // -- prefetch candidate index -------------------------------------------
  // prefetchable_[o] flags blocks that are cacheable, durably on disk,
  // and in no executor's memory; prefetch_by_node_[n] holds exactly the
  // flagged blocks that are also referenced (a live stage will still
  // read them: oracle remaining_ref_count > 0) and have a disk copy
  // (HDFS or produced) on node n, so a ranking visits only the
  // node-local blocks that can rank at all: an unreferenced block has
  // no prefetch priority under MRD or LRP. Nothing is flagged unless
  // prefetches(). Invariant: flagged and referenced ⟺ indexed under
  // every current disk-holder node. change_disk_nodes keeps it across
  // every change of a block's disk-node set, add/remove_prefetchable
  // across flag changes, and reference_changed — the oracle's
  // reference hook — across every zero crossing of a live count.
  [[nodiscard]] bool indexed(const BlockId& block) const {
    return prefetchable_[ord(block)] != 0 &&
           oracle_->remaining_ref_count(block) > 0;
  }
  void index_prefetchable(const BlockId& block);
  void unindex_prefetchable(const BlockId& block);
  void add_prefetchable(const BlockId& block);
  void remove_prefetchable(const BlockId& block);
  void reference_changed(const BlockId& block, bool referenced);

  const Topology* topo_;
  const JobDag* dag_;
  const HdfsPlacement* hdfs_;
  ReferenceOracle* oracle_;
  const CachePolicy* policy_;
  bool cache_enabled_;
  /// cache_enabled_ && policy_->prefetches().
  bool prefetching_;

  std::vector<BlockManager> managers_;  // indexed by executor id
  /// Executors holding a memory copy, indexed by block ordinal.
  std::vector<std::vector<ExecutorId>> memory_copies_;
  /// Produced blocks' durable disk nodes (inputs are answered via
  /// hdfs_), indexed by block ordinal.
  std::vector<std::vector<NodeId>> produced_disk_;
  /// Executors that wrote a durable copy of each produced block — the
  /// attribution drop_executor() needs to rebuild produced_disk_ after a
  /// crash. Indexed by block ordinal.
  std::vector<std::vector<ExecutorId>> produced_by_;
  /// Prefetch candidate flags + per-node candidate sets (see above).
  std::vector<char> prefetchable_;
  std::vector<std::set<BlockId>> prefetch_by_node_;
  /// Σ prefetch_by_node_[n].size().
  std::int64_t prefetch_indexed_ = 0;
  // -- shuffle-read counts (shuffle_disk_split) ----------------------------
  // A tracked RDD is a non-cacheable one that some stage reads through a
  // shuffle edge; shuffle_slot_[rdd] is its slot, -1 for the rest. Per
  // slot: partitions with a disk copy (HDFS replica or produced copy)
  // anywhere and with any memory copy, and partitions with a disk copy
  // on each node (slot * num_nodes + node) and in each rack (slot *
  // num_racks + rack). count_disk_copies keeps the disk counts;
  // apply_insert and note_evicted move the memory count when a block
  // gains its first memory holder or loses its last.
  struct ShuffleCounts {
    std::int32_t on_disk = 0;
    std::int32_t in_memory = 0;
  };
  /// `rdd`'s shuffle-read counts; null unless it is tracked.
  [[nodiscard]] ShuffleCounts* tracked_counts(RddId rdd);
  std::vector<std::int32_t> shuffle_slot_;
  std::vector<ShuffleCounts> shuffle_counts_;
  std::vector<std::int32_t> node_disk_counts_;
  std::vector<std::int32_t> rack_disk_counts_;
  /// 1 = suspected by the failure detector (indexed by executor id).
  std::vector<char> suspect_;
  /// Shadow lifecycle state per block ordinal
  /// (fsm::StateMachine<BlockResidency>); Absent until seeded/produced.
  /// Every write flows through set_residency() / fsm::transition().
  std::vector<BlockResidency> residency_;
  fsm::Violations* fsm_violations_ = nullptr;
  Counters counters_;
  /// Entries [journal_begin(), journal_end()) of the placement journal.
  std::vector<BlockId> journal_;
  std::uint64_t journal_end_ = 0;
};

}  // namespace dagon
