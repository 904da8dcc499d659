#include "cache/block_manager_master.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dagon {

BlockManagerMaster::BlockManagerMaster(const Topology& topo,
                                       const JobDag& dag,
                                       const HdfsPlacement& hdfs,
                                       ReferenceOracle& oracle,
                                       const CachePolicy& policy,
                                       bool cache_enabled)
    : topo_(&topo),
      dag_(&dag),
      hdfs_(&hdfs),
      oracle_(&oracle),
      policy_(&policy),
      cache_enabled_(cache_enabled) {
  managers_.reserve(topo.num_executors());
  for (const Executor& e : topo.executors()) {
    managers_.emplace_back(e.id, e.cache_bytes, policy);
  }
  const auto nb = static_cast<std::size_t>(dag.num_blocks());
  memory_copies_.resize(nb);
  produced_disk_.resize(nb);
  produced_by_.resize(nb);
  prefetchable_.assign(nb, 0);
  prefetch_by_node_.resize(topo.num_nodes());
  suspect_.assign(topo.num_executors(), 0);
  residency_.assign(nb, BlockResidency::Absent);
  // Input blocks are born on HDFS node disks: Disk is their *initial*
  // lifecycle state, seeded directly (there is no edge into it from
  // Absent — only produced blocks materialize).
  for (const Rdd& rdd : dag.rdds()) {
    if (!rdd.is_input) continue;
    for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
      const BlockId block{rdd.id, p};
      if (!hdfs.replicas(block).empty()) {
        // dagonlint: allow(raw-transition): initial-state seed, not a
        // transition — input blocks are born Disk and no table edge
        // leads there from Absent.
        residency_[ord(block)] = BlockResidency::Disk;
      }
    }
  }
  // Cacheable input blocks start on HDFS disk with no memory copy: they
  // are the initial prefetch candidates (MRD pre-warms the first
  // stages' inputs this way).
  if (cache_enabled_) {
    for (const Rdd& rdd : dag.rdds()) {
      if (!rdd.is_input || !rdd.cacheable) continue;
      for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
        add_prefetchable(ord(BlockId{rdd.id, p}));
      }
    }
  }
}

void BlockManagerMaster::index_prefetchable(std::size_t o) {
  const auto signed_ord = static_cast<std::int64_t>(o);
  for (const NodeId n : hdfs_->replicas_by_ord(signed_ord)) {
    prefetch_by_node_[static_cast<std::size_t>(n.value())].insert(signed_ord);
  }
  for (const NodeId n : produced_disk_[o]) {
    prefetch_by_node_[static_cast<std::size_t>(n.value())].insert(signed_ord);
  }
}

void BlockManagerMaster::unindex_prefetchable(std::size_t o) {
  const auto signed_ord = static_cast<std::int64_t>(o);
  for (const NodeId n : hdfs_->replicas_by_ord(signed_ord)) {
    prefetch_by_node_[static_cast<std::size_t>(n.value())].erase(signed_ord);
  }
  for (const NodeId n : produced_disk_[o]) {
    prefetch_by_node_[static_cast<std::size_t>(n.value())].erase(signed_ord);
  }
}

void BlockManagerMaster::add_prefetchable(std::size_t o) {
  if (prefetchable_[o] != 0) return;
  prefetchable_[o] = 1;
  index_prefetchable(o);
}

void BlockManagerMaster::remove_prefetchable(std::size_t o) {
  if (prefetchable_[o] == 0) return;
  prefetchable_[o] = 0;
  unindex_prefetchable(o);
}

void BlockManagerMaster::set_residency(const BlockId& block,
                                       BlockResidency to) {
  // Entity id packs (rdd, partition) for transition diagnostics.
  const auto entity =
      (static_cast<std::int64_t>(block.rdd.value()) << 32) | block.partition;
  fsm::transition(residency_[ord(block)], to, entity, fsm_violations_);
}

void BlockManagerMaster::verify_residency() const {
  for (std::int64_t o = 0; o < dag_->num_blocks(); ++o) {
    const BlockId block = dag_->block_at(o);
    const BlockResidency r = residency_[static_cast<std::size_t>(o)];
    const bool in_memory = !memory_copies_[static_cast<std::size_t>(o)].empty();
    switch (r) {
      case BlockResidency::Absent:
      case BlockResidency::Lost:
        DAGON_CHECK_MSG(!exists(block),
                        "block " << block << " is " << to_string(r)
                                 << " but a copy exists");
        break;
      case BlockResidency::Materializing:
        DAGON_CHECK_MSG(false, "block " << block
                                        << " stuck Materializing");
        break;
      case BlockResidency::Memory:
        DAGON_CHECK_MSG(in_memory,
                        "block " << block << " is Memory but no holder");
        break;
      case BlockResidency::Disk:
      case BlockResidency::Evicted:
        DAGON_CHECK_MSG(!in_memory && exists(block),
                        "block " << block << " is " << to_string(r)
                                 << " but copies diverge");
        break;
    }
  }
}

Bytes BlockManagerMaster::block_bytes(const BlockId& block) const {
  return dag_->rdd(block.rdd).bytes_per_partition;
}

void BlockManagerMaster::seed_initial_cache(SimTime now) {
  if (!cache_enabled_) return;
  for (const Rdd& rdd : dag_->rdds()) {
    if (!rdd.is_input || rdd.initially_cached_partitions == 0) continue;
    for (std::int32_t p = 0; p < rdd.initially_cached_partitions; ++p) {
      const BlockId block{rdd.id, p};
      const auto& replicas = hdfs_->replicas(block);
      DAGON_CHECK_MSG(!replicas.empty(),
                      "initially-cached block " << block << " not on HDFS");
      const Node& node = topo_->node(replicas.front());
      DAGON_CHECK(!node.executors.empty());
      const ExecutorId exec = node.executors.front();
      auto result = managers_[static_cast<std::size_t>(exec.value())].insert(
          block, rdd.bytes_per_partition, now, *oracle_);
      apply_insert(result, block, exec);
    }
  }
}

bool BlockManagerMaster::exists(const BlockId& block) const {
  const std::size_t o = ord(block);
  if (!memory_copies_[o].empty()) return true;
  if (!produced_disk_[o].empty()) return true;
  return !hdfs_->replicas_by_ord(static_cast<std::int64_t>(o)).empty();
}

BlockManagerMaster::Lookup BlockManagerMaster::lookup(
    const BlockId& block, ExecutorId reader) const {
  const NodeId my_node = topo_->node_of(reader);
  const RackId my_rack = topo_->rack_of(my_node);
  const std::size_t o = ord(block);

  Lookup best;
  int best_rank = INT32_MAX;
  auto consider = [&](BlockSource src, ExecutorId holder, NodeId disk_node) {
    const int rank = static_cast<int>(src);
    if (rank < best_rank) {
      best_rank = rank;
      best = Lookup{src, holder, disk_node};
    }
  };

  for (const ExecutorId holder : memory_copies_[o]) {
    if (holder == reader) {
      consider(BlockSource::LocalMemory, holder, NodeId::invalid());
    } else {
      const NodeId hn = topo_->node_of(holder);
      if (hn == my_node) {
        consider(BlockSource::SameNodeMemory, holder, NodeId::invalid());
      } else if (topo_->rack_of(hn) == my_rack) {
        consider(BlockSource::RackMemory, holder, NodeId::invalid());
      } else {
        consider(BlockSource::RemoteMemory, holder, NodeId::invalid());
      }
    }
  }

  auto consider_disk = [&](NodeId n) {
    if (n == my_node) {
      consider(BlockSource::LocalDisk, ExecutorId::invalid(), n);
    } else if (topo_->rack_of(n) == my_rack) {
      consider(BlockSource::RackDisk, ExecutorId::invalid(), n);
    } else {
      consider(BlockSource::RemoteDisk, ExecutorId::invalid(), n);
    }
  };
  for (const NodeId n : hdfs_->replicas_by_ord(static_cast<std::int64_t>(o))) {
    consider_disk(n);
  }
  for (const NodeId n : produced_disk_[o]) consider_disk(n);

  DAGON_CHECK_MSG(best_rank != INT32_MAX,
                  "block " << block << " read before it exists anywhere");
  return best;
}

void BlockManagerMaster::apply_insert(
    const BlockManager::InsertResult& result, const BlockId& block,
    ExecutorId exec) {
  for (const BlockId& evicted : result.evicted) {
    note_evicted(evicted, exec);
    ++counters_.evictions;
  }
  const std::size_t o = ord(block);
  if (result.admitted) {
    auto& holders = memory_copies_[o];
    if (std::find(holders.begin(), holders.end(), exec) == holders.end()) {
      holders.push_back(exec);
      ++placement_version_;
    }
    // First holder promotes the block to Memory (from Materializing on
    // the produce path, Disk on a read-admit, Evicted on a re-admit).
    if (residency_[o] != BlockResidency::Memory) {
      set_residency(block, BlockResidency::Memory);
      // Mirror into the oracle's LERC peer groups (no-op unless enabled).
      oracle_->set_memory_resident(block, true);
    }
    remove_prefetchable(o);
    ++counters_.insertions;
  } else {
    ++counters_.rejected_admissions;
    // A refused produce-time admission still has its durable disk copy.
    if (residency_[o] == BlockResidency::Materializing) {
      set_residency(block, BlockResidency::Disk);
    }
    if (dag_->rdd(block.rdd).cacheable && memory_copies_[o].empty()) {
      add_prefetchable(o);
    }
  }
}

void BlockManagerMaster::note_evicted(const BlockId& block, ExecutorId exec) {
  const std::size_t o = ord(block);
  auto& holders = memory_copies_[o];
  if (holders.empty()) return;
  holders.erase(std::remove(holders.begin(), holders.end(), exec),
                holders.end());
  ++placement_version_;
  if (holders.empty()) {
    // Last memory copy gone; the durable disk copy keeps the block
    // recoverable (eviction is always safe, DESIGN.md §4).
    set_residency(block, BlockResidency::Evicted);
    // Mirror into the oracle's LERC peer groups (no-op unless enabled).
    oracle_->set_memory_resident(block, false);
    if (dag_->rdd(block.rdd).cacheable) add_prefetchable(o);
  }
}

void BlockManagerMaster::on_block_produced(const BlockId& block,
                                           ExecutorId exec, SimTime now) {
  const NodeId node = topo_->node_of(exec);
  const std::size_t o = ord(block);
  auto& producers = produced_by_[o];
  if (std::find(producers.begin(), producers.end(), exec) ==
      producers.end()) {
    producers.push_back(exec);
  }
  auto& disks = produced_disk_[o];
  if (std::find(disks.begin(), disks.end(), node) == disks.end()) {
    // A flagged block gains a disk-holder node: keep the per-node
    // candidate index in sync (unindex before, reindex after).
    const bool was_pf = prefetchable_[o] != 0;
    if (was_pf) unindex_prefetchable(o);
    disks.push_back(node);
    if (was_pf) index_prefetchable(o);
    ++placement_version_;
  }
  // Lifecycle: Absent → Materializing on first production, Lost →
  // Materializing on a lineage recompute; apply_insert (or the
  // non-cacheable early-out below) then settles Memory vs Disk.
  set_residency(block, BlockResidency::Materializing);
  const Rdd& rdd = dag_->rdd(block.rdd);
  if (!cache_enabled_ || !rdd.cacheable ||
      rdd.bytes_per_partition <= Bytes{0}) {
    set_residency(block, BlockResidency::Disk);
    return;
  }
  auto result = managers_[static_cast<std::size_t>(exec.value())].insert(
      block, rdd.bytes_per_partition, now, *oracle_);
  apply_insert(result, block, exec);
}

void BlockManagerMaster::on_block_read(const BlockId& block, ExecutorId exec,
                                       const Lookup& how, SimTime now) {
  if (!cache_enabled_) return;
  if (how.source == BlockSource::LocalMemory) {
    managers_[static_cast<std::size_t>(exec.value())].touch(block, now);
    return;
  }
  if (is_memory_source(how.source)) {
    // Remote-memory reads refresh the holder's recency but do not
    // duplicate the block locally (Spark semantics).
    if (how.holder.valid()) {
      managers_[static_cast<std::size_t>(how.holder.value())].touch(block,
                                                                    now);
    }
    return;
  }
  // Disk read of a persisted RDD: materialize in the reader's cache.
  const Rdd& rdd = dag_->rdd(block.rdd);
  if (!rdd.cacheable || rdd.bytes_per_partition <= Bytes{0}) return;
  auto result = managers_[static_cast<std::size_t>(exec.value())].insert(
      block, rdd.bytes_per_partition, now, *oracle_);
  apply_insert(result, block, exec);
}

int BlockManagerMaster::proactive_sweep() {
  if (!cache_enabled_ || !policy_->proactive_eviction()) return 0;
  int dropped = 0;
  for (BlockManager& m : managers_) {
    for (const BlockId& b : m.evict_dead(*oracle_)) {
      note_evicted(b, m.executor());
      ++counters_.proactive_evictions;
      ++dropped;
    }
  }
  return dropped;
}

std::optional<BlockManagerMaster::PrefetchChoice>
BlockManagerMaster::prefetch_candidate(ExecutorId exec) const {
  if (!cache_enabled_) return std::nullopt;
  const NodeId my_node = topo_->node_of(exec);
  const BlockManager& mgr =
      managers_[static_cast<std::size_t>(exec.value())];

  std::optional<PrefetchChoice> best;
  double best_priority = 0.0;
  // Prefetch fills FREE space only: "when the free cache space reaches a
  // certain threshold, it prefetches the in-disk data block whose
  // reference priority is the largest" (§IV). Eviction-to-prefetch (as
  // in MRD's own paper) measured net-negative here — see the prefetch
  // ablation bench. Node-local disk blocks only: prefetching is a local
  // disk->memory promotion that overlaps computation, so the scan covers
  // exactly this node's candidate set (cacheable + on local disk + not
  // in memory), maintained incrementally. Ascending ordinal == ascending
  // block id, so ties resolve to the smallest block id as before.
  for (const std::int64_t o :
       prefetch_by_node_[static_cast<std::size_t>(my_node.value())]) {
    const BlockId block = dag_->block_at(o);
    const Bytes bytes = block_bytes(block);
    if (bytes <= Bytes{0} || bytes > mgr.free_bytes()) continue;
    const auto priority = policy_->prefetch_priority(block, *oracle_);
    if (!priority) continue;
    if (!best || *priority > best_priority ||
        (*priority == best_priority && block < best->block)) {
      best = PrefetchChoice{block, bytes, my_node};
      best_priority = *priority;
    }
  }
  return best;
}

bool BlockManagerMaster::finish_prefetch(const BlockId& block,
                                         ExecutorId exec, SimTime now) {
  if (!cache_enabled_) return false;
  auto result = managers_[static_cast<std::size_t>(exec.value())].insert(
      block, block_bytes(block), now, *oracle_, /*strict_admission=*/true);
  apply_insert(result, block, exec);
  if (result.admitted) ++counters_.prefetches;
  return result.admitted;
}

BlockManagerMaster::DropResult BlockManagerMaster::drop_executor(
    ExecutorId exec) {
  DropResult result;

  // 1. Destroy the executor's memory store (ascending block id for
  // deterministic placement_version / prefetchable churn).
  BlockManager& mgr = manager(exec);
  std::vector<BlockId> mem_blocks;
  mem_blocks.reserve(mgr.num_blocks());
  for (const BlockManager::Entry& e : mgr.entries()) {
    mem_blocks.push_back(e.id);
  }
  for (const BlockId& block : mem_blocks) {
    mgr.remove(block);
    note_evicted(block, exec);
    ++result.memory_dropped;
  }

  // 2. Destroy the durable disk copies this executor produced. The node
  // keeps a copy only if another (surviving) producer on the same node
  // also wrote it. Ascending-ordinal scan == ascending block id.
  std::vector<std::size_t> disk_blocks;
  for (std::size_t o = 0; o < produced_by_.size(); ++o) {
    const auto& producers = produced_by_[o];
    if (std::find(producers.begin(), producers.end(), exec) !=
        producers.end()) {
      disk_blocks.push_back(o);
    }
  }
  for (const std::size_t o : disk_blocks) {
    const BlockId block = dag_->block_at(static_cast<std::int64_t>(o));
    auto& producers = produced_by_[o];
    producers.erase(std::remove(producers.begin(), producers.end(), exec),
                    producers.end());
    std::vector<NodeId> nodes;
    for (const ExecutorId p : producers) {
      const NodeId n = topo_->node_of(p);
      if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
        nodes.push_back(n);
      }
    }
    auto& disks = produced_disk_[o];
    if (nodes.size() == disks.size()) continue;  // node copy survives
    result.disk_dropped +=
        static_cast<std::int64_t>(disks.size() - nodes.size());
    // The block's disk-holder set is about to change; a flagged block
    // must leave the per-node index for the stale set and rejoin for the
    // new one (or not at all, if it ends up Lost).
    const bool was_pf = prefetchable_[o] != 0;
    if (was_pf) unindex_prefetchable(o);
    disks = std::move(nodes);
    ++placement_version_;

    if (!disks.empty() ||
        !hdfs_->replicas_by_ord(static_cast<std::int64_t>(o)).empty()) {
      if (was_pf) index_prefetchable(o);
      continue;  // a durable copy survives elsewhere
    }
    // Last disk copy gone. If some executor still caches the block,
    // immediately re-materialize a disk copy at that holder's node so
    // the eviction-is-always-safe invariant keeps holding.
    const auto& mem = memory_copies_[o];
    if (!mem.empty()) {
      const ExecutorId holder = *std::min_element(mem.begin(), mem.end());
      producers.push_back(holder);
      disks.push_back(topo_->node_of(holder));
      ++placement_version_;
      ++result.rereplicated;
      if (was_pf) index_prefetchable(o);
    } else {
      // No copy anywhere: only lineage recomputation can bring it back.
      // The memory-drop pass above already moved the block to Evicted if
      // this executor held the last memory copy, so the edge here is
      // Disk → Lost or Evicted → Lost.
      set_residency(block, BlockResidency::Lost);
      prefetchable_[o] = 0;  // already unindexed above (if flagged)
      result.lost.push_back(block);
    }
  }
  return result;
}

bool BlockManagerMaster::drop_memory_block(const BlockId& block,
                                           ExecutorId exec) {
  if (!manager(exec).remove(block)) return false;
  note_evicted(block, exec);
  return true;
}

void BlockManagerMaster::set_executor_suspect(ExecutorId exec, bool suspect) {
  auto& flag = suspect_[static_cast<std::size_t>(exec.value())];
  const char value = suspect ? 1 : 0;
  if (flag == value) return;
  flag = value;
  // No block moved, but locality answers derived from this executor's
  // memory copies just changed — invalidate the memos.
  ++placement_version_;
}

bool BlockManagerMaster::any_healthy_memory_holder(
    const BlockId& block) const {
  for (const ExecutorId holder : memory_holders(block)) {
    if (!executor_suspect(holder)) return true;
  }
  return false;
}

BlockManagerMaster::RereplicationResult
BlockManagerMaster::rereplicate_suspect_blocks(ExecutorId target) {
  RereplicationResult result;
  DAGON_CHECK(!executor_suspect(target));

  // At-risk = every produced-disk attribution on a suspect executor, no
  // HDFS replica, and no healthy memory holder. Ascending-ordinal scan
  // for deterministic placement_version churn.
  std::vector<std::size_t> at_risk;
  for (std::size_t o = 0; o < produced_by_.size(); ++o) {
    const auto& producers = produced_by_[o];
    if (producers.empty()) continue;
    bool all_suspect = true;
    for (const ExecutorId p : producers) {
      if (!executor_suspect(p)) {
        all_suspect = false;
        break;
      }
    }
    if (!all_suspect) continue;
    if (!hdfs_->replicas_by_ord(static_cast<std::int64_t>(o)).empty()) {
      continue;
    }
    bool any_healthy = false;
    for (const ExecutorId holder : memory_copies_[o]) {
      if (!executor_suspect(holder)) {
        any_healthy = true;
        break;
      }
    }
    if (any_healthy) continue;
    at_risk.push_back(o);
  }

  const NodeId target_node = topo_->node_of(target);
  for (const std::size_t o : at_risk) {
    produced_by_[o].push_back(target);
    auto& disks = produced_disk_[o];
    if (std::find(disks.begin(), disks.end(), target_node) == disks.end()) {
      const bool was_pf = prefetchable_[o] != 0;
      if (was_pf) unindex_prefetchable(o);
      disks.push_back(target_node);
      if (was_pf) index_prefetchable(o);
    }
    ++placement_version_;
    ++result.blocks;
    result.bytes +=
        std::max(block_bytes(dag_->block_at(static_cast<std::int64_t>(o))),
                 Bytes{0});
  }
  return result;
}

BlockManager& BlockManagerMaster::manager(ExecutorId exec) {
  DAGON_CHECK(exec.valid() &&
              static_cast<std::size_t>(exec.value()) < managers_.size());
  return managers_[static_cast<std::size_t>(exec.value())];
}

const BlockManager& BlockManagerMaster::manager(ExecutorId exec) const {
  DAGON_CHECK(exec.valid() &&
              static_cast<std::size_t>(exec.value()) < managers_.size());
  return managers_[static_cast<std::size_t>(exec.value())];
}

}  // namespace dagon
