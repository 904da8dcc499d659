#include "cache/block_manager_master.hpp"

#include <algorithm>
#include <array>

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
      cache_enabled_(cache_enabled),
      prefetching_(cache_enabled && policy.prefetches()) {
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
  for (const Rdd& rdd : dag.rdds()) {
    if (!rdd.is_input || !rdd.cacheable) continue;
    for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
      add_prefetchable(BlockId{rdd.id, p});
    }
  }
  // Shuffle-read counts: one slot per non-cacheable shuffle parent, in
  // stage order; tracked inputs start with their HDFS replicas.
  shuffle_slot_.assign(dag.rdds().size(), -1);
  std::size_t tracked = 0;
  for (const Stage& s : dag.stages()) {
    for (const RddRef& ref : s.inputs) {
      auto& slot = shuffle_slot_[static_cast<std::size_t>(ref.rdd.value())];
      if (ref.kind == DepKind::Shuffle && !dag.rdd(ref.rdd).cacheable &&
          slot < 0) {
        slot = static_cast<std::int32_t>(tracked++);
      }
    }
  }
  shuffle_counts_.resize(tracked);
  node_disk_counts_.assign(tracked * topo.num_nodes(), 0);
  rack_disk_counts_.assign(tracked * topo.num_racks(), 0);
  for (const Rdd& rdd : dag.rdds()) {
    if (!rdd.is_input ||
        shuffle_slot_[static_cast<std::size_t>(rdd.id.value())] < 0) {
      continue;
    }
    for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
      count_disk_copies(BlockId{rdd.id, p}, 1);
    }
  }
  // Last, so a constructor that throws leaves no hook behind.
  if (prefetching_) {
    oracle.set_reference_hook([this](const BlockId& block, bool referenced) {
      reference_changed(block, referenced);
    });
  }
}

BlockManagerMaster::~BlockManagerMaster() {
  if (prefetching_) oracle_->clear_reference_hook();
}

BlockManagerMaster::ShuffleCounts* BlockManagerMaster::tracked_counts(
    RddId rdd) {
  const std::int32_t slot =
      shuffle_slot_[static_cast<std::size_t>(rdd.value())];
  return slot < 0 ? nullptr
                  : &shuffle_counts_[static_cast<std::size_t>(slot)];
}

void BlockManagerMaster::count_disk_copies(const BlockId& block,
                                           std::int32_t delta) {
  const std::int32_t slot =
      shuffle_slot_[static_cast<std::size_t>(block.rdd.value())];
  if (slot < 0) return;
  // An input's disk copies are its HDFS replicas, a produced block's are
  // its produced copies; neither list names a node twice.
  const std::size_t o = ord(block);
  const auto& hdfs = hdfs_->replicas_by_ord(static_cast<std::int64_t>(o));
  const auto& nodes = hdfs.empty() ? produced_disk_[o] : hdfs;
  if (nodes.empty()) return;
  shuffle_counts_[static_cast<std::size_t>(slot)].on_disk += delta;
  const std::size_t node_base =
      static_cast<std::size_t>(slot) * topo_->num_nodes();
  const std::size_t rack_base =
      static_cast<std::size_t>(slot) * topo_->num_racks();
  for (auto it = nodes.begin(); it != nodes.end(); ++it) {
    node_disk_counts_[node_base + static_cast<std::size_t>(it->value())] +=
        delta;
    // A partition counts once per rack, however many copies share it.
    const RackId rack = topo_->rack_of(*it);
    if (std::none_of(nodes.begin(), it, [&](NodeId earlier) {
          return topo_->rack_of(earlier) == rack;
        })) {
      rack_disk_counts_[rack_base + static_cast<std::size_t>(rack.value())] +=
          delta;
    }
  }
}

template <class Change>
void BlockManagerMaster::change_disk_nodes(const BlockId& block,
                                           Change&& change) {
  const std::size_t o = ord(block);
  // An indexed block leaves the per-node candidate index for its old
  // disk-holder set and rejoins it for the new one.
  const bool was_indexed = indexed(block);
  if (was_indexed) unindex_prefetchable(block);
  count_disk_copies(block, -1);
  change(produced_disk_[o]);
  count_disk_copies(block, 1);
  if (was_indexed) index_prefetchable(block);
  journal(block);
}

void BlockManagerMaster::index_prefetchable(const BlockId& block) {
  const std::size_t o = ord(block);
  const auto insert = [&](NodeId n) {
    prefetch_indexed_ +=
        prefetch_by_node_[static_cast<std::size_t>(n.value())]
            .insert(block)
            .second;
  };
  for (const NodeId n :
       hdfs_->replicas_by_ord(static_cast<std::int64_t>(o))) {
    insert(n);
  }
  for (const NodeId n : produced_disk_[o]) insert(n);
}

void BlockManagerMaster::unindex_prefetchable(const BlockId& block) {
  const std::size_t o = ord(block);
  const auto erase = [&](NodeId n) {
    prefetch_indexed_ -= static_cast<std::int64_t>(
        prefetch_by_node_[static_cast<std::size_t>(n.value())].erase(block));
  };
  for (const NodeId n :
       hdfs_->replicas_by_ord(static_cast<std::int64_t>(o))) {
    erase(n);
  }
  for (const NodeId n : produced_disk_[o]) erase(n);
}

void BlockManagerMaster::add_prefetchable(const BlockId& block) {
  // Nothing is flagged or indexed for a master that cannot prefetch, so
  // every other index operation finds nothing to do.
  if (!prefetching_) return;
  char& flag = prefetchable_[ord(block)];
  if (flag != 0) return;
  flag = 1;
  if (oracle_->remaining_ref_count(block) > 0) index_prefetchable(block);
}

void BlockManagerMaster::remove_prefetchable(const BlockId& block) {
  const bool was_indexed = indexed(block);
  prefetchable_[ord(block)] = 0;
  if (was_indexed) unindex_prefetchable(block);
}

void BlockManagerMaster::reference_changed(const BlockId& block,
                                           bool referenced) {
  if (prefetchable_[ord(block)] == 0) return;
  if (referenced) {
    index_prefetchable(block);
  } else {
    unindex_prefetchable(block);
  }
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

std::optional<BlockManagerMaster::DiskSplit>
BlockManagerMaster::shuffle_disk_split(RddId rdd, ExecutorId reader) const {
  const std::int32_t slot =
      shuffle_slot_[static_cast<std::size_t>(rdd.value())];
  if (slot < 0) return std::nullopt;
  const ShuffleCounts& counts =
      shuffle_counts_[static_cast<std::size_t>(slot)];
  if (counts.in_memory > 0) return std::nullopt;
  const std::int32_t parts = dag_->rdd(rdd).num_partitions;
  // With no memory copy, a partition exists only where it has a disk
  // copy; name the first missing one, as lookup() would.
  const auto first_missing = [&] {
    std::int32_t p = 0;
    while (p + 1 < parts && exists(BlockId{rdd, p})) ++p;
    return BlockId{rdd, p};
  };
  DAGON_CHECK_MSG(counts.on_disk == parts,
                  "block " << first_missing()
                           << " read before it exists anywhere");
  const NodeId node = topo_->node_of(reader);
  const RackId rack = topo_->rack_of(node);
  const std::int32_t local = node_disk_counts_
      [static_cast<std::size_t>(slot) * topo_->num_nodes() +
       static_cast<std::size_t>(node.value())];
  const std::int32_t in_rack = rack_disk_counts_
      [static_cast<std::size_t>(slot) * topo_->num_racks() +
       static_cast<std::size_t>(rack.value())];
  const DiskSplit split{local, in_rack - local, counts.on_disk - in_rack};
#ifndef NDEBUG
  // Debug builds walk the RDD block by block and hold the counts to it.
  std::array<std::int32_t, 7> walked{};
  for (std::int32_t p = 0; p < parts; ++p) {
    ++walked[static_cast<std::size_t>(lookup(BlockId{rdd, p}, reader).source)];
  }
  const DiskSplit by_lookup{
      walked[static_cast<std::size_t>(BlockSource::LocalDisk)],
      walked[static_cast<std::size_t>(BlockSource::RackDisk)],
      walked[static_cast<std::size_t>(BlockSource::RemoteDisk)]};
  DAGON_CHECK_MSG(by_lookup == split,
                  "shuffle-read counts of rdd "
                      << rdd << " for exec " << reader << " give "
                      << split.local << "/" << split.rack << "/"
                      << split.remote << ", lookup() gives "
                      << by_lookup.local << "/" << by_lookup.rack << "/"
                      << by_lookup.remote);
#endif
  return split;
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
      if (holders.empty()) {
        if (ShuffleCounts* counts = tracked_counts(block.rdd)) {
          ++counts->in_memory;
        }
      }
      holders.push_back(exec);
      journal(block);
    }
    // First holder promotes the block to Memory (from Materializing on
    // the produce path, Disk on a read-admit, Evicted on a re-admit).
    if (residency_[o] != BlockResidency::Memory) {
      set_residency(block, BlockResidency::Memory);
      // Mirror into the oracle's LERC peer groups (no-op unless enabled).
      oracle_->set_memory_resident(block, true);
    }
    remove_prefetchable(block);
    ++counters_.insertions;
  } else {
    ++counters_.rejected_admissions;
    // A refused produce-time admission still has its durable disk copy.
    if (residency_[o] == BlockResidency::Materializing) {
      set_residency(block, BlockResidency::Disk);
    }
    if (dag_->rdd(block.rdd).cacheable && memory_copies_[o].empty()) {
      add_prefetchable(block);
    }
  }
}

void BlockManagerMaster::note_evicted(const BlockId& block, ExecutorId exec) {
  const std::size_t o = ord(block);
  auto& holders = memory_copies_[o];
  if (holders.empty()) return;
  holders.erase(std::remove(holders.begin(), holders.end(), exec),
                holders.end());
  journal(block);
  if (holders.empty()) {
    if (ShuffleCounts* counts = tracked_counts(block.rdd)) {
      --counts->in_memory;
    }
    // Last memory copy gone; the durable disk copy keeps the block
    // recoverable (eviction is always safe, DESIGN.md §4).
    set_residency(block, BlockResidency::Evicted);
    // Mirror into the oracle's LERC peer groups (no-op unless enabled).
    oracle_->set_memory_resident(block, false);
    if (dag_->rdd(block.rdd).cacheable) add_prefetchable(block);
  }
}

void BlockManagerMaster::journal(const BlockId& block) {
  if (journal_.size() == kJournalCap) journal_.clear();
  journal_.push_back(block);
  ++journal_end_;
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
  const auto& disks = produced_disk_[o];
  if (std::find(disks.begin(), disks.end(), node) == disks.end()) {
    change_disk_nodes(block, [&](std::vector<NodeId>& nodes) {
      nodes.push_back(node);
    });
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
  PrefetchRanking ranking;
  rank_prefetch_candidates(topo_->node_of(exec), ranking);
  return ranking.pick(manager(exec).free_bytes());
}

void BlockManagerMaster::rank_prefetch_candidates(
    NodeId node, PrefetchRanking& out) const {
  out.node_ = node;
  out.candidates_.clear();
  // Node-local disk blocks only: prefetching is a local disk->memory
  // promotion that overlaps computation, so the ranking covers exactly
  // this node's candidate set (cacheable + on local disk + not in
  // memory), maintained incrementally in BlockId order.
  for (const BlockId& block :
       prefetch_by_node_[static_cast<std::size_t>(node.value())]) {
    const Bytes bytes = block_bytes(block);
    if (bytes <= Bytes{0}) continue;
    if (const auto priority = policy_->prefetch_priority(block, *oracle_)) {
      out.candidates_.push_back({block, bytes, *priority});
    }
  }
}

std::optional<BlockManagerMaster::PrefetchChoice>
BlockManagerMaster::PrefetchRanking::pick(Bytes free) const {
  // Prefetch fills FREE space only: "when the free cache space reaches a
  // certain threshold, it prefetches the in-disk data block whose
  // reference priority is the largest" (§IV). Eviction-to-prefetch (as
  // in MRD's own paper) measured net-negative here — see the prefetch
  // ablation bench. Strict `>` over ascending ids: ties go to the
  // smallest BlockId.
  const Candidate* best = nullptr;
  for (const Candidate& c : candidates_) {
    if (c.bytes <= free && (best == nullptr || c.priority > best->priority)) {
      best = &c;
    }
  }
  if (best == nullptr) return std::nullopt;
  return PrefetchChoice{best->block, best->bytes, node_};
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
  // deterministic journal / prefetchable churn).
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
    const std::size_t before = produced_disk_[o].size();
    if (nodes.size() == before) continue;  // node copy survives
    result.disk_dropped += static_cast<std::int64_t>(before - nodes.size());
    // Last disk copy gone? If some executor still caches the block,
    // re-materialize a disk copy at that holder's node right away, so the
    // eviction-is-always-safe invariant keeps holding.
    const bool last_copy =
        nodes.empty() &&
        hdfs_->replicas_by_ord(static_cast<std::int64_t>(o)).empty();
    const auto& mem = memory_copies_[o];
    if (last_copy && !mem.empty()) {
      const ExecutorId holder = *std::min_element(mem.begin(), mem.end());
      producers.push_back(holder);
      nodes.push_back(topo_->node_of(holder));
      ++result.rereplicated;
    }
    change_disk_nodes(block, [&](std::vector<NodeId>& disks) {
      disks = std::move(nodes);
    });
    if (last_copy && mem.empty()) {
      // No copy anywhere: only lineage recomputation can bring it back.
      // The memory-drop pass above already moved the block to Evicted if
      // this executor held the last memory copy, so the edge here is
      // Disk → Lost or Evicted → Lost.
      set_residency(block, BlockResidency::Lost);
      prefetchable_[o] = 0;  // unindexed with its last disk copy
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
  // memory copies just changed. Task locality filters only memory
  // holders by suspicion, so those blocks are all that changed.
  for (const BlockManager::Entry& e : manager(exec).entries()) {
    journal(e.id);
  }
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
  // for a deterministic journal.
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
    const BlockId block = dag_->block_at(static_cast<std::int64_t>(o));
    produced_by_[o].push_back(target);
    const auto& disks = produced_disk_[o];
    if (std::find(disks.begin(), disks.end(), target_node) == disks.end()) {
      change_disk_nodes(block, [&](std::vector<NodeId>& nodes) {
        nodes.push_back(target_node);
      });
    } else {
      journal(block);
    }
    ++result.blocks;
    result.bytes += std::max(block_bytes(block), Bytes{0});
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
