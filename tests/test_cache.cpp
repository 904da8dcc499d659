// Unit tests for the cache subsystem: reference oracle, the four
// policies, BlockManager admission/eviction, and BlockManagerMaster.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "cache/block_manager.hpp"
#include "cache/block_manager_master.hpp"
#include "cache/cache_policy.hpp"
#include "cache/ref_oracle.hpp"
#include "common/error.hpp"
#include "dag/job_dag.hpp"
#include "workloads/example_dag.hpp"

namespace dagon {
namespace {

class CacheFixture : public ::testing::Test {
 protected:
  CacheFixture() : workload_(make_example_dag()), oracle_(workload_.dag) {}

  const JobDag& dag() const { return workload_.dag; }

  // Fig. 1 block ids: A=rdd0, C=rdd1, B=rdd2, D=rdd3, E=rdd4, F=rdd5.
  static BlockId A(int p) { return {RddId(0), p}; }
  static BlockId C(int p) { return {RddId(1), p}; }
  static BlockId B(int p) { return {RddId(2), p}; }
  static BlockId D(int p) { return {RddId(3), p}; }
  static BlockId E(int p) { return {RddId(4), p}; }

  Workload workload_;
  ReferenceOracle oracle_;
};

TEST_F(CacheFixture, OracleInitialRefCounts) {
  EXPECT_EQ(oracle_.remaining_ref_count(A(0)), 1);  // S1 only
  EXPECT_EQ(oracle_.remaining_ref_count(C(2)), 1);  // S2 only
  EXPECT_EQ(oracle_.remaining_ref_count(B(0)), 1);  // S4 only
  EXPECT_EQ(oracle_.remaining_ref_count(D(1)), 1);  // S3 only
  // F has no readers.
  EXPECT_EQ(oracle_.remaining_ref_count({RddId(5), 0}), 0);
}

TEST_F(CacheFixture, OracleConsumesNarrowReferencePerTask) {
  EXPECT_EQ(oracle_.remaining_ref_count(A(1)), 1);
  oracle_.on_task_launched(StageId(0), 1);  // S1 task 1 reads A1
  EXPECT_EQ(oracle_.remaining_ref_count(A(1)), 0);
  EXPECT_EQ(oracle_.remaining_ref_count(A(0)), 1);  // untouched
}

TEST_F(CacheFixture, OracleConsumesShuffleReferenceAfterAllTasks) {
  // D blocks are read by both S3 tasks.
  EXPECT_EQ(oracle_.remaining_ref_count(D(0)), 1);
  oracle_.on_task_launched(StageId(2), 0);
  EXPECT_EQ(oracle_.remaining_ref_count(D(0)), 1);  // one reader left
  oracle_.on_task_launched(StageId(2), 1);
  EXPECT_EQ(oracle_.remaining_ref_count(D(0)), 0);
}

TEST_F(CacheFixture, OracleStageFinishKillsReferences) {
  EXPECT_EQ(oracle_.remaining_ref_count(C(0)), 1);
  oracle_.mark_stage_finished(StageId(1));
  EXPECT_EQ(oracle_.remaining_ref_count(C(0)), 0);
  EXPECT_TRUE(oracle_.stage_finished(StageId(1)));
}

TEST_F(CacheFixture, OracleStageDistanceFollowsFifoOrder) {
  oracle_.set_current_stage(StageId(0));
  EXPECT_EQ(oracle_.stage_distance(A(0)), 0);  // S1 is current
  EXPECT_EQ(oracle_.stage_distance(C(0)), 1);  // S2 next
  EXPECT_EQ(oracle_.stage_distance(B(0)), 3);  // S4
  oracle_.set_current_stage(StageId(2));
  EXPECT_EQ(oracle_.stage_distance(B(0)), 1);
  // A stage at or before the current one counts as distance 0.
  EXPECT_EQ(oracle_.stage_distance(C(0)), 0);
}

TEST_F(CacheFixture, OracleDistanceNeverUsed) {
  oracle_.mark_stage_finished(StageId(0));
  EXPECT_EQ(oracle_.stage_distance(A(0)), ReferenceOracle::kNeverUsed);
}

TEST_F(CacheFixture, OracleReferencePriorityIsMaxPvOfReaders) {
  // Initial pv (Table III): pv1=52, pv2=64, pv3=28, pv4=4 (vCPU·min).
  EXPECT_EQ(oracle_.reference_priority(A(0)), CpuWork{52 * kMinute.count()});
  EXPECT_EQ(oracle_.reference_priority(C(0)), CpuWork{64 * kMinute.count()});
  EXPECT_EQ(oracle_.reference_priority(B(0)), CpuWork{4 * kMinute.count()});
  oracle_.mark_stage_finished(StageId(3));
  EXPECT_EQ(oracle_.reference_priority(B(0)), CpuWork{0});
}

TEST_F(CacheFixture, OraclePriorityUpdates) {
  std::vector<CpuWork> pv{CpuWork{10}, CpuWork{20}, CpuWork{30},
                          CpuWork{40}};
  oracle_.set_priority_values(pv);
  EXPECT_EQ(oracle_.priority_value(StageId(2)), CpuWork{30});
  EXPECT_EQ(oracle_.reference_priority(D(0)), CpuWork{30});
}

TEST_F(CacheFixture, OracleLiveReaders) {
  const auto readers = oracle_.live_readers(D(0));
  EXPECT_EQ(readers, std::vector<StageId>{StageId(2)});
}

// --- policy retention/prefetch semantics ---------------------------------

TEST_F(CacheFixture, LruRetentionIsRecency) {
  LruPolicy lru;
  EXPECT_LT(lru.retention_priority(A(0), SimTime{10}, oracle_),
            lru.retention_priority(B(0), SimTime{20}, oracle_));
  EXPECT_TRUE(lru.always_admit());
  EXPECT_FALSE(lru.prefetch_priority(A(0), oracle_).has_value());
  EXPECT_FALSE(lru.is_dead(A(0), oracle_));
}

TEST_F(CacheFixture, LrcRetentionIsRefCount) {
  LrcPolicy lrc;
  oracle_.on_task_launched(StageId(0), 0);  // consume A0
  EXPECT_LT(lrc.retention_priority(A(0), SimTime{99}, oracle_),
            lrc.retention_priority(A(1), SimTime{0}, oracle_));
  EXPECT_TRUE(lrc.is_dead(A(0), oracle_));
}

TEST_F(CacheFixture, MrdEvictsFurthestPrefetchesNearest) {
  MrdPolicy mrd;
  oracle_.set_current_stage(StageId(0));
  // B (used by S4, distance 3) must be evicted before C (distance 1).
  EXPECT_LT(mrd.retention_priority(B(0), SimTime{0}, oracle_),
            mrd.retention_priority(C(0), SimTime{0}, oracle_));
  EXPECT_GT(*mrd.prefetch_priority(C(0), oracle_),
            *mrd.prefetch_priority(B(0), oracle_));
  oracle_.mark_stage_finished(StageId(3));
  EXPECT_FALSE(mrd.prefetch_priority(B(0), oracle_).has_value());
}

TEST_F(CacheFixture, LrpFollowsReferencePriority) {
  LrpPolicy lrp;
  EXPECT_GT(lrp.retention_priority(C(0), SimTime{0}, oracle_),
            lrp.retention_priority(A(0), SimTime{0}, oracle_));
  EXPECT_GT(*lrp.prefetch_priority(C(0), oracle_),
            *lrp.prefetch_priority(B(0), oracle_));
  oracle_.mark_stage_finished(StageId(3));
  EXPECT_TRUE(lrp.is_dead(B(0), oracle_));
  EXPECT_FALSE(lrp.prefetch_priority(B(0), oracle_).has_value());
}

TEST(CachePolicyFactory, MakesAllKinds) {
  for (const auto kind : {CachePolicyKind::Lru, CachePolicyKind::Lrc,
                          CachePolicyKind::Mrd, CachePolicyKind::Lrp,
                          CachePolicyKind::Lerc}) {
    const auto policy = make_cache_policy(kind);
    EXPECT_STREQ(policy->name(), cache_policy_name(kind));
  }
}

TEST(CachePolicyFactory, ErrorEnumeratesAcceptedNames) {
  try {
    (void)make_cache_policy(static_cast<CachePolicyKind>(99));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(kCachePolicyNames),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("lerc"), std::string::npos);
  }
}

// --- LERC peer groups -----------------------------------------------------

/// Paired-intermediate DAG: join's task p reads a[p] AND b[p], so every
/// consumer task has a two-block peer group.
class LercFixture : public ::testing::Test {
 protected:
  LercFixture() {
    JobDagBuilder builder("lerc");
    const RddId ds = builder.input_rdd("ds", 2, 4 * kMiB);
    builder.set_rdd_cacheable(ds, false);
    load_ = builder.add_stage({.name = "load",
                               .inputs = {{ds, DepKind::Narrow}},
                               .num_tasks = 2,
                               .task_cpus = Cpus{1},
                               .task_duration = kSec,
                               .output_bytes_per_partition = kMiB,
                               .output_name = "a"});
    feat_ = builder.add_stage({.name = "feat",
                               .inputs = {{ds, DepKind::Narrow}},
                               .num_tasks = 2,
                               .task_cpus = Cpus{1},
                               .task_duration = kSec,
                               .output_bytes_per_partition = kMiB,
                               .output_name = "b"});
    a_ = builder.output_of(load_);
    b_ = builder.output_of(feat_);
    join_ = builder.add_stage({.name = "join",
                               .inputs = {{a_, DepKind::Narrow},
                                          {b_, DepKind::Narrow}},
                               .num_tasks = 2,
                               .task_cpus = Cpus{1},
                               .task_duration = kSec,
                               .output_bytes_per_partition = Bytes{0},
                               .cache_output = false});
    dag_ = builder.build();
    oracle_ = std::make_unique<ReferenceOracle>(dag_);
    oracle_->enable_peer_tracking();
  }

  BlockId a(int p) const { return {a_, p}; }
  BlockId b(int p) const { return {b_, p}; }

  StageId load_, feat_, join_;
  RddId a_, b_;
  JobDag dag_;
  std::unique_ptr<ReferenceOracle> oracle_;
};

TEST_F(LercFixture, EffectiveCountNeedsWholeGroupResident) {
  // Nothing resident: caching a0 alone would not complete {a0, b0}.
  EXPECT_EQ(oracle_->effective_ref_count(a(0)), 0);
  // With the peer b0 resident, a0 would complete the group for join.
  oracle_->set_memory_resident(b(0), true);
  EXPECT_EQ(oracle_->effective_ref_count(a(0)), 1);
  // b0 itself is still ineffective: ITS group misses a0.
  EXPECT_EQ(oracle_->effective_ref_count(b(0)), 0);
  // Partition 1's group is independent.
  EXPECT_EQ(oracle_->effective_ref_count(a(1)), 0);
  oracle_->set_memory_resident(a(0), true);
  EXPECT_EQ(oracle_->effective_ref_count(a(0)), 1);
  EXPECT_EQ(oracle_->effective_ref_count(b(0)), 1);
}

TEST_F(LercFixture, EvictionBreaksTheGroup) {
  oracle_->set_memory_resident(a(0), true);
  oracle_->set_memory_resident(b(0), true);
  EXPECT_EQ(oracle_->effective_ref_count(a(0)), 1);
  oracle_->set_memory_resident(b(0), false);
  EXPECT_EQ(oracle_->effective_ref_count(a(0)), 0);
  EXPECT_EQ(oracle_->effective_ref_count(b(0)), 1);  // would re-complete
}

TEST_F(LercFixture, ConsumedAndInactiveReadersAreNotEffective) {
  oracle_->set_memory_resident(a(0), true);
  oracle_->set_memory_resident(b(0), true);
  // Launching join task 0 consumes its references on a0/b0.
  oracle_->on_task_launched(join_, 0);
  EXPECT_EQ(oracle_->effective_ref_count(a(0)), 0);
  // Partition 1 is untouched...
  oracle_->set_memory_resident(a(1), true);
  oracle_->set_memory_resident(b(1), true);
  EXPECT_EQ(oracle_->effective_ref_count(a(1)), 1);
  // ...until its job is gated inactive (serving: job not yet arrived).
  oracle_->set_stage_active(join_, false);
  EXPECT_EQ(oracle_->effective_ref_count(a(1)), 0);
  oracle_->set_stage_active(join_, true);
  EXPECT_EQ(oracle_->effective_ref_count(a(1)), 1);
}

TEST_F(LercFixture, LercRetentionRanksCompleteGroupsAboveBroken) {
  LercPolicy lerc;
  oracle_->set_memory_resident(a(0), true);
  oracle_->set_memory_resident(b(0), true);
  oracle_->set_memory_resident(a(1), true);  // b1 missing: broken group
  const double complete = lerc.retention_priority(a(0), SimTime{0}, *oracle_);
  const double broken = lerc.retention_priority(a(1), SimTime{0}, *oracle_);
  EXPECT_GT(complete, broken);
  // The raw reference count still separates broken-but-live data from
  // dead data.
  oracle_->mark_stage_finished(join_);
  EXPECT_LT(lerc.retention_priority(a(0), SimTime{0}, *oracle_), 1.0);
  EXPECT_TRUE(lerc.is_dead(a(0), *oracle_));
}

TEST_F(LercFixture, CompletingBlockDisplacesBrokenResidents) {
  // One-slot-short cache: {a0, b0, a1} resident, b1 arrives. LERC must
  // evict the broken-group a1 to admit the group-completing b1; LRC
  // refuses the tie and strands the half group.
  LercPolicy lerc;
  BlockManager bm(ExecutorId(0), 3 * kMiB, lerc);
  (void)bm.insert(a(0), kMiB, SimTime{1}, *oracle_);
  oracle_->set_memory_resident(a(0), true);
  (void)bm.insert(b(0), kMiB, SimTime{2}, *oracle_);
  oracle_->set_memory_resident(b(0), true);
  (void)bm.insert(a(1), kMiB, SimTime{3}, *oracle_);
  oracle_->set_memory_resident(a(1), true);
  const auto res = bm.insert(b(1), kMiB, SimTime{4}, *oracle_);
  ASSERT_TRUE(res.admitted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], a(1));
  EXPECT_TRUE(bm.contains(a(0)));
  EXPECT_TRUE(bm.contains(b(0)));
}

TEST_F(LercFixture, PeerTrackingIsIdempotentAndGated) {
  EXPECT_TRUE(oracle_->peer_tracking_enabled());
  oracle_->enable_peer_tracking();  // idempotent
  EXPECT_TRUE(oracle_->peer_tracking_enabled());
  // A fresh oracle without tracking ignores residency mirroring.
  ReferenceOracle bare(dag_);
  EXPECT_FALSE(bare.peer_tracking_enabled());
  bare.set_memory_resident(a(0), true);  // must be a no-op, not a crash
  EXPECT_EQ(bare.remaining_ref_count(a(0)), 1);
}

// --- BlockManager ---------------------------------------------------------

TEST_F(CacheFixture, ManagerInsertAndCapacity) {
  LruPolicy lru;
  BlockManager bm(ExecutorId(0), 2 * kMiB, lru);
  EXPECT_TRUE(bm.insert(A(0), kMiB, SimTime{1}, oracle_).admitted);
  EXPECT_TRUE(bm.insert(A(1), kMiB, SimTime{2}, oracle_).admitted);
  EXPECT_EQ(bm.free_bytes(), Bytes{0});
  EXPECT_EQ(bm.num_blocks(), 2u);
}

TEST_F(CacheFixture, ManagerLruEvictsOldest) {
  LruPolicy lru;
  BlockManager bm(ExecutorId(0), 2 * kMiB, lru);
  (void)bm.insert(A(0), kMiB, SimTime{1}, oracle_);
  (void)bm.insert(A(1), kMiB, SimTime{2}, oracle_);
  bm.touch(A(0), SimTime{3});  // A0 now most recent
  const auto res = bm.insert(A(2), kMiB, SimTime{4}, oracle_);
  ASSERT_TRUE(res.admitted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], A(1));
  EXPECT_TRUE(bm.contains(A(0)));
}

TEST_F(CacheFixture, ManagerReinsertIsTouch) {
  LruPolicy lru;
  BlockManager bm(ExecutorId(0), 2 * kMiB, lru);
  (void)bm.insert(A(0), kMiB, SimTime{1}, oracle_);
  const auto res = bm.insert(A(0), kMiB, SimTime{5}, oracle_);
  EXPECT_TRUE(res.admitted);
  EXPECT_TRUE(res.evicted.empty());
  EXPECT_EQ(bm.used_bytes(), kMiB);
}

TEST_F(CacheFixture, ManagerOversizeBlockRefused) {
  LruPolicy lru;
  BlockManager bm(ExecutorId(0), kMiB, lru);
  EXPECT_FALSE(bm.insert(A(0), 2 * kMiB, SimTime{1}, oracle_).admitted);
  EXPECT_EQ(bm.num_blocks(), 0u);
}

TEST_F(CacheFixture, ManagerLrpDeclinesLowPriorityInsert) {
  LrpPolicy lrp;
  BlockManager bm(ExecutorId(0), 2 * kMiB, lrp);
  // C blocks: priority 64; A blocks: 52; B blocks: 4.
  (void)bm.insert(C(0), kMiB, SimTime{1}, oracle_);
  (void)bm.insert(C(1), kMiB, SimTime{1}, oracle_);
  const auto res = bm.insert(B(0), kMiB, SimTime{2}, oracle_);
  EXPECT_FALSE(res.admitted);  // would displace more valuable C blocks
  EXPECT_TRUE(res.evicted.empty());
  EXPECT_TRUE(bm.contains(C(0)));
  EXPECT_TRUE(bm.contains(C(1)));
}

TEST_F(CacheFixture, ManagerLrpEvictsLowestPriority) {
  LrpPolicy lrp;
  BlockManager bm(ExecutorId(0), 2 * kMiB, lrp);
  (void)bm.insert(B(0), kMiB, SimTime{1}, oracle_);  // priority 4
  (void)bm.insert(A(0), kMiB, SimTime{1}, oracle_);  // priority 52
  const auto res = bm.insert(C(0), kMiB, SimTime{2}, oracle_);  // priority 64
  ASSERT_TRUE(res.admitted);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], B(0));
}

TEST_F(CacheFixture, ManagerStrictAdmissionRejectsEqualValue) {
  LrpPolicy lrp;
  BlockManager bm(ExecutorId(0), kMiB, lrp);
  (void)bm.insert(A(0), kMiB, SimTime{1}, oracle_);
  // A1 has the same priority as A0: a strict (prefetch) insert must not
  // thrash; a normal insert may swap.
  EXPECT_FALSE(bm.insert(A(1), kMiB, SimTime{2}, oracle_, true).admitted);
  EXPECT_TRUE(bm.contains(A(0)));
}

TEST_F(CacheFixture, ManagerProactiveEviction) {
  LrpPolicy lrp;
  BlockManager bm(ExecutorId(0), 4 * kMiB, lrp);
  (void)bm.insert(A(0), kMiB, SimTime{1}, oracle_);
  (void)bm.insert(C(0), kMiB, SimTime{1}, oracle_);
  oracle_.on_task_launched(StageId(0), 0);  // consumes A0
  const auto evicted = bm.evict_dead(oracle_);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], A(0));
  EXPECT_TRUE(bm.contains(C(0)));
}

TEST_F(CacheFixture, ManagerMinRetention) {
  LrpPolicy lrp;
  BlockManager bm(ExecutorId(0), 4 * kMiB, lrp);
  EXPECT_TRUE(std::isinf(bm.min_retention(oracle_)));
  (void)bm.insert(B(0), kMiB, SimTime{1}, oracle_);
  (void)bm.insert(C(0), kMiB, SimTime{1}, oracle_);
  EXPECT_DOUBLE_EQ(bm.min_retention(oracle_),
                   static_cast<double>((4 * kMinute).count()));
}

TEST_F(CacheFixture, ManagerRemove) {
  LruPolicy lru;
  BlockManager bm(ExecutorId(0), 4 * kMiB, lru);
  (void)bm.insert(A(0), kMiB, SimTime{1}, oracle_);
  EXPECT_TRUE(bm.remove(A(0)));
  EXPECT_FALSE(bm.remove(A(0)));
  EXPECT_EQ(bm.used_bytes(), Bytes{0});
}

// --- BlockManagerMaster ----------------------------------------------------

class MasterFixture : public CacheFixture {
 protected:
  MasterFixture()
      : topo_(make_spec()),
        rng_(1),
        hdfs_(dag(), topo_, make_hdfs(), rng_),
        policy_(make_cache_policy(CachePolicyKind::Lrp)),
        master_(topo_, dag(), hdfs_, oracle_, *policy_) {}

  static TopologySpec make_spec() {
    TopologySpec spec;
    spec.racks = 1;
    spec.nodes_per_rack = 2;
    spec.executors_per_node = 1;
    spec.cores_per_executor = Cpus{4};
    spec.cache_bytes_per_executor = 3 * kMiB;
    return spec;
  }
  static HdfsSpec make_hdfs() {
    HdfsSpec spec;
    spec.replication = 1;
    return spec;
  }

  Topology topo_;
  Rng rng_;
  HdfsPlacement hdfs_;
  std::unique_ptr<CachePolicy> policy_;
  BlockManagerMaster master_;
};

TEST_F(MasterFixture, LookupPrefersMemoryOverDisk) {
  master_.seed_initial_cache(SimTime{0});
  // A0..A2 are seeded into the executor on their replica node.
  const auto holders = master_.memory_holders(A(0));
  ASSERT_EQ(holders.size(), 1u);
  const ExecutorId holder = holders[0];
  EXPECT_EQ(master_.lookup(A(0), holder).source, BlockSource::LocalMemory);
  const ExecutorId other(holder == ExecutorId(0) ? 1 : 0);
  const auto remote = master_.lookup(A(0), other);
  EXPECT_EQ(remote.source, BlockSource::RackMemory);
  EXPECT_EQ(remote.holder, holder);
}

TEST_F(MasterFixture, LookupFallsBackToHdfsDisk) {
  const auto look = master_.lookup(C(0), ExecutorId(0));
  EXPECT_FALSE(is_memory_source(look.source));
  EXPECT_TRUE(look.disk_node.valid());
}

TEST_F(MasterFixture, LookupNonexistentBlockThrows) {
  EXPECT_THROW((void)master_.lookup(B(0), ExecutorId(0)), InvariantError);
  EXPECT_FALSE(master_.exists(B(0)));
}

TEST_F(MasterFixture, ProducedBlockGetsDiskAndMemoryCopy) {
  master_.on_block_produced(B(0), ExecutorId(0), SimTime{5});
  EXPECT_TRUE(master_.exists(B(0)));
  EXPECT_TRUE(master_.hdfs_replicas(B(0)).empty());
  EXPECT_EQ(master_.produced_disk_nodes(B(0)),
            std::vector<NodeId>{topo_.node_of(ExecutorId(0))});
  // B priority is low (pv4) but the cache has room -> admitted.
  EXPECT_EQ(master_.lookup(B(0), ExecutorId(0)).source,
            BlockSource::LocalMemory);
}

TEST_F(MasterFixture, EvictionDropsMemoryNotDisk) {
  master_.on_block_produced(B(0), ExecutorId(0), SimTime{1});
  ASSERT_TRUE(master_.manager(ExecutorId(0)).contains(B(0)));
  // Fill the 3-block cache with higher-priority C blocks (pv2 = 64).
  master_.on_block_read(C(0), ExecutorId(0),
                        master_.lookup(C(0), ExecutorId(0)), SimTime{2});
  master_.on_block_read(C(1), ExecutorId(0),
                        master_.lookup(C(1), ExecutorId(0)), SimTime{3});
  master_.on_block_read(C(2), ExecutorId(0),
                        master_.lookup(C(2), ExecutorId(0)), SimTime{4});
  EXPECT_FALSE(master_.manager(ExecutorId(0)).contains(B(0)));
  // Disk copy survives; lookup degrades to local disk.
  EXPECT_EQ(master_.lookup(B(0), ExecutorId(0)).source,
            BlockSource::LocalDisk);
}

TEST_F(MasterFixture, DiskReadOfCacheableRddCaches) {
  const auto look = master_.lookup(C(0), ExecutorId(0));
  master_.on_block_read(C(0), ExecutorId(0), look, SimTime{1});
  EXPECT_EQ(master_.lookup(C(0), ExecutorId(0)).source,
            BlockSource::LocalMemory);
}

TEST_F(MasterFixture, RemoteMemoryReadDoesNotDuplicate) {
  master_.seed_initial_cache(SimTime{0});
  const ExecutorId holder = master_.memory_holders(A(0))[0];
  const ExecutorId other(holder == ExecutorId(0) ? 1 : 0);
  const auto look = master_.lookup(A(0), other);
  master_.on_block_read(A(0), other, look, SimTime{1});
  EXPECT_EQ(master_.memory_holders(A(0)).size(), 1u);
}

TEST_F(MasterFixture, ProactiveSweepDropsDeadBlocks) {
  master_.seed_initial_cache(SimTime{0});
  oracle_.mark_stage_finished(StageId(0));  // A is now dead
  const int dropped = master_.proactive_sweep();
  EXPECT_EQ(dropped, 3);
  EXPECT_TRUE(master_.memory_holders(A(0)).empty());
}

TEST_F(MasterFixture, PrefetchCandidatePicksHighestPriorityLocalBlock) {
  // C blocks (priority 64) sit on some node's disk; its executor should
  // choose them.
  const auto replicas = hdfs_.replicas(C(0));
  ASSERT_EQ(replicas.size(), 1u);
  const ExecutorId exec = topo_.node(replicas[0]).executors[0];
  const auto choice = master_.prefetch_candidate(exec);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->block.rdd, RddId(1));
  EXPECT_TRUE(master_.finish_prefetch(choice->block, exec, SimTime{1}));
  EXPECT_EQ(master_.lookup(choice->block, exec).source,
            BlockSource::LocalMemory);
}

TEST_F(MasterFixture, PrefetchSkipsBlocksAlreadyInMemory) {
  master_.seed_initial_cache(SimTime{0});
  for (const Executor& e : topo_.executors()) {
    if (const auto choice = master_.prefetch_candidate(e.id)) {
      EXPECT_NE(choice->block.rdd, RddId(0));  // A blocks are cached
    }
  }
}

TEST_F(MasterFixture, CacheDisabledMasterIsInert) {
  BlockManagerMaster off(topo_, dag(), hdfs_, oracle_, *policy_,
                         /*cache_enabled=*/false);
  off.seed_initial_cache(SimTime{0});
  EXPECT_TRUE(off.memory_holders(A(0)).empty());
  off.on_block_produced(B(0), ExecutorId(0), SimTime{1});
  EXPECT_EQ(off.lookup(B(0), ExecutorId(0)).source, BlockSource::LocalDisk);
  EXPECT_FALSE(off.prefetch_candidate(ExecutorId(0)).has_value());
  EXPECT_EQ(off.proactive_sweep(), 0);
}

TEST_F(MasterFixture, CountersTrackActivity) {
  master_.seed_initial_cache(SimTime{0});
  const auto& counters = master_.counters();
  EXPECT_EQ(counters.insertions, 3);
  oracle_.mark_stage_finished(StageId(0));
  master_.proactive_sweep();
  EXPECT_EQ(master_.counters().proactive_evictions, 3);
}

}  // namespace
}  // namespace dagon
