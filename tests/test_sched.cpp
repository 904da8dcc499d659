// Unit tests for the scheduler module: job state bookkeeping, locality
// classification, estimators, delay scheduling (native + Algorithm 2),
// stage selectors, and speculation.
#include <gtest/gtest.h>

#include "cache/block_manager_master.hpp"
#include "common/log.hpp"
#include "sched/delay_scheduling.hpp"
#include "sched/estimator.hpp"
#include "sched/job_state.hpp"
#include "sched/speculation.hpp"
#include "sched/stage_selector.hpp"
#include "sched/task_locality.hpp"
#include "workloads/example_dag.hpp"

namespace dagon {
namespace {

/// Shared rig: Fig. 1 DAG on a 2-rack, 4-node cluster.
class SchedFixture : public ::testing::Test {
 protected:
  SchedFixture()
      : workload_(make_example_dag()),
        profile_(exact_profile(workload_.dag)),
        topo_(spec()),
        rng_(3),
        hdfs_(workload_.dag, topo_, hdfs_spec(), rng_),
        oracle_(workload_.dag),
        policy_(make_cache_policy(CachePolicyKind::Lru)),
        master_(topo_, workload_.dag, hdfs_, oracle_, *policy_),
        state_(workload_.dag, topo_, profile_),
        cost_(CostModelSpec{}) {}

  static TopologySpec spec() {
    TopologySpec s;
    s.racks = 2;
    s.nodes_per_rack = 2;
    s.executors_per_node = 1;
    s.cores_per_executor = Cpus{16};
    s.cache_bytes_per_executor = 16 * kMiB;
    return s;
  }
  static HdfsSpec hdfs_spec() {
    HdfsSpec s;
    s.replication = 1;
    return s;
  }

  const JobDag& dag() const { return workload_.dag; }

  Workload workload_;
  JobProfile profile_;
  Topology topo_;
  Rng rng_;
  HdfsPlacement hdfs_;
  ReferenceOracle oracle_;
  std::unique_ptr<CachePolicy> policy_;
  BlockManagerMaster master_;
  JobState state_;
  CostModel cost_;
};

TEST_F(SchedFixture, InitialJobState) {
  EXPECT_TRUE(state_.stage(StageId(0)).ready);
  EXPECT_TRUE(state_.stage(StageId(1)).ready);
  EXPECT_FALSE(state_.stage(StageId(2)).ready);
  EXPECT_FALSE(state_.stage(StageId(3)).ready);
  EXPECT_EQ(state_.schedulable_stages().size(), 2u);
  EXPECT_FALSE(state_.all_finished());
  EXPECT_TRUE(state_.any_free_cores());
}

TEST_F(SchedFixture, PriorityValuesMatchTable3Initial) {
  const PriorityValues& pv = state_.priority_values();
  EXPECT_EQ(pv.value(StageId(0)), CpuWork{52 * kMinute.count()});
  EXPECT_EQ(pv.value(StageId(1)), CpuWork{64 * kMinute.count()});
}

TEST_F(SchedFixture, MarkLaunchedUpdatesWorkAndCores) {
  state_.mark_launched(StageId(1), 0, ExecutorId(0), SimTime{0});
  // Table III step 1: w2 36 -> 24, pv2 64 -> 52, free 16 -> 10.
  EXPECT_EQ(state_.priority_values().work(StageId(1)),
            CpuWork{24 * kMinute.count()});
  EXPECT_EQ(state_.priority_values().value(StageId(1)),
            CpuWork{52 * kMinute.count()});
  EXPECT_EQ(state_.executor(ExecutorId(0)).free_cores(), Cpus{10});
  EXPECT_EQ(state_.stage(StageId(1)).running, 1);
  EXPECT_EQ(state_.stage(StageId(1)).pending.size(), 2u);
}

TEST_F(SchedFixture, MarkLaunchedRejectsOverflow) {
  state_.mark_launched(StageId(1), 0, ExecutorId(0), SimTime{0});
  state_.mark_launched(StageId(1), 1, ExecutorId(0), SimTime{0});
  // 4 free cores < 6 demanded.
  EXPECT_THROW(state_.mark_launched(StageId(1), 2, ExecutorId(0), SimTime{0}),
               InvariantError);
}

TEST_F(SchedFixture, MarkFinishedCompletesStage) {
  for (const std::int32_t t : {0, 1, 2}) {
    state_.mark_launched(StageId(0), t, ExecutorId(t), SimTime{0});
  }
  EXPECT_FALSE(state_.mark_finished(StageId(0), 0, ExecutorId(0),
                                    Locality::Node, SimTime{0}, 4 * kMinute));
  EXPECT_FALSE(state_.mark_finished(StageId(0), 1, ExecutorId(1),
                                    Locality::Node, SimTime{0}, 4 * kMinute));
  EXPECT_TRUE(state_.mark_finished(StageId(0), 2, ExecutorId(2),
                                   Locality::Node, SimTime{0}, 4 * kMinute));
  EXPECT_TRUE(state_.stage(StageId(0)).finished);
  EXPECT_EQ(state_.stage(StageId(0)).finish_time, 4 * kMinute);
  EXPECT_EQ(state_.executor(ExecutorId(0)).free_cores(), Cpus{16});
}

TEST_F(SchedFixture, RefreshReadyPromotesChildren) {
  // Finish S2 -> S3 becomes ready; S4 still blocked on S1/S3.
  for (const std::int32_t t : {0, 1, 2}) {
    state_.mark_launched(StageId(1), t, ExecutorId(t), SimTime{0});
    state_.mark_finished(StageId(1), t, ExecutorId(t), Locality::Node, SimTime{0},
                         2 * kMinute);
  }
  const auto newly = state_.refresh_ready(2 * kMinute);
  EXPECT_EQ(newly, std::vector<StageId>{StageId(2)});
  EXPECT_TRUE(state_.stage(StageId(2)).ready);
  EXPECT_FALSE(state_.stage(StageId(3)).ready);
}

TEST_F(SchedFixture, ObservedDurations) {
  state_.mark_launched(StageId(0), 0, ExecutorId(0), SimTime{0});
  state_.mark_finished(StageId(0), 0, ExecutorId(0), Locality::Process, SimTime{0},
                       10 * kSec);
  state_.mark_launched(StageId(0), 1, ExecutorId(0), SimTime{0});
  state_.mark_finished(StageId(0), 1, ExecutorId(0), Locality::Process, SimTime{0},
                       20 * kSec);
  EXPECT_EQ(*state_.observed_duration(StageId(0), Locality::Process),
            15 * kSec);
  EXPECT_FALSE(
      state_.observed_duration(StageId(0), Locality::Rack).has_value());
  EXPECT_EQ(*state_.observed_duration(StageId(0)), 15 * kSec);
}

TEST_F(SchedFixture, ReaddPendingRestoresWork) {
  state_.mark_launched(StageId(0), 0, ExecutorId(0), SimTime{0});
  const CpuWork after_launch = state_.priority_values().work(StageId(0));
  // The legal route back to pending is through a failure (the retry
  // path the driver takes); readd_pending enforces Failed -> Pending.
  state_.mark_failed(StageId(0), 0);
  state_.readd_pending(StageId(0), 0);
  EXPECT_EQ(state_.priority_values().work(StageId(0)),
            after_launch + CpuWork{16 * kMinute.count()});
  EXPECT_EQ(state_.stage(StageId(0)).pending.size(), 3u);
}

// --- locality ---------------------------------------------------------------

TEST_F(SchedFixture, TaskPreferencesFollowHdfsReplicas) {
  // S1 task 0 reads A0 (no memory copy yet): node preference only. The
  // executors it is Node-local on are exactly those on A0's replicas,
  // and it is Process-local nowhere.
  const std::vector<NodeId> replicas = hdfs_.replicas(BlockId{RddId(0), 0});
  ASSERT_FALSE(replicas.empty());
  std::vector<NodeId> node_local;
  for (const Executor& e : topo_.executors()) {
    const Locality l =
        task_locality_on(dag(), master_, topo_, StageId(0), 0, e.id);
    EXPECT_NE(l, Locality::Process);
    if (l == Locality::Node) node_local.push_back(e.node);
  }
  EXPECT_EQ(node_local, replicas);
}

TEST_F(SchedFixture, TaskPreferencesIncludeMemoryHolders) {
  master_.seed_initial_cache(SimTime{0});
  // Exactly one executor — A0's memory holder — is Process-local.
  std::vector<ExecutorId> process_local;
  for (const Executor& e : topo_.executors()) {
    if (task_locality_on(dag(), master_, topo_, StageId(0), 0, e.id) ==
        Locality::Process) {
      process_local.push_back(e.id);
    }
  }
  ASSERT_EQ(process_local.size(), 1u);
  EXPECT_EQ(process_local[0],
            master_.memory_holders(BlockId{RddId(0), 0})[0]);
}

TEST_F(SchedFixture, TaskLocalityLevels) {
  master_.seed_initial_cache(SimTime{0});
  const ExecutorId holder = master_.memory_holders(BlockId{RddId(0), 0})[0];
  EXPECT_EQ(task_locality_on(dag(), master_, topo_, StageId(0), 0, holder),
            Locality::Process);
  // Shuffle-only task (S3) has no preference anywhere.
  EXPECT_EQ(task_locality_on(dag(), master_, topo_, StageId(2), 0,
                             ExecutorId(0)),
            Locality::NoPref);
}

TEST_F(SchedFixture, ValidLocalityLevels) {
  master_.seed_initial_cache(SimTime{0});
  const auto levels_s1 =
      valid_locality_levels(dag(), master_, topo_, state_.stage(StageId(0)));
  ASSERT_FALSE(levels_s1.empty());
  EXPECT_EQ(levels_s1.front(), Locality::Process);
  EXPECT_EQ(levels_s1.back(), Locality::Any);

  const auto levels_s3 =
      valid_locality_levels(dag(), master_, topo_, state_.stage(StageId(2)));
  EXPECT_EQ(levels_s3.front(), Locality::NoPref);
}

/// A master and a JobState over `dag` on a 2-rack, 4-node cluster (one
/// executor per node), and a PendingTaskIndex held to the scan.
struct IndexRig {
  IndexRig(JobDag d, const HdfsSpec& hdfs_spec)
      : dag(std::move(d)),
        profile(exact_profile(dag)),
        topo(spec()),
        rng(3),
        hdfs(dag, topo, hdfs_spec, rng),
        oracle(dag),
        policy(make_cache_policy(CachePolicyKind::Lru)),
        master(topo, dag, hdfs, oracle, *policy),
        state(dag, topo, profile) {}

  static TopologySpec spec() {
    TopologySpec s;
    s.racks = 2;
    s.nodes_per_rack = 2;
    s.cache_bytes_per_executor = 16 * kMiB;
    return s;
  }

  std::optional<TaskPick> best(StageId s, ExecutorId exec) {
    return index.best(state, master, s, exec);
  }

  /// For every stage, the index's best task on every executor and its
  /// ladder equal a walk of the pending tasks. Each check also brings the
  /// index up to date, so a hook that moves placement without journaling
  /// the block leaves a stale answer for the next check.
  void expect_matches(const char* step) {
    SCOPED_TRACE(step);
    for (const Stage& s : dag.stages()) {
      const StageRuntime& rt = state.stage(s.id);
      for (const Executor& e : topo.executors()) {
        EXPECT_EQ(best(s.id, e.id),
                  best_task_by_scan(dag, master, topo, rt, e.id))
            << "stage " << s.id << " exec " << e.id;
      }
      const std::span<const Locality> levels =
          index.levels(state, master, s.id);
      EXPECT_EQ(std::vector<Locality>(levels.begin(), levels.end()),
                valid_locality_levels(dag, master, topo, rt))
          << "stage " << s.id;
    }
  }

  JobDag dag;
  JobProfile profile;
  Topology topo;
  Rng rng;
  HdfsPlacement hdfs;
  ReferenceOracle oracle;
  std::unique_ptr<CachePolicy> policy;
  BlockManagerMaster master;
  JobState state;
  PendingTaskIndex index;
};

HdfsSpec single_replica() {
  HdfsSpec spec;
  spec.replication = 1;
  return spec;
}

TEST(LocalityCache, MatchesRecomputeAcrossPlacementHooks) {
  // in (HDFS, partitions 0-1 cached) -narrow-> prep -narrow-> post.
  // prep's output is not cacheable, so producing it only adds a disk
  // copy: each step below moves placement through one hook alone.
  JobDagBuilder b("hooks");
  const RddId in = b.input_rdd("in", 4, kMiB, /*initially_cached=*/2);
  const StageId prep = b.add_stage({.name = "prep",
                                    .inputs = {{in, DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = kMiB,
                                    .cache_output = false});
  b.add_stage({.name = "post",
               .inputs = {{b.output_of(prep), DepKind::Narrow}},
               .num_tasks = 4,
               .task_cpus = Cpus{1},
               .task_duration = kSec,
               .output_bytes_per_partition = Bytes{0}});
  IndexRig rig(b.build(), single_replica());
  const JobDag& dag = rig.dag;
  BlockManagerMaster& master = rig.master;
  rig.expect_matches("initial");

  master.seed_initial_cache(SimTime{0});
  rig.expect_matches("seed_initial_cache");
  const BlockId in0{in, 0};
  const ExecutorId holder = master.memory_holders(in0).at(0);
  // Two seeded blocks leave at least two of the four caches empty.
  std::vector<ExecutorId> empty;
  for (const Executor& e : rig.topo.executors()) {
    if (master.manager(e.id).num_blocks() == 0) empty.push_back(e.id);
  }
  ASSERT_GE(empty.size(), 2u);
  const ExecutorId reader = empty.front();
  const ExecutorId target = empty.back();

  master.on_block_produced(BlockId{dag.stage(prep).output, 0}, holder, kSec);
  rig.expect_matches("on_block_produced");

  const BlockId in2{in, 2};
  master.on_block_read(in2, reader, master.lookup(in2, reader), kSec);
  ASSERT_EQ(master.memory_holders(in2), std::vector<ExecutorId>{reader});
  rig.expect_matches("on_block_read admit");

  ASSERT_TRUE(master.drop_memory_block(in2, reader));
  rig.expect_matches("drop_memory_block");

  master.set_executor_suspect(holder, true);
  rig.expect_matches("set_executor_suspect on");

  // prep's output block 0 has its only copy on the suspect.
  EXPECT_EQ(master.rereplicate_suspect_blocks(target).blocks, 1);
  rig.expect_matches("rereplicate_suspect_blocks");

  master.set_executor_suspect(holder, false);
  rig.expect_matches("set_executor_suspect off");

  // target holds one disk copy and no memory copy.
  EXPECT_EQ(master.drop_executor(target).disk_dropped, 1);
  rig.expect_matches("drop_executor");
}

TEST(LocalityCache, ResetsEverythingWhenTheJournalDroppedUnreadEntries) {
  // in (HDFS) -narrow-> scan. The index learns scan's answers, then
  // misses more than a full journal of churn that ends with in0 cached
  // on an executor it was not cached on before.
  JobDagBuilder b("churn");
  const RddId in = b.input_rdd("in", 2, kMiB);
  b.add_stage({.name = "scan",
               .inputs = {{in, DepKind::Narrow}},
               .num_tasks = 2,
               .task_cpus = Cpus{1},
               .task_duration = kSec,
               .output_bytes_per_partition = Bytes{0}});
  IndexRig rig(b.build(), single_replica());
  BlockManagerMaster& master = rig.master;
  rig.expect_matches("initial");

  const BlockId in0{in, 0};
  const ExecutorId reader(0);
  const auto entries = static_cast<std::int64_t>(
      BlockManagerMaster::kJournalCap);
  while (master.journal_end() < 2 * entries) {
    master.on_block_read(in0, reader, master.lookup(in0, reader), kSec);
    ASSERT_TRUE(master.drop_memory_block(in0, reader));
  }
  master.on_block_read(in0, reader, master.lookup(in0, reader), kSec);
  ASSERT_EQ(master.memory_holders(in0), std::vector<ExecutorId>{reader});
  EXPECT_GT(master.journal_begin(), 0u);
  EXPECT_LE(master.journal_end() - master.journal_begin(),
            BlockManagerMaster::kJournalCap);
  rig.expect_matches("after the journal dropped entries");
}

TEST(PendingTaskIndex, RebuildsWhenTheJournalDroppedAnEntryItNeverRead) {
  // in (HDFS) -narrow-> scan. in1 is cached on exec 3, then a full
  // journal of churn on in0 pushes that entry out: what is left of the
  // journal names in0 alone, so replaying it cannot find in1's move.
  JobDagBuilder b("overflow");
  const RddId in = b.input_rdd("in", 4, kMiB);
  const StageId scan = b.add_stage({.name = "scan",
                                    .inputs = {{in, DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = Bytes{0}});
  IndexRig rig(b.build(), single_replica());
  BlockManagerMaster& master = rig.master;
  rig.expect_matches("initial");

  const BlockId in1{in, 1};
  const ExecutorId cached(3);
  master.on_block_read(in1, cached, master.lookup(in1, cached), kSec);
  const std::uint64_t moved_at = master.journal_end() - 1;
  const BlockId in0{in, 0};
  const ExecutorId reader(0);
  while (master.journal_begin() <= moved_at) {
    master.on_block_read(in0, reader, master.lookup(in0, reader), kSec);
    ASSERT_TRUE(master.drop_memory_block(in0, reader));
  }
  for (std::uint64_t pos = master.journal_begin(); pos < master.journal_end();
       ++pos) {
    ASSERT_EQ(master.journal_at(pos), in0);
  }
  rig.expect_matches("after the journal dropped in1's entry");
  EXPECT_EQ(rig.best(scan, cached), (TaskPick{1, Locality::Process}));
}

TEST(PendingTaskIndex, RequeuedTaskKeepsItsPendingPosition) {
  // in (HDFS, every block on node 0) -narrow-> scan. Task 0 fails and is
  // re-queued behind tasks 1-3: still Node-local on node 0, but no longer
  // first there. Then a memory copy on exec 2 makes it the one
  // Process-local task there, and once tasks 1-3 launch, the one task
  // left anywhere.
  JobDagBuilder b("requeue");
  const RddId in = b.input_rdd("in", 4, kMiB);
  const StageId scan = b.add_stage({.name = "scan",
                                    .inputs = {{in, DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = Bytes{0}});
  HdfsSpec hdfs_spec = single_replica();
  hdfs_spec.skew = 1.0;
  hdfs_spec.hot_nodes = 1;
  IndexRig rig(b.build(), hdfs_spec);
  for (std::int32_t p = 0; p < 4; ++p) {
    ASSERT_EQ(rig.master.hdfs_replicas(BlockId{in, p}),
              std::vector<NodeId>{NodeId(0)});
  }
  JobState& state = rig.state;
  rig.expect_matches("initial");
  EXPECT_EQ(rig.best(scan, ExecutorId(0)), (TaskPick{0, Locality::Node}));

  state.mark_launched(scan, 0, ExecutorId(3), SimTime{0});
  rig.expect_matches("launch");
  state.mark_failed(scan, 0);
  state.readd_pending(scan, 0);
  ASSERT_EQ(state.stage(scan).pending.front(), 1);
  rig.expect_matches("re-queue");
  EXPECT_EQ(rig.best(scan, ExecutorId(0)), (TaskPick{1, Locality::Node}));

  const BlockId in0{in, 0};
  const ExecutorId cached(2);
  rig.master.on_block_read(in0, cached, rig.master.lookup(in0, cached), kSec);
  rig.expect_matches("placement improves");
  EXPECT_EQ(rig.best(scan, cached), (TaskPick{0, Locality::Process}));

  for (const std::int32_t t : {1, 2, 3}) {
    state.mark_launched(scan, t, ExecutorId(1), kSec);
  }
  rig.expect_matches("later tasks launch");
  EXPECT_EQ(rig.best(scan, ExecutorId(0)), (TaskPick{0, Locality::Node}));
}

TEST(PendingTaskIndex, RanksNoPrefBetweenNodeAndRack) {
  // in (HDFS, every block on node 0) -narrow-> prep -narrow-> post. Only
  // prep's tasks 0 and 1 have run, so post's tasks 2 and 3 read blocks
  // that exist nowhere: NoPref, which beats Rack and Any but not Node.
  // Their producers keep a memory copy and a disk copy on their node;
  // once both producers are suspected, the memory copies grant nothing.
  JobDagBuilder b("nopref");
  const RddId in = b.input_rdd("in", 4, kMiB);
  const StageId prep = b.add_stage({.name = "prep",
                                    .inputs = {{in, DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = kMiB});
  const StageId post = b.add_stage({.name = "post",
                                    .inputs = {{b.output_of(prep),
                                                DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = Bytes{0}});
  HdfsSpec hdfs_spec = single_replica();
  hdfs_spec.skew = 1.0;
  hdfs_spec.hot_nodes = 1;
  IndexRig rig(b.build(), hdfs_spec);
  BlockManagerMaster& master = rig.master;
  const RddId mid = rig.dag.stage(prep).output;
  rig.expect_matches("initial");
  // Every post task is NoPref while none of its blocks exists.
  EXPECT_EQ(rig.best(post, ExecutorId(0)), (TaskPick{0, Locality::NoPref}));

  master.on_block_produced(BlockId{mid, 0}, ExecutorId(0), kSec);
  master.on_block_produced(BlockId{mid, 1}, ExecutorId(3), kSec);
  rig.expect_matches("tasks 0 and 1 produced");
  // exec 1 shares exec 0's rack: task 0 is Rack-local there, task 2 NoPref.
  EXPECT_EQ(rig.best(post, ExecutorId(1)), (TaskPick{2, Locality::NoPref}));
  EXPECT_EQ(rig.best(post, ExecutorId(0)), (TaskPick{0, Locality::Process}));
  EXPECT_EQ(rig.best(post, ExecutorId(3)), (TaskPick{1, Locality::Process}));

  master.set_executor_suspect(ExecutorId(0), true);
  master.set_executor_suspect(ExecutorId(3), true);
  rig.expect_matches("producers suspected");
  EXPECT_EQ(rig.best(post, ExecutorId(0)), (TaskPick{0, Locality::Node}));
  EXPECT_EQ(rig.best(post, ExecutorId(3)), (TaskPick{1, Locality::Node}));
  EXPECT_EQ(rig.best(post, ExecutorId(1)), (TaskPick{2, Locality::NoPref}));
  EXPECT_EQ(rig.index.levels(rig.state, master, post).front(), Locality::Node);
}

bool has_exec(std::span<const std::uint64_t> mask, ExecutorId e) {
  const auto i = static_cast<std::size_t>(e.value());
  return (mask[i >> 6] & (std::uint64_t{1} << (i & 63))) != 0;
}

/// Executors of a mask, ascending.
std::vector<ExecutorId> execs_of(std::span<const std::uint64_t> mask,
                                 const Topology& topo) {
  std::vector<ExecutorId> out;
  for (const Executor& e : topo.executors()) {
    if (has_exec(mask, e.id)) out.push_back(e.id);
  }
  return out;
}

LocalitySet levels_of(std::initializer_list<Locality> levels) {
  LocalitySet set;
  for (const Locality l : levels) set.insert(l);
  return set;
}

/// in (HDFS, every block on node 0) -narrow-> scan, `tasks` tasks of
/// `cpus` cores each, on IndexRig's four single-executor nodes.
JobDag hot_scan_dag(std::int32_t tasks, Cpus cpus) {
  JobDagBuilder b("hot");
  const RddId in = b.input_rdd("in", tasks, kMiB);
  b.add_stage({.name = "scan",
               .inputs = {{in, DepKind::Narrow}},
               .num_tasks = tasks,
               .task_cpus = cpus,
               .task_duration = kSec,
               .output_bytes_per_partition = Bytes{0}});
  return b.build();
}

HdfsSpec hot_node0() {
  HdfsSpec spec = single_replica();
  spec.skew = 1.0;
  spec.hot_nodes = 1;
  return spec;
}

TEST(CandidateWalk, SkipsTheFirstExecutorInRotationWhenItCannotFit) {
  IndexRig rig(hot_scan_dag(4, Cpus{2}), hot_node0());
  JobState& state = rig.state;
  const StageId scan(0);
  // One launch moves the rotation to start at exec 1, which keeps one
  // free core: too few for a 2-core task.
  state.mark_launched(scan, 3, ExecutorId(2), SimTime{0});
  state.set_free_cores(ExecutorId(1), Cpus{1});
  std::vector<ExecutorId> order;
  state.for_each_free_executor(Cpus{2}, {}, [&](ExecutorId e) {
    order.push_back(e);
    return false;
  });
  EXPECT_EQ(order,
            (std::vector<ExecutorId>{ExecutorId(2), ExecutorId(3),
                                     ExecutorId(0)}));
  order.clear();
  state.for_each_free_executor(Cpus{1}, {}, [&](ExecutorId e) {
    order.push_back(e);
    return false;
  });
  EXPECT_EQ(order.front(), ExecutorId(1));
  // One wait escalates the ladder from Node to Rack: the mask is rack 0,
  // execs 0 (Node) and 1 (Rack). The walk skips exec 1 for its cores.
  const CostModel cost(CostModelSpec{});
  const NativeDelayPolicy delay(LocalityWaits::uniform(kSec), cost);
  const auto a = delay.find(state, rig.master, scan, kSec);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->exec, ExecutorId(0));
  EXPECT_EQ(a->locality, Locality::Node);
  // With its cores back, exec 1 comes first in rotation and takes Rack.
  state.set_free_cores(ExecutorId(1), Cpus{4});
  const auto b = delay.find(state, rig.master, scan, kSec);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->exec, ExecutorId(1));
  EXPECT_EQ(b->locality, Locality::Rack);
}

TEST(CandidateWalk, Algorithm2RefusesNodeInsideTheRackMaskBeforeRack) {
  // Observed durations put est(Rack) below ect and est(Node) and est(Any)
  // at or above it: with the ladder still at Process, Algorithm 2
  // accepts {Process, Rack} (NoPref has no task), a set with a hole.
  IndexRig rig(hot_scan_dag(8, Cpus{1}), hot_node0());
  JobState& state = rig.state;
  BlockManagerMaster& master = rig.master;
  const StageId scan(0);
  const RddId in = rig.dag.stage(scan).inputs.front().rdd;
  const struct {
    std::int32_t task;
    Locality at;
    SimTime took;
  } done[] = {{4, Locality::Node, 100 * kSec},
              {5, Locality::Rack, kSec},
              {6, Locality::Any, 100 * kSec}};
  for (const auto& d : done) {
    state.mark_launched(scan, d.task, ExecutorId(0), SimTime{0});
    state.mark_finished(scan, d.task, ExecutorId(0), d.at, SimTime{0},
                        d.took);
  }
  // A memory copy of task 3 on exec 3 puts Process on the ladder; exec 3
  // itself lends its cores away. Three launches start the rotation at
  // exec 3, so the walk meets exec 0 (Node) before exec 1 (Rack).
  const BlockId in3{in, 3};
  master.on_block_read(in3, ExecutorId(3),
                       master.lookup(in3, ExecutorId(3)), kSec);
  state.set_free_cores(ExecutorId(3), Cpus{0});
  const SimTime now = 100 * kSec;
  const LocalitySet accept =
      levels_of({Locality::Process, Locality::Rack});
  const auto mask = rig.index.candidates(state, master, scan, accept);
  ASSERT_FALSE(mask.empty());
  EXPECT_EQ(execs_of(mask, rig.topo),
            (std::vector<ExecutorId>{ExecutorId(0), ExecutorId(1),
                                     ExecutorId(2), ExecutorId(3)}));
  EXPECT_EQ(rig.best(scan, ExecutorId(0)), (TaskPick{0, Locality::Node}));
  EXPECT_EQ(rig.best(scan, ExecutorId(1)), (TaskPick{0, Locality::Rack}));

  const CostModel cost(CostModelSpec{});
  const SensitivityAwareDelayPolicy delay(LocalityWaits::uniform(1000 * kSec),
                                          cost);
  const LogLevel level = logging::level();
  logging::set_level(LogLevel::Trace);
  testing::internal::CaptureStderr();
  const auto a = delay.find(state, master, scan, now);
  const std::string trace = testing::internal::GetCapturedStderr();
  logging::set_level(level);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->exec, ExecutorId(1));
  EXPECT_EQ(a->locality, Locality::Rack);
  EXPECT_NE(trace.find("algorithm2 refuses stage 0 @NODE_LOCAL on exec 0"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("algorithm2 accepts stage 0 task 0 @RACK_LOCAL on "
                       "exec 1"),
            std::string::npos)
      << trace;
}

TEST(CandidateWalk, StaleProcessBitIsClearedOnItsFirstVisit) {
  IndexRig rig(hot_scan_dag(4, Cpus{1}), hot_node0());
  JobState& state = rig.state;
  BlockManagerMaster& master = rig.master;
  const StageId scan(0);
  const RddId in = rig.dag.stage(scan).inputs.front().rdd;
  for (const std::int32_t p : {0, 1}) {
    const BlockId block{in, p};
    const ExecutorId holder(2 + p);
    master.on_block_read(block, holder, master.lookup(block, holder), kSec);
  }
  const LocalitySet process = levels_of({Locality::Process});
  EXPECT_EQ(execs_of(rig.index.candidates(state, master, scan, process),
                     rig.topo),
            (std::vector<ExecutorId>{ExecutorId(2), ExecutorId(3)}));
  // Task 0, the only one cached on exec 2, launches elsewhere: exec 2's
  // bucket holds no live entry, but its bit stays until a visit.
  state.mark_launched(scan, 0, ExecutorId(1), kSec);
  EXPECT_EQ(execs_of(rig.index.candidates(state, master, scan, process),
                     rig.topo),
            (std::vector<ExecutorId>{ExecutorId(2), ExecutorId(3)}));
  EXPECT_EQ(rig.best(scan, ExecutorId(2)), (TaskPick{1, Locality::Rack}));
  EXPECT_EQ(execs_of(rig.index.candidates(state, master, scan, process),
                     rig.topo),
            std::vector<ExecutorId>{ExecutorId(3)});
}

TEST(CandidateWalk, JournalOverflowRebuildResetsTheMasks) {
  // in1 is cached on exec 3 and the masks learn it; then in1 leaves
  // exec 3 and a full journal of churn on in0 (ending cached on exec 0)
  // hides that move. The rebuilt masks name exec 0 alone.
  IndexRig rig(hot_scan_dag(4, Cpus{1}), single_replica());
  JobState& state = rig.state;
  BlockManagerMaster& master = rig.master;
  const StageId scan(0);
  const RddId in = rig.dag.stage(scan).inputs.front().rdd;
  const BlockId in1{in, 1};
  const ExecutorId cached(3);
  master.on_block_read(in1, cached, master.lookup(in1, cached), kSec);
  const LocalitySet process = levels_of({Locality::Process});
  EXPECT_EQ(execs_of(rig.index.candidates(state, master, scan, process),
                     rig.topo),
            std::vector<ExecutorId>{cached});
  ASSERT_TRUE(master.drop_memory_block(in1, cached));
  const std::uint64_t moved_at = master.journal_end() - 1;
  const BlockId in0{in, 0};
  const ExecutorId reader(0);
  while (master.journal_begin() <= moved_at) {
    master.on_block_read(in0, reader, master.lookup(in0, reader), kSec);
    ASSERT_TRUE(master.drop_memory_block(in0, reader));
  }
  master.on_block_read(in0, reader, master.lookup(in0, reader), kSec);
  EXPECT_EQ(execs_of(rig.index.candidates(state, master, scan, process),
                     rig.topo),
            std::vector<ExecutorId>{reader});
  rig.expect_matches("after the rebuild");
}

TEST(CandidateWalk, LiveNoCopyBucketWidensTheMaskToEveryExecutor) {
  // prep -narrow-> post, with only prep's task 0 produced (memory and
  // disk on exec 0): post's tasks 1-3 read blocks that exist nowhere.
  JobDagBuilder b("nocopy");
  const RddId in = b.input_rdd("in", 4, kMiB);
  const StageId prep = b.add_stage({.name = "prep",
                                    .inputs = {{in, DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = kMiB});
  const StageId post = b.add_stage({.name = "post",
                                    .inputs = {{b.output_of(prep),
                                                DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = Bytes{0}});
  IndexRig rig(b.build(), hot_node0());
  BlockManagerMaster& master = rig.master;
  master.on_block_produced(BlockId{rig.dag.stage(prep).output, 0},
                           ExecutorId(0), kSec);
  EXPECT_EQ(rig.best(post, ExecutorId(2)), (TaskPick{1, Locality::NoPref}));
  EXPECT_TRUE(rig.index
                  .candidates(rig.state, master, post,
                              levels_of({Locality::Process, Locality::Node,
                                         Locality::NoPref}))
                  .empty());
  EXPECT_EQ(execs_of(rig.index.candidates(
                         rig.state, master, post,
                         levels_of({Locality::Process, Locality::Node})),
                     rig.topo),
            std::vector<ExecutorId>{ExecutorId(0)});
  EXPECT_TRUE(rig.index
                  .candidates(rig.state, master, post,
                              levels_of({Locality::Process, Locality::Any}))
                  .empty());
}

// --- estimator ---------------------------------------------------------------

TEST_F(SchedFixture, EstimatorUsesObservedDurations) {
  const TaskTimeEstimator est(state_, cost_);
  state_.mark_launched(StageId(0), 0, ExecutorId(0), SimTime{0});
  state_.mark_finished(StageId(0), 0, ExecutorId(0), Locality::Rack, SimTime{0},
                       9 * kSec);
  EXPECT_EQ(est.estimate(StageId(0), Locality::Rack), 9 * kSec);
}

TEST_F(SchedFixture, EstimatorFallsBackToCostModel) {
  const TaskTimeEstimator est(state_, cost_);
  const SimTime process = est.estimate(StageId(0), Locality::Process);
  const SimTime any = est.estimate(StageId(0), Locality::Any);
  EXPECT_GT(any, process);
  EXPECT_GE(process, dag().stage(StageId(0)).task_duration);
}

TEST_F(SchedFixture, EarliestCompletionTime) {
  const TaskTimeEstimator est(state_, cost_);
  // 3 pending on a 64-core cluster: optimistically one wave (Eq. 7 with
  // the stage's potential parallelism).
  const SimTime ect0 = est.earliest_completion(StageId(0));
  EXPECT_GE(ect0, dag().stage(StageId(0)).task_duration);
  EXPECT_LT(ect0, 2 * dag().stage(StageId(0)).task_duration);
  state_.mark_launched(StageId(0), 0, ExecutorId(0), SimTime{0});
  state_.mark_launched(StageId(0), 1, ExecutorId(1), SimTime{0});
  const SimTime ect1 = est.earliest_completion(StageId(0));
  EXPECT_LE(ect1, ect0);
}

TEST_F(SchedFixture, EarliestCompletionZeroWhenNoPending) {
  const TaskTimeEstimator est(state_, cost_);
  for (const std::int32_t t : {0, 1, 2}) {
    state_.mark_launched(StageId(0), t, ExecutorId(0), SimTime{0});
  }
  EXPECT_EQ(est.earliest_completion(StageId(0)), SimTime{0});
}

// --- delay scheduling ---------------------------------------------------------

TEST_F(SchedFixture, NativeDelayLaunchesBestLocalityImmediately) {
  const NativeDelayPolicy delay(LocalityWaits::uniform(3 * kSec), cost_);
  const auto a = delay.find(state_, master_, StageId(0), SimTime{0});
  ASSERT_TRUE(a.has_value());
  // With replication 1 the task must be node-local on its replica node.
  EXPECT_EQ(a->locality, Locality::Node);
  EXPECT_EQ(topo_.node_of(a->exec),
            hdfs_.replicas(BlockId{RddId(0), a->task_index})[0]);
}

TEST_F(SchedFixture, NativeDelayHoldsBackLowLocality) {
  const NativeDelayPolicy delay(LocalityWaits::uniform(3 * kSec), cost_);
  // Drain every node-local task; the remaining pending tasks would be
  // rack/any on every executor with spare cores.
  // Occupy the replica nodes' executors fully with fake core usage.
  for (const ExecutorRuntime& e : state_.executors()) {
    state_.set_free_cores(e.id, Cpus{0});
  }
  const NodeId n0 = hdfs_.replicas(BlockId{RddId(0), 0})[0];
  // Give cores only to an executor on a different rack.
  for (const Executor& e : topo_.executors()) {
    if (topo_.rack_of(topo_.node_of(e.id)) != topo_.rack_of(n0)) {
      state_.set_free_cores(e.id, Cpus{16});
      break;
    }
  }
  const auto a = delay.find(state_, master_, StageId(0), SimTime{0});
  // All pending S1 tasks might still be node-local for that rack's own
  // executor if a replica landed there; accept either "no launch" or a
  // node-local launch, but never a rack/any launch at t=0.
  if (a.has_value()) {
    EXPECT_TRUE(at_least(a->locality, Locality::Node));
  }
}

TEST_F(SchedFixture, NativeDelayEscalatesAfterWait) {
  const NativeDelayPolicy delay(LocalityWaits::uniform(3 * kSec), cost_);
  for (const ExecutorRuntime& e : state_.executors()) {
    state_.set_free_cores(e.id, Cpus{0});
  }
  const NodeId n0 = hdfs_.replicas(BlockId{RddId(0), 0})[0];
  ExecutorId far = ExecutorId::invalid();
  for (const Executor& e : topo_.executors()) {
    if (topo_.rack_of(topo_.node_of(e.id)) != topo_.rack_of(n0)) {
      far = e.id;
      break;
    }
  }
  ASSERT_TRUE(far.valid());
  state_.set_free_cores(far, Cpus{16});
  // Find a task that is NOT local to `far` to ensure the low-locality
  // case exists; after two full waits (node -> rack -> any) every task
  // is launchable anywhere.
  const auto late = delay.find(state_, master_, StageId(0), 7 * kSec);
  ASSERT_TRUE(late.has_value());
}

TEST_F(SchedFixture, ZeroWaitDisablesDelay) {
  const NativeDelayPolicy delay(LocalityWaits::uniform(SimTime{0}), cost_);
  for (const ExecutorRuntime& e : state_.executors()) {
    state_.set_free_cores(e.id, Cpus{0});
  }
  const NodeId n0 = hdfs_.replicas(BlockId{RddId(0), 0})[0];
  for (const Executor& e : topo_.executors()) {
    if (topo_.rack_of(topo_.node_of(e.id)) != topo_.rack_of(n0)) {
      state_.set_free_cores(e.id, Cpus{16});
      break;
    }
  }
  const auto a = delay.find(state_, master_, StageId(0), SimTime{0});
  EXPECT_TRUE(a.has_value());  // anything goes immediately
}

TEST_F(SchedFixture, DelayRespectsResourceDemand) {
  const NativeDelayPolicy delay(LocalityWaits::uniform(SimTime{0}), cost_);
  for (const ExecutorRuntime& e : state_.executors()) {
    state_.set_free_cores(e.id, Cpus{5});
  }
  // S2 demands 6 vCPUs: no executor fits.
  EXPECT_FALSE(delay.find(state_, master_, StageId(1), SimTime{0}).has_value());
  // S1 demands 4: fits.
  EXPECT_TRUE(delay.find(state_, master_, StageId(0), SimTime{0}).has_value());
}

TEST_F(SchedFixture, SensitivityAwareLaunchesInsensitiveTasksEarly) {
  const SensitivityAwareDelayPolicy delay(LocalityWaits::uniform(3 * kSec),
                                          cost_);
  // Make only a remote executor available; S1's 1 MiB inputs make any
  // locality penalty negligible vs its 4-minute compute, so Algorithm 2
  // must launch immediately instead of idling.
  for (const ExecutorRuntime& e : state_.executors()) {
    state_.set_free_cores(e.id, Cpus{0});
  }
  const NodeId n0 = hdfs_.replicas(BlockId{RddId(0), 0})[0];
  for (const Executor& e : topo_.executors()) {
    if (topo_.rack_of(topo_.node_of(e.id)) != topo_.rack_of(n0)) {
      state_.set_free_cores(e.id, Cpus{16});
      break;
    }
  }
  const auto a = delay.find(state_, master_, StageId(0), SimTime{0});
  ASSERT_TRUE(a.has_value());
}

TEST_F(SchedFixture, SensitivityAwareHoldsBackSensitiveTasks) {
  // Build a state where the stage is locality-sensitive: huge input,
  // tiny compute. Use the KMeans-style calibration via a custom DAG.
  JobDagBuilder b("sensitive");
  const RddId in = b.input_rdd("in", 4, kMiB);
  const StageId parse = b.add_stage({.name = "parse",
                                     .inputs = {{in, DepKind::Narrow}},
                                     .num_tasks = 4,
                                     .task_cpus = Cpus{1},
                                     .task_duration = kSec,
                                     .output_bytes_per_partition =
                                         256 * kMiB});
  b.add_stage({.name = "iter",
               .inputs = {{b.output_of(parse), DepKind::Narrow}},
               .num_tasks = 4,
               .task_cpus = Cpus{1},
               .task_duration = 100 * kMsec,
               .output_bytes_per_partition = Bytes{0}});
  const JobDag dag2 = b.build();
  const JobProfile profile2 = exact_profile(dag2);

  CostModelSpec cm;
  cm.serde_sec_per_byte = 40e-9;
  const CostModel cost2(cm);
  Rng rng2(5);
  HdfsSpec h;
  h.replication = 1;
  const HdfsPlacement hdfs2(dag2, topo_, h, rng2);
  ReferenceOracle oracle2(dag2);
  const auto policy2 = make_cache_policy(CachePolicyKind::Lru);
  BlockManagerMaster master2(topo_, dag2, hdfs2, oracle2, *policy2);
  JobState state2(dag2, topo_, profile2);

  // Pretend parse finished and cached its 256 MiB outputs on executor 0.
  state2.stage(StageId(0)).finished = true;
  for (std::int32_t t = 0; t < 4; ++t) {
    state2.stage(StageId(0)).pending.clear();
    master2.on_block_produced(BlockId{dag2.stage(StageId(0)).output, t},
                              ExecutorId(0), SimTime{0});
  }
  state2.refresh_ready(SimTime{0});

  const SensitivityAwareDelayPolicy delay(LocalityWaits::uniform(3 * kSec),
                                          cost2);
  // Only a cross-rack executor has cores: its est. duration (~10s of
  // serde) dwarfs ect (~0.4s for 4 process-local waves), so Algorithm 2
  // must NOT launch there at t=0.
  for (const ExecutorRuntime& e : state2.executors()) {
    state2.set_free_cores(e.id, Cpus{0});
  }
  for (const Executor& e : topo_.executors()) {
    if (topo_.rack_of(topo_.node_of(e.id)) !=
        topo_.rack_of(topo_.node_of(ExecutorId(0)))) {
      state2.set_free_cores(e.id, Cpus{16});
      break;
    }
  }
  EXPECT_FALSE(delay.find(state2, master2, StageId(1), SimTime{0}).has_value());
  // The data-holding executor is immediately usable. (The fixture's
  // 16 MiB caches cannot hold the 256 MiB partitions, so the best
  // locality is Node — the block sits on executor 0's node disk.)
  state2.set_free_cores(ExecutorId(0), Cpus{16});
  const auto a = delay.find(state2, master2, StageId(1), SimTime{0});
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(at_least(a->locality, Locality::Node));
  EXPECT_EQ(topo_.node_of(a->exec), topo_.node_of(ExecutorId(0)));
}

TEST_F(SchedFixture, DelayPolicyFactory) {
  EXPECT_STREQ(
      make_delay_policy(DelayKind::Native, LocalityWaits{}, cost_)->name(),
      "delay");
  EXPECT_STREQ(make_delay_policy(DelayKind::SensitivityAware,
                                 LocalityWaits{}, cost_)
                   ->name(),
               "sensitivity-aware");
}

// --- stage selectors -----------------------------------------------------------

TEST_F(SchedFixture, FifoOrdersByStageId) {
  const FifoSelector fifo;
  EXPECT_EQ(fifo.order(state_),
            (std::vector<StageId>{StageId(0), StageId(1)}));
}

TEST_F(SchedFixture, DagonOrdersByPriorityValue) {
  const DagonSelector dagon;
  // pv2=64 > pv1=52.
  EXPECT_EQ(dagon.order(state_),
            (std::vector<StageId>{StageId(1), StageId(0)}));
  // After one S2 assignment both pv are 52: tie goes to the lower id
  // (Table III step 2 picks stage 1).
  state_.mark_launched(StageId(1), 0, ExecutorId(0), SimTime{0});
  EXPECT_EQ(dagon.order(state_),
            (std::vector<StageId>{StageId(0), StageId(1)}));
}

TEST_F(SchedFixture, CriticalPathOrdersByRemainingChain) {
  const CriticalPathSelector cp(dag());
  // S2 chain (2+4+1=7min) > S1 chain (4+1=5min).
  EXPECT_EQ(cp.order(state_),
            (std::vector<StageId>{StageId(1), StageId(0)}));
}

TEST_F(SchedFixture, FairPrefersLeastAllocated) {
  const FairSelector fair;
  state_.mark_launched(StageId(0), 0, ExecutorId(0), SimTime{0});
  // S1 now holds 4 cores, S2 none -> S2 first.
  EXPECT_EQ(fair.order(state_),
            (std::vector<StageId>{StageId(1), StageId(0)}));
}

TEST_F(SchedFixture, GrapheneFlagsTroublesomeStages) {
  const GrapheneSelector graphene(dag(), profile_, Cpus{16});
  // S1 and S3 (4-minute tasks) are long-running; S2 (6/16 cores) is not
  // hard-to-pack under the 0.5 default, S4 is neither.
  EXPECT_TRUE(graphene.troublesome(StageId(0)));
  EXPECT_TRUE(graphene.troublesome(StageId(2)));
  EXPECT_FALSE(graphene.troublesome(StageId(3)));
  const auto order = graphene.order(state_);
  EXPECT_EQ(order.front(), StageId(0));  // troublesome first
}

TEST_F(SchedFixture, GrapheneDemandFractionFlagsWideStages) {
  const GrapheneSelector graphene(dag(), profile_, Cpus{8}, 0.99, 0.5);
  // With 8-core executors, S2's 6-vCPU tasks exceed half an executor.
  EXPECT_TRUE(graphene.troublesome(StageId(1)));
}

TEST_F(SchedFixture, SelectorFactoryCoversAllKinds) {
  for (const auto kind :
       {SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::CriticalPath,
        SchedulerKind::Graphene, SchedulerKind::Dagon}) {
    const auto sel = make_stage_selector(kind, dag(), profile_, Cpus{16});
    EXPECT_STREQ(sel->name(), scheduler_name(kind));
    EXPECT_FALSE(sel->order(state_).empty());
  }
}

// --- speculation -----------------------------------------------------------------

TEST_F(SchedFixture, SpeculationFlagsStragglers) {
  SpeculationConfig config;
  config.enabled = true;
  config.quantile = 0.5;
  config.multiplier = 1.5;

  // Two of three S1 tasks finished in 10s; one has been running 60s.
  StageRuntime& rt = state_.stage(StageId(0));
  rt.finished_tasks = 2;
  rt.finished_durations = {10 * kSec, 10 * kSec};

  std::vector<TaskRuntime> running(1);
  running[0].stage = StageId(0);
  running[0].index = 2;
  running[0].status = TaskStatus::Running;
  running[0].launch_time = SimTime{0};

  const auto candidates =
      speculation_candidates(state_, running, {}, config, 60 * kSec);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].task_index, 2);
  EXPECT_EQ(candidates[0].threshold, 15 * kSec);
}

TEST_F(SchedFixture, SpeculationMedianAveragesEvenSampleCounts) {
  SpeculationConfig config;
  config.enabled = true;
  config.quantile = 0.5;
  config.multiplier = 2.0;

  // Four unsorted samples: sorted {1s, 2s, 3s, 4s} → true median 2.5s →
  // threshold 5s. The old upper-median shortcut said 3s → 6s.
  StageRuntime& rt = state_.stage(StageId(0));
  rt.finished_tasks = 3;
  rt.finished_durations = {2 * kSec, 4 * kSec, kSec, 3 * kSec};

  std::vector<TaskRuntime> running(1);
  running[0].stage = StageId(0);
  running[0].index = 2;
  running[0].status = TaskStatus::Running;
  running[0].launch_time = SimTime{0};

  EXPECT_TRUE(
      speculation_candidates(state_, running, {}, config, 5 * kSec).empty());
  const auto candidates =
      speculation_candidates(state_, running, {}, config, 5 * kSec + kMsec);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].threshold, 5 * kSec);
}

TEST_F(SchedFixture, SpeculationRespectsQuantileGate) {
  SpeculationConfig config;
  config.enabled = true;
  config.quantile = 0.9;  // needs 90% finished
  StageRuntime& rt = state_.stage(StageId(0));
  rt.finished_tasks = 2;  // only 66%
  rt.finished_durations = {kSec, kSec};
  std::vector<TaskRuntime> running(1);
  running[0].stage = StageId(0);
  running[0].status = TaskStatus::Running;
  running[0].launch_time = SimTime{0};
  EXPECT_TRUE(
      speculation_candidates(state_, running, {}, config, kMinute).empty());
}

TEST_F(SchedFixture, SpeculationIgnoresSpeculativeAttempts) {
  SpeculationConfig config;
  config.enabled = true;
  config.quantile = 0.1;
  StageRuntime& rt = state_.stage(StageId(0));
  rt.finished_tasks = 2;
  rt.finished_durations = {kSec, kSec};
  std::vector<TaskRuntime> running(1);
  running[0].stage = StageId(0);
  running[0].status = TaskStatus::Running;
  running[0].launch_time = SimTime{0};
  running[0].speculative = true;
  EXPECT_TRUE(
      speculation_candidates(state_, running, {}, config, kMinute).empty());
}

TEST_F(SchedFixture, SpeculationDisabled) {
  const SpeculationConfig config;  // enabled = false
  std::vector<TaskRuntime> running(1);
  running[0].stage = StageId(0);
  running[0].status = TaskStatus::Running;
  EXPECT_TRUE(
      speculation_candidates(state_, running, {}, config, kMinute).empty());
}

}  // namespace
}  // namespace dagon
