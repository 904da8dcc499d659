// Unit tests for the scheduler module: job state bookkeeping, locality
// classification, estimators, delay scheduling (native + Algorithm 2),
// stage selectors, and speculation.
#include <gtest/gtest.h>

#include "cache/block_manager_master.hpp"
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
  EXPECT_EQ(state_.priority_value(StageId(0)), CpuWork{52 * kMinute.count()});
  EXPECT_EQ(state_.priority_value(StageId(1)), CpuWork{64 * kMinute.count()});
}

TEST_F(SchedFixture, MarkLaunchedUpdatesWorkAndCores) {
  state_.mark_launched(StageId(1), 0, ExecutorId(0), SimTime{0});
  // Table III step 1: w2 36 -> 24, pv2 64 -> 52, free 16 -> 10.
  EXPECT_EQ(state_.stage(StageId(1)).remaining_work,
            CpuWork{24 * kMinute.count()});
  EXPECT_EQ(state_.priority_value(StageId(1)), CpuWork{52 * kMinute.count()});
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
  const CpuWork after_launch = state_.stage(StageId(0)).remaining_work;
  // The legal route back to pending is through a failure (the retry
  // path the driver takes); readd_pending enforces Failed -> Pending.
  state_.mark_failed(StageId(0), 0);
  state_.readd_pending(StageId(0), 0);
  EXPECT_EQ(state_.stage(StageId(0)).remaining_work,
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
  const JobDag dag = b.build();
  const JobProfile profile = exact_profile(dag);
  TopologySpec spec;
  spec.racks = 2;
  spec.nodes_per_rack = 2;
  spec.cache_bytes_per_executor = 16 * kMiB;
  const Topology topo(spec);
  Rng rng(3);
  HdfsSpec hdfs_spec;
  hdfs_spec.replication = 1;
  const HdfsPlacement hdfs(dag, topo, hdfs_spec, rng);
  ReferenceOracle oracle(dag);
  const auto policy = make_cache_policy(CachePolicyKind::Lru);
  BlockManagerMaster master(topo, dag, hdfs, oracle, *policy);
  const JobState state(dag, topo, profile);
  LocalityCache cache;

  // The memo must give what a recompute gives, for every pending (task,
  // executor) pair and every stage's ladder. Each check also refills the
  // memo, so a hook that moves placement without bumping
  // placement_version() leaves a stale answer for the next check.
  const auto expect_memo_matches = [&](const char* step) {
    SCOPED_TRACE(step);
    for (const Stage& s : dag.stages()) {
      const StageRuntime& rt = state.stage(s.id);
      for (const std::int32_t index : rt.pending) {
        for (const Executor& e : topo.executors()) {
          EXPECT_EQ(cache.locality(dag, master, topo, s.id, index, e.id),
                    task_locality_on(dag, master, topo, s.id, index, e.id))
              << "stage " << s.id << " task " << index << " exec " << e.id;
        }
      }
      EXPECT_EQ(cache.levels(dag, master, topo, rt),
                valid_locality_levels(dag, master, topo, rt))
          << "stage " << s.id;
    }
  };
  expect_memo_matches("initial");

  master.seed_initial_cache(SimTime{0});
  expect_memo_matches("seed_initial_cache");
  const BlockId in0{in, 0};
  const ExecutorId holder = master.memory_holders(in0).at(0);
  // Two seeded blocks leave at least two of the four caches empty.
  std::vector<ExecutorId> empty;
  for (const Executor& e : topo.executors()) {
    if (master.manager(e.id).num_blocks() == 0) empty.push_back(e.id);
  }
  ASSERT_GE(empty.size(), 2u);
  const ExecutorId reader = empty.front();
  const ExecutorId target = empty.back();

  master.on_block_produced(BlockId{dag.stage(prep).output, 0}, holder, kSec);
  expect_memo_matches("on_block_produced");

  const BlockId in2{in, 2};
  master.on_block_read(in2, reader, master.lookup(in2, reader), kSec);
  ASSERT_EQ(master.memory_holders(in2), std::vector<ExecutorId>{reader});
  expect_memo_matches("on_block_read admit");

  ASSERT_TRUE(master.drop_memory_block(in2, reader));
  expect_memo_matches("drop_memory_block");

  master.set_executor_suspect(holder, true);
  expect_memo_matches("set_executor_suspect on");

  // prep's output block 0 has its only copy on the suspect.
  EXPECT_EQ(master.rereplicate_suspect_blocks(target).blocks, 1);
  expect_memo_matches("rereplicate_suspect_blocks");

  master.set_executor_suspect(holder, false);
  expect_memo_matches("set_executor_suspect off");

  // target holds one disk copy and no memory copy.
  EXPECT_EQ(master.drop_executor(target).disk_dropped, 1);
  expect_memo_matches("drop_executor");
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
      speculation_candidates(state_, running, config, 60 * kSec);
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
      speculation_candidates(state_, running, config, 5 * kSec).empty());
  const auto candidates =
      speculation_candidates(state_, running, config, 5 * kSec + kMsec);
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
      speculation_candidates(state_, running, config, kMinute).empty());
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
      speculation_candidates(state_, running, config, kMinute).empty());
}

TEST_F(SchedFixture, SpeculationDisabled) {
  const SpeculationConfig config;  // enabled = false
  std::vector<TaskRuntime> running(1);
  running[0].stage = StageId(0);
  running[0].status = TaskStatus::Running;
  EXPECT_TRUE(
      speculation_candidates(state_, running, config, kMinute).empty());
}

}  // namespace
}  // namespace dagon
