// Unit + integration tests for the simulation engine: event queue,
// metrics, and full SimDriver runs over small DAGs.
#include <gtest/gtest.h>

#include "common/sorted_view.hpp"
#include "core/runner.hpp"
#include "sim/driver.hpp"
#include "sim/event_queue.hpp"
#include "workloads/example_dag.hpp"
#include "workloads/graph_workloads.hpp"
#include "workloads/ml_workloads.hpp"

namespace dagon {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(Event{SimTime{30}, EventType::Tick, TaskId::invalid(),
               ExecutorId::invalid(), BlockId{}});
  q.push(Event{SimTime{10}, EventType::TaskFinish, TaskId(1), ExecutorId::invalid(),
               BlockId{}});
  q.push(Event{SimTime{20}, EventType::PrefetchDone, TaskId::invalid(),
               ExecutorId(0), BlockId{}});
  EXPECT_EQ(q.next_time(), SimTime{10});
  EXPECT_EQ(q.pop()->type, EventType::TaskFinish);
  EXPECT_EQ(q.pop()->type, EventType::PrefetchDone);
  EXPECT_EQ(q.pop()->type, EventType::Tick);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.push(Event{SimTime{5}, EventType::TaskFinish, TaskId(1), ExecutorId::invalid(),
               BlockId{}});
  q.push(Event{SimTime{5}, EventType::TaskFinish, TaskId(2), ExecutorId::invalid(),
               BlockId{}});
  EXPECT_EQ(q.pop()->task, TaskId(1));
  EXPECT_EQ(q.pop()->task, TaskId(2));
}

TEST(EventQueue, RejectsNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.push(Event{SimTime{-1}, EventType::Tick, TaskId::invalid(),
                            ExecutorId::invalid(), BlockId{}}),
               InvariantError);
}

// --- RunMetrics -------------------------------------------------------------

TEST(RunMetrics, DerivedQuantities) {
  RunMetrics m;
  m.jct = 10 * kSec;
  m.total_cores = Cpus{10};
  m.busy_cores.set(SimTime{0}, 5.0);
  m.busy_cores.set(10 * kSec, 0.0);
  EXPECT_DOUBLE_EQ(m.cpu_utilization(), 0.5);

  m.running_tasks.set(SimTime{0}, 4.0);
  m.running_tasks.set(10 * kSec, 0.0);
  EXPECT_DOUBLE_EQ(m.avg_parallelism(), 4.0);

  m.locality_histogram[static_cast<std::size_t>(Locality::Process)] = 3;
  m.locality_histogram[static_cast<std::size_t>(Locality::Rack)] = 1;
  EXPECT_DOUBLE_EQ(m.high_locality_fraction(), 0.75);
}

TEST(RunMetrics, CacheHitRatio) {
  CacheStats stats;
  stats.local_memory_hits = 3;
  stats.total_reads = 4;
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.75);
  EXPECT_DOUBLE_EQ(CacheStats{}.hit_ratio(), 0.0);
}

// --- SimDriver integration ---------------------------------------------------

SimConfig single_executor_config() {
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 1;
  config.topology.executors_per_node = 1;
  config.topology.cores_per_executor = Cpus{16};
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.hdfs.replication = 1;
  return config;
}

TEST(SimDriver, Fig1FifoFinishesAt13Minutes) {
  const Workload w = make_example_dag();
  SimConfig config = single_executor_config();
  config.scheduler = SchedulerKind::Fifo;
  const RunResult r = run_workload(w, config);
  // Fig. 2(a): FIFO finishes at 13 min (fetch costs are ~ms noise).
  EXPECT_NEAR(to_seconds(r.metrics.jct), 13 * 60, 2.0);
}

TEST(SimDriver, Fig1DagonFinishesAt9Minutes) {
  const Workload w = make_example_dag();
  SimConfig config = single_executor_config();
  config.scheduler = SchedulerKind::Dagon;
  config.cache = CachePolicyKind::Lrp;
  config.delay = DelayKind::SensitivityAware;
  const RunResult r = run_workload(w, config);
  // Fig. 2(b): the DAG-aware schedule finishes at 9 min.
  EXPECT_NEAR(to_seconds(r.metrics.jct), 9 * 60, 2.0);
}

TEST(SimDriver, ConservesResourceAccounting) {
  const Workload w = make_example_dag();
  SimConfig config = single_executor_config();
  const RunResult r = run_workload(w, config);
  // Busy cores returns to zero and never exceeds capacity.
  EXPECT_DOUBLE_EQ(r.metrics.busy_cores.value(), 0.0);
  EXPECT_LE(r.metrics.busy_cores.max_over(SimTime{0}, r.metrics.jct), 16.0);
  EXPECT_DOUBLE_EQ(r.metrics.running_tasks.value(), 0.0);
}

TEST(SimDriver, AllTasksRunExactlyOnce) {
  const Workload w = make_example_dag();
  const RunResult r = run_workload(w, single_executor_config());
  EXPECT_EQ(r.metrics.tasks.size(),
            static_cast<std::size_t>(w.dag.total_tasks()));
  for (const TaskRecord& t : r.metrics.tasks) {
    EXPECT_FALSE(t.cancelled);
    EXPECT_GE(t.launch, SimTime{0});
    EXPECT_GT(t.finish, t.launch);
  }
}

TEST(SimDriver, StageRecordsRespectDependencies) {
  const Workload w = make_example_dag();
  const RunResult r = run_workload(w, single_executor_config());
  for (const StageRecord& s : r.metrics.stages) {
    EXPECT_GE(s.first_launch, SimTime{0});
    EXPECT_GT(s.finish_time, s.first_launch);
    for (const StageId p : w.dag.stage(s.id).parents) {
      EXPECT_GE(s.first_launch, r.metrics.stages[static_cast<std::size_t>(
                                    p.value())]
                                    .finish_time);
    }
  }
}

TEST(SimDriver, DeterministicAcrossRuns) {
  KMeansParams params;
  params.partitions = 16;
  params.iterations = 3;
  const Workload w = make_kmeans(params);
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 4;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{4};
  config.seed = 77;
  config.duration_noise = 0.1;
  const RunResult a = run_workload(w, config);
  const RunResult b = run_workload(w, config);
  EXPECT_EQ(a.metrics.jct, b.metrics.jct);
  ASSERT_EQ(a.metrics.tasks.size(), b.metrics.tasks.size());
  for (std::size_t i = 0; i < a.metrics.tasks.size(); ++i) {
    EXPECT_EQ(a.metrics.tasks[i].launch, b.metrics.tasks[i].launch);
    EXPECT_EQ(a.metrics.tasks[i].exec, b.metrics.tasks[i].exec);
  }
}

TEST(SimDriver, SeedChangesPlacement) {
  KMeansParams params;
  params.partitions = 16;
  params.iterations = 3;
  const Workload w = make_kmeans(params);
  const JobProfile profile = exact_profile(w.dag);
  SimConfig config;
  config.topology.nodes_per_rack = 4;
  config.hdfs.replication = 1;
  config.seed = 1;
  const SimDriver a(w.dag, profile, config);
  config.seed = 2;
  const SimDriver b(w.dag, profile, config);
  // Different seeds almost surely place at least one block differently.
  bool any_diff = false;
  for (std::int64_t ord = 0; ord < a.hdfs().num_blocks(); ++ord) {
    if (b.hdfs().replicas_by_ord(ord) != a.hdfs().replicas_by_ord(ord)) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SimDriver, CacheDisabledRunsAndNeverHits) {
  const Workload w = make_example_dag();
  SimConfig config = single_executor_config();
  config.cache_enabled = false;
  const RunResult r = run_workload(w, config);
  EXPECT_EQ(r.metrics.cache.local_memory_hits, 0);
  EXPECT_EQ(r.metrics.cache.insertions, 0);
  EXPECT_GT(r.metrics.cache.disk_reads, 0);
}

TEST(SimDriver, RejectsUnplaceableDemand) {
  JobDagBuilder b("toofat");
  const RddId in = b.input_rdd("in", 1, kMiB);
  b.add_stage({.name = "s",
               .inputs = {{in, DepKind::Narrow}},
               .num_tasks = 1,
               .task_cpus = Cpus{32},  // > 16-core executors
               .task_duration = kSec});
  const Workload w{"toofat", WorkloadCategory::Mixed, b.build()};
  EXPECT_THROW(run_workload(w, single_executor_config()), ConfigError);
}

TEST(SimDriver, SingleShot) {
  const Workload w = make_example_dag();
  const JobProfile profile = exact_profile(w.dag);
  SimDriver driver(w.dag, profile, single_executor_config());
  (void)driver.run();
  EXPECT_THROW((void)driver.run(), InvariantError);
}

TEST(SimDriver, SpeculationRecoversFromStraggler) {
  // One stage, 8 tasks, one pathological straggler (100x).
  JobDagBuilder b("straggler");
  const RddId in = b.input_rdd("in", 8, kMiB);
  std::vector<double> skew(8, 1.0);
  skew[3] = 100.0;
  b.add_stage({.name = "s",
               .inputs = {{in, DepKind::Narrow}},
               .num_tasks = 8,
               .task_cpus = Cpus{1},
               .task_duration = 2 * kSec,
               .output_bytes_per_partition = Bytes{0},
               .cache_output = false,
               .duration_skew = skew});
  const Workload w{"straggler", WorkloadCategory::Mixed, b.build()};

  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{4};

  const RunResult without = run_workload(w, config);
  config.speculation.enabled = true;
  config.speculation.quantile = 0.5;
  config.speculation.multiplier = 2.0;
  const RunResult with = run_workload(w, config);

  // The straggler's skewed compute time is baked into the copy too (the
  // simulator treats skew as task-intrinsic), so speculation cannot help
  // here by construction — but it must at least not corrupt accounting.
  EXPECT_DOUBLE_EQ(with.metrics.busy_cores.value(), 0.0);
  std::int64_t speculative = 0;
  for (const TaskRecord& t : with.metrics.tasks) {
    speculative += t.speculative ? 1 : 0;
  }
  EXPECT_GE(speculative, 1);
  EXPECT_LE(with.metrics.jct, without.metrics.jct * 11 / 10);
}

TEST(SimDriver, PerExecutorProfilesCollectedOnDemand) {
  const Workload w = make_example_dag();
  SimConfig config = single_executor_config();
  EXPECT_TRUE(run_workload(w, config).metrics.executor_profiles.empty());
  config.per_executor_profiles = true;
  const RunResult r = run_workload(w, config);
  ASSERT_EQ(r.metrics.executor_profiles.size(), 1u);
  EXPECT_FALSE(r.metrics.executor_profiles[0].pending.empty());
}

/// ConnectedComponent (16 partitions) on 2 nodes x 2 executors with room
/// to cache: each superstep kills the previous vertex-state RDD, the
/// proactive sweep frees space, and a prefetching policy brings the
/// evicted in-adjacency blocks back from local disk.
RunResult run_connected_component(CachePolicyKind cache) {
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{4};
  config.topology.cache_bytes_per_executor = 512 * kMiB;
  config.cache = cache;
  return run_workload(make_connected_component(16), config);
}

TEST(SimDriver, PrefetchingHappensForLrp) {
  const RunResult r = run_connected_component(CachePolicyKind::Lrp);
  EXPECT_GT(r.metrics.cache.prefetches, 0);
  EXPECT_GT(r.metrics.cache.proactive_evictions, 0);
}

TEST(SimDriver, PrefetchingHappensForMrd) {
  const RunResult r = run_connected_component(CachePolicyKind::Mrd);
  EXPECT_GT(r.metrics.cache.prefetches, 0);
  EXPECT_GT(r.metrics.cache.proactive_evictions, 0);
}

TEST(SimDriver, NoPrefetchingForPoliciesThatNeverPrefetch) {
  for (const CachePolicyKind kind :
       {CachePolicyKind::Lru, CachePolicyKind::Lrc, CachePolicyKind::Lerc}) {
    const RunResult r = run_connected_component(kind);
    EXPECT_EQ(r.metrics.cache.prefetches, 0) << cache_policy_name(kind);
    EXPECT_GT(r.metrics.cache.disk_reads, 0) << cache_policy_name(kind);
  }
}

TEST(SimDriver, LocalityHistogramPopulated) {
  const Workload w = make_example_dag();
  const RunResult r = run_workload(w, single_executor_config());
  std::int64_t total = 0;
  for (std::size_t l = 0; l < r.metrics.locality_histogram.size(); ++l) {
    total += r.metrics.locality_histogram[l];
  }
  EXPECT_EQ(total, w.dag.total_tasks());
}

}  // namespace
}  // namespace dagon
