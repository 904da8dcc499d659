// Fault injection + lineage recovery: FaultPlan validation, crash /
// transient-failure / block-loss recovery correctness, and the
// bit-identity guarantee for fault-free runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/presets.hpp"
#include "core/runner.hpp"
#include "fault/fault_plan.hpp"
#include "sim/driver.hpp"
#include "workloads/example_dag.hpp"
#include "workloads/suite.hpp"

namespace dagon {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlan, RejectsBadKnobs) {
  auto plan = [](FaultConfig f) { return FaultPlan(f, 4, 1, 1); };
  FaultConfig f = FaultConfig{};
  f.task_fail_prob = 1.0;
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.task_fail_prob = -0.1;
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.task_fail_prob = kNaN;
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.block_loss_per_gb_hour = -1.0;
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.block_loss_per_gb_hour = kNaN;
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.block_loss_interval = SimTime{0};
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.retry_backoff_base = SimTime{0};
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.retry_backoff_cap = f.retry_backoff_base / 2;
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.max_task_retries = 0;
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.crashes.push_back({-kSec, 0});
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  f.crashes.push_back({kSec, 7});  // only executors 0..3 exist
  EXPECT_THROW(plan(f), ConfigError);
  f = FaultConfig{};
  for (int i = 0; i < 4; ++i) f.crashes.push_back({kSec, -1});
  EXPECT_THROW(plan(f), ConfigError);  // would crash the whole cluster
}

TEST(FaultPlan, ResolvesRandomTargetsToDistinctExecutors) {
  FaultConfig f = FaultConfig{};
  f.crashes = {{30 * kSec, -1}, {10 * kSec, -1}, {20 * kSec, -1}};
  const FaultPlan plan(f, 4, 1, 42);
  ASSERT_EQ(plan.crashes().size(), 3u);
  // Sorted by time, distinct in-range targets.
  EXPECT_EQ(plan.crashes()[0].at, 10 * kSec);
  EXPECT_EQ(plan.crashes()[2].at, 30 * kSec);
  std::vector<std::int32_t> targets;
  for (const auto& c : plan.crashes()) {
    EXPECT_TRUE(c.exec.valid());
    EXPECT_LT(c.exec.value(), 4);
    targets.push_back(c.exec.value());
  }
  std::sort(targets.begin(), targets.end());
  EXPECT_TRUE(std::adjacent_find(targets.begin(), targets.end()) ==
              targets.end());

  // Same seed resolves identically.
  const FaultPlan again(f, 4, 1, 42);
  for (std::size_t i = 0; i < plan.crashes().size(); ++i) {
    EXPECT_EQ(plan.crashes()[i].exec, again.crashes()[i].exec);
  }
}

TEST(FaultPlan, BackoffIsCappedExponential) {
  FaultConfig f = FaultConfig{};
  f.retry_backoff_base = kSec;
  f.retry_backoff_cap = 30 * kSec;
  FaultPlan plan(f, 4, 1, 1);
  EXPECT_EQ(plan.retry_backoff(0), kSec);
  EXPECT_EQ(plan.retry_backoff(1), 2 * kSec);
  EXPECT_EQ(plan.retry_backoff(4), 16 * kSec);
  EXPECT_EQ(plan.retry_backoff(5), 30 * kSec);   // 32s capped
  EXPECT_EQ(plan.retry_backoff(60), 30 * kSec);  // no overflow
}

// --- SimConfig validation ----------------------------------------------------

SimConfig fault_test_cluster() {
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{8};
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.hdfs.replication = 1;
  return config;
}

TEST(SimConfigValidation, RejectsOutOfRangeKnobs) {
  const Workload w = make_example_dag();
  const JobProfile profile = exact_profile(w.dag);
  auto expect_rejected = [&](SimConfig config) {
    EXPECT_THROW(SimDriver(w.dag, profile, config), ConfigError);
  };
  SimConfig config = fault_test_cluster();
  config.duration_noise = -0.5;
  expect_rejected(config);
  config = fault_test_cluster();
  config.ect_slack = 0.0;
  expect_rejected(config);
  config = fault_test_cluster();
  config.speculation.quantile = 1.5;
  expect_rejected(config);
  config = fault_test_cluster();
  config.speculation.multiplier = 0.0;
  expect_rejected(config);
  config = fault_test_cluster();
  config.max_sim_time = SimTime{0};
  expect_rejected(config);
  config = fault_test_cluster();
  config.faults.task_fail_prob = 2.0;
  expect_rejected(config);
  config = fault_test_cluster();
  config.waits.node = -kSec;
  expect_rejected(config);
  // NaN passes a range check written `x < lo || x > hi`; every check
  // must reject it instead.
  config = fault_test_cluster();
  config.duration_noise = kNaN;
  expect_rejected(config);
  config = fault_test_cluster();
  config.ect_slack = kNaN;
  expect_rejected(config);
  // inf passes `ect_slack > 0` but overflows scale_time(ect, slack).
  config = fault_test_cluster();
  config.ect_slack = std::numeric_limits<double>::infinity();
  expect_rejected(config);
  config = fault_test_cluster();
  config.speculation.quantile = kNaN;
  expect_rejected(config);
  config = fault_test_cluster();
  config.speculation.multiplier = kNaN;
  expect_rejected(config);
  config = fault_test_cluster();
  config.capacity_phases = {{kSec, kNaN}};
  expect_rejected(config);
  config = fault_test_cluster();
  config.faults.task_fail_prob = kNaN;
  expect_rejected(config);
}

TEST(SimConfigValidation, RejectsFactorsThatOverflowSimTime) {
  // The Fig. 1 DAG's longest task runs 4 minutes (2.4e8 us); SimTime
  // holds 9.2e18 us. A knob that scales that task past a quarter of the
  // range must be a ConfigError naming the knob.
  const Workload w = make_example_dag();
  const JobProfile profile = exact_profile(w.dag);
  auto expect_named = [&](const SimConfig& config, const char* knob) {
    try {
      SimDriver driver(w.dag, profile, config);
      ADD_FAILURE() << "accepted; expected a ConfigError naming " << knob;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << e.what();
    }
  };
  SimConfig config = fault_test_cluster();
  config.duration_noise = 1e13;
  expect_named(config, "duration_noise");
  config = fault_test_cluster();
  config.tail.tiers = {{"slow", 0.5, 1e15}};
  expect_named(config, "exec tier mult");
  config = fault_test_cluster();
  config.faults.heavy_tail_prob = 0.5;
  config.faults.heavy_tail_mult = 1e15;
  expect_named(config, "heavy_tail_mult");
  // Two windows that overlap on one executor multiply.
  config = fault_test_cluster();
  config.faults.degrades = {{kSec, 60 * kSec, 0, 1e6},
                            {2 * kSec, 60 * kSec, 0, 1e6}};
  expect_named(config, "degrades slowdown");
  // The factors compose: neither alone leaves the range, and the error
  // names the one that takes the product out of it.
  config = fault_test_cluster();
  config.duration_noise = 1e5;
  config.tail.tiers = {{"slow", 0.5, 1e5}};
  expect_named(config, "exec tier mult");

  // Large factors that keep every duration in range are still valid, and
  // so are the same degrade windows when they do not overlap in time or
  // name two executors.
  const auto expect_accepted = [&](const SimConfig& c) {
    EXPECT_NO_THROW(SimDriver(w.dag, profile, c));
  };
  config = fault_test_cluster();
  config.duration_noise = 1e6;
  expect_accepted(config);
  config = fault_test_cluster();
  config.tail.tiers = {{"slow", 0.5, 1e9}};
  config.faults.heavy_tail_prob = 0.0;  // a multiplier that never fires
  config.faults.heavy_tail_mult = 1e15;
  expect_accepted(config);
  config = fault_test_cluster();
  config.faults.degrades = {{kSec, 2 * kSec, 0, 1e6},
                            {2 * kSec, 60 * kSec, 0, 1e6}};
  expect_accepted(config);
  config.faults.degrades = {{kSec, 60 * kSec, 0, 1e6},
                            {2 * kSec, 60 * kSec, 1, 1e6}};
  expect_accepted(config);
  config.faults.degrades[1].executor = -1;  // may land on executor 0
  expect_named(config, "degrades slowdown");
}

// --- recovery correctness ----------------------------------------------------

TEST(FaultRecovery, ZeroKnobFaultConfigIsBitIdentical) {
  const Workload w = make_example_dag();
  SimConfig off = fault_test_cluster();
  const RunMetrics a = run_workload(w, off).metrics;

  // Every knob that cannot fire a fault by itself moves off its default;
  // with no schedule and every rate at zero, nothing may fire.
  SimConfig zeroed = fault_test_cluster();
  zeroed.faults.heavy_tail_mult = 3.0;
  zeroed.faults.block_loss_interval = 7 * kSec;
  zeroed.faults.retry_backoff_base = 2 * kSec;
  zeroed.faults.retry_backoff_cap = 9 * kSec;
  zeroed.faults.max_task_retries = 5;
  zeroed.faults.heartbeat_interval = 3 * kSec;
  zeroed.faults.suspect_phi = 0.5;
  zeroed.faults.dead_phi = 2.0;
  zeroed.faults.blacklist_threshold = 1;
  zeroed.faults.blacklist_probation = 5 * kSec;
  const RunMetrics b = run_workload(w, zeroed).metrics;
  EXPECT_EQ(metrics_fingerprint(a), metrics_fingerprint(b));
  EXPECT_FALSE(b.faults.any());
}

TEST(FaultRecovery, CompletesUnderExecutorCrash) {
  const Workload w = make_example_dag();
  SimConfig config = fault_test_cluster();
  config.faults.crashes = {{120 * kSec, 0}};
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_EQ(m.faults.executor_crashes, 1);
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
  // No task record ever ran on the dead executor after the crash.
  for (const TaskRecord& t : m.tasks) {
    if (t.exec == ExecutorId(0)) {
      EXPECT_LE(t.launch, 120 * kSec);
    }
  }
}

TEST(FaultRecovery, CompletesUnderTransientFailures) {
  const Workload w = make_example_dag();
  SimConfig config = fault_test_cluster();
  config.faults.task_fail_prob = 0.2;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.faults.transient_failures, 0);
  EXPECT_GT(m.faults.retries, 0);
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});

  // Failed attempts are excluded from the mean task duration.
  SimConfig clean = fault_test_cluster();
  const RunMetrics base = run_workload(w, clean).metrics;
  EXPECT_GE(m.jct, base.jct);
}

TEST(FaultRecovery, CompletesUnderBlockLoss) {
  const Workload w = make_example_dag();
  SimConfig config = fault_test_cluster();
  // Blocks are ~1 MiB, so an honest per-GB rate never fires; crank it so
  // losses are near-certain over the run.
  config.faults.block_loss_per_gb_hour = 2e5;
  config.faults.block_loss_interval = kSec;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.faults.memory_blocks_lost, 0);
  EXPECT_EQ(m.faults.blocks_fully_lost, 0);  // disk copies survive
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
}

TEST(FaultRecovery, FaultyRunsAreDeterministic) {
  const Workload w = make_example_dag();
  SimConfig config = fault_test_cluster();
  config.duration_noise = 0.1;
  config.faults.crashes = {{90 * kSec, -1}};
  config.faults.task_fail_prob = 0.1;
  config.faults.block_loss_per_gb_hour = 10.0;
  const RunMetrics a = run_workload(w, config).metrics;
  const RunMetrics b = run_workload(w, config).metrics;
  EXPECT_EQ(metrics_fingerprint(a), metrics_fingerprint(b));
  EXPECT_TRUE(a.faults.any());
}

TEST(FaultRecovery, CrashedExecutorLeavesClusterAndCacheStaysDiskBacked) {
  const Workload w = make_example_dag();
  const JobProfile profile = exact_profile(w.dag);
  SimConfig config = fault_test_cluster();
  config.faults.crashes = {{120 * kSec, 0}};
  SimDriver driver(w.dag, profile, config);
  const RunMetrics m = driver.run();
  EXPECT_EQ(m.faults.executor_crashes, 1);

  EXPECT_FALSE(driver.state().executor(ExecutorId(0)).alive());
  EXPECT_EQ(driver.state().executor(ExecutorId(0)).free_cores(), Cpus{0});
  EXPECT_EQ(driver.master().manager(ExecutorId(0)).num_blocks(), 0u);

  // Recovery invariant: every memory copy anywhere is still disk-backed,
  // so ordinary eviction can never lose data.
  for (const Executor& e : driver.topology().executors()) {
    for (const auto& entry : driver.master().manager(e.id).entries()) {
      EXPECT_FALSE(driver.master().hdfs_replicas(entry.id).empty() &&
                   driver.master().produced_disk_nodes(entry.id).empty())
          << "block " << entry.id << " cached without a disk copy";
    }
  }
}

TEST(FaultRecovery, LostBlocksAreRecomputedFromLineage) {
  const Workload w = make_example_dag();
  SimConfig config = fault_test_cluster();
  // Crash two of the four executors just after the first stages finish
  // (~240s): some produced blocks lose their only copies and must be
  // recomputed from lineage before the join stage can run.
  config.faults.crashes = {{250 * kSec, 0}, {251 * kSec, 2}};
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_EQ(m.faults.executor_crashes, 2);
  EXPECT_GT(m.faults.disk_copies_lost, 0);
  EXPECT_GT(m.faults.blocks_fully_lost, 0);
  EXPECT_GT(m.faults.lineage_recomputes, 0);
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});

  // Recomputation costs time: the faulty run cannot beat the clean one.
  SimConfig clean = fault_test_cluster();
  EXPECT_GT(m.jct, run_workload(w, clean).metrics.jct);
}

TEST(FaultRecovery, JctMonotoneInFailureRate) {
  const Workload w = make_example_dag();
  double prev = 0.0;
  for (const double p : {0.0, 0.1, 0.3}) {
    double sum = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SimConfig config = fault_test_cluster();
      config.seed = seed;
      config.faults.task_fail_prob = p;
      sum += to_seconds(run_workload(w, config).metrics.jct);
    }
    const double mean = sum / 5.0;
    EXPECT_GE(mean, prev) << "mean JCT dropped at failure rate " << p;
    prev = mean;
  }
}

TEST(FaultRecovery, FaultyPresetRunsToCompletion) {
  // The paper topology cannot fit the example DAG's 6-vCPU stage, so
  // drive the preset with a suite workload instead.
  const Workload w = make_workload(WorkloadId::KMeans, WorkloadScale{0.5});
  const SimConfig config = faulty_testbed();
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_TRUE(m.faults.any());
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
}

}  // namespace
}  // namespace dagon
