// Gray-failure tolerance: phi-accrual failure detection, rack
// partitions, degraded executors, blacklisting, proactive
// re-replication — and the bit-identity guarantee that none of it costs
// anything when switched off.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/presets.hpp"
#include "core/runner.hpp"
#include "fault/failure_detector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/driver.hpp"
#include "workloads/example_dag.hpp"
#include "workloads/suite.hpp"

namespace dagon {
namespace {

// --- FailureDetector --------------------------------------------------------

TEST(FailureDetector, ClassifiesByAccruedPhi) {
  FailureDetector d(kSec, 1.0, 8.0);
  const ExecutorId e0(0);
  d.track(e0, SimTime{0});
  EXPECT_TRUE(d.tracking(e0));
  for (SimTime t = kSec; t <= 3 * kSec; t += kSec) d.record_heartbeat(e0, t);
  // phi = log10(e) * elapsed / mean ~= 0.434 * elapsed_intervals.
  EXPECT_EQ(d.classify(e0, 3 * kSec + kSec / 2), FailureDetector::State::Healthy);
  EXPECT_EQ(d.classify(e0, 3 * kSec + 3 * kSec),
            FailureDetector::State::Suspect);
  EXPECT_EQ(d.classify(e0, 3 * kSec + 19 * kSec),
            FailureDetector::State::Dead);
  // A heartbeat resets the accrual: healthy again instantly.
  d.record_heartbeat(e0, 25 * kSec);
  EXPECT_EQ(d.classify(e0, 25 * kSec + kSec), FailureDetector::State::Healthy);
}

TEST(FailureDetector, UntrackedAndStoppedExecutorsAreDead) {
  FailureDetector d(kSec, 1.0, 8.0);
  EXPECT_FALSE(d.tracking(ExecutorId(3)));
  EXPECT_EQ(d.classify(ExecutorId(3), kSec), FailureDetector::State::Dead);
  d.track(ExecutorId(3), SimTime{0});
  EXPECT_EQ(d.classify(ExecutorId(3), kSec), FailureDetector::State::Healthy);
  d.stop(ExecutorId(3));
  EXPECT_FALSE(d.tracking(ExecutorId(3)));
  EXPECT_EQ(d.classify(ExecutorId(3), kSec), FailureDetector::State::Dead);
}

TEST(FailureDetector, WindowAdaptsToObservedCadence) {
  FailureDetector d(kSec, 1.0, 8.0);
  const ExecutorId e0(0);
  d.track(e0, SimTime{0});
  EXPECT_EQ(d.mean_interval(e0), kSec);
  // A slow-but-steady 3s cadence drags the window mean up, so the same
  // wall-clock silence accrues less phi (degraded executors eventually
  // stop being suspected once their cadence is learned).
  SimTime t{};
  for (int i = 0; i < 16; ++i) d.record_heartbeat(e0, t += 3 * kSec);
  EXPECT_EQ(d.mean_interval(e0), 3 * kSec);
  EXPECT_EQ(d.classify(e0, t + 4 * kSec), FailureDetector::State::Healthy);

  // Duplicate timestamps (zero interval) are ignored, not averaged in.
  d.record_heartbeat(e0, t);
  EXPECT_EQ(d.mean_interval(e0), 3 * kSec);
}

// --- FaultPlan gray validation ----------------------------------------------

FaultConfig gray_faults() {
  FaultConfig f;
  f.heartbeats = true;
  return f;
}

TEST(FaultPlanGray, RejectsBadGrayKnobs) {
  auto plan = [](FaultConfig f) { return FaultPlan(f, 4, 2, 1); };
  FaultConfig f = gray_faults();
  f.partitions.push_back({10 * kSec, 5 * kSec, 0});  // heals before it starts
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.partitions.push_back({10 * kSec, 20 * kSec, 9});  // no such rack
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.partitions.push_back({10 * kSec, 20 * kSec, 0});
  EXPECT_THROW(FaultPlan(f, 4, 1, 1), ConfigError);  // single-rack cluster
  f = gray_faults();
  f.degrades.push_back({10 * kSec, 5 * kSec, 0, 2.0});  // ends before start
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.degrades.push_back({10 * kSec, 20 * kSec, 7, 2.0});  // no such executor
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.degrades.push_back({10 * kSec, 20 * kSec, 0, 0.5});  // speed-up, not slow
  EXPECT_THROW(plan(f), ConfigError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  f = gray_faults();
  f.degrades.push_back({10 * kSec, 20 * kSec, 0, nan});
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.heartbeat_interval = SimTime{0};
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.suspect_phi = 0.0;
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.suspect_phi = nan;
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.dead_phi = f.suspect_phi / 2;  // would declare dead before suspect
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.dead_phi = nan;
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.blacklist_threshold = -1;
  EXPECT_THROW(plan(f), ConfigError);
  f = gray_faults();
  f.blacklist_probation = SimTime{0};
  EXPECT_THROW(plan(f), ConfigError);
}

TEST(FaultPlanGray, PartitionAndDegradeQueries) {
  FaultConfig f = gray_faults();
  f.partitions.push_back({10 * kSec, 20 * kSec, 0});
  f.partitions.push_back({15 * kSec, 30 * kSec, 0});  // overlapping
  f.degrades.push_back({10 * kSec, 20 * kSec, 1, 2.0});
  f.degrades.push_back({15 * kSec, 25 * kSec, 1, 3.0});
  const FaultPlan plan(f, 4, 2, 1);
  EXPECT_TRUE(plan.monitors_heartbeats());

  EXPECT_EQ(plan.partitioned_until(RackId(0), 5 * kSec), SimTime{0});
  // Heal of the window(s) active *now*; a chained window extending the
  // outage is picked up on re-examination at the first heal (that is
  // why deferred reports re-check instead of trusting one timestamp).
  EXPECT_EQ(plan.partitioned_until(RackId(0), 12 * kSec), 20 * kSec);
  EXPECT_EQ(plan.partitioned_until(RackId(0), 17 * kSec), 30 * kSec);
  EXPECT_EQ(plan.partitioned_until(RackId(0), 25 * kSec), 30 * kSec);
  EXPECT_EQ(plan.partitioned_until(RackId(0), 30 * kSec), SimTime{0});  // healed
  EXPECT_EQ(plan.partitioned_until(RackId(1), 12 * kSec), SimTime{0});

  // Same rack never crosses a partition; distinct racks stall when
  // either side is isolated.
  EXPECT_EQ(plan.cross_partition_heal(RackId(0), RackId(0), 12 * kSec),
            SimTime{0});
  EXPECT_EQ(plan.cross_partition_heal(RackId(0), RackId(1), 12 * kSec),
            20 * kSec);
  EXPECT_EQ(plan.cross_partition_heal(RackId(1), RackId(0), 17 * kSec),
            30 * kSec);

  EXPECT_EQ(plan.degrade_factor(ExecutorId(0), 12 * kSec), 1.0);
  EXPECT_EQ(plan.degrade_factor(ExecutorId(1), 12 * kSec), 2.0);
  // Overlapping degrade windows compound.
  EXPECT_EQ(plan.degrade_factor(ExecutorId(1), 17 * kSec), 6.0);
  EXPECT_EQ(plan.degrade_factor(ExecutorId(1), 22 * kSec), 3.0);
  EXPECT_EQ(plan.degrade_factor(ExecutorId(1), 25 * kSec), 1.0);
}

TEST(FaultPlanGray, RandomTargetsResolveDeterministically) {
  FaultConfig f = gray_faults();
  f.partitions.push_back({10 * kSec, 20 * kSec, -1});
  f.degrades.push_back({10 * kSec, 20 * kSec, -1, 2.0});
  const FaultPlan a(f, 8, 2, 7);
  const FaultPlan b(f, 8, 2, 7);
  ASSERT_EQ(a.partitions().size(), 1u);
  ASSERT_EQ(a.degrades().size(), 1u);
  EXPECT_EQ(a.partitions()[0].rack, b.partitions()[0].rack);
  EXPECT_EQ(a.degrades()[0].exec, b.degrades()[0].exec);
  EXPECT_TRUE(a.partitions()[0].rack.valid());
  EXPECT_LT(a.partitions()[0].rack.value(), 2);
  EXPECT_TRUE(a.degrades()[0].exec.valid());
  EXPECT_LT(a.degrades()[0].exec.value(), 8);
}

// --- bit-identity regression -------------------------------------------------

/// Two racks of two single-executor nodes: executors {0,1} in rack 0,
/// {2,3} in rack 1.
SimConfig gray_test_cluster() {
  SimConfig config;
  config.topology.racks = 2;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 1;
  config.topology.cores_per_executor = Cpus{8};
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.hdfs.replication = 1;
  return config;
}

TEST(GrayBitIdentity, DormantGrayKnobsAreBitIdentical) {
  const Workload w = make_example_dag();
  const RunMetrics off = run_workload(w, gray_test_cluster()).metrics;

  // Gray thresholds tuned — but no heartbeats, no partition, no
  // degrade, and blacklisting with nothing to count: nothing may fire
  // and nothing may perturb the trace.
  SimConfig dormant = gray_test_cluster();
  dormant.faults.suspect_phi = 0.5;
  dormant.faults.dead_phi = 4.0;
  dormant.faults.blacklist_threshold = 3;
  const RunMetrics b = run_workload(w, dormant).metrics;
  EXPECT_EQ(metrics_fingerprint(off), metrics_fingerprint(b));
  EXPECT_FALSE(b.faults.any());
}

// Fingerprints of the standard presets at scale 0.3, pinned from the
// commit that introduced the gray-failure layer (verified identical to
// the pre-gray build). If one of these moves, a supposedly dormant code
// path changed observable behavior — that is a regression, not churn.
TEST(GrayBitIdentity, FaultsOffPresetFingerprintsArePinned) {
  struct Pin {
    const char* preset;
    SystemCombo combo;
    WorkloadId workload;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"testbed", stock_spark(), WorkloadId::KMeans, 0x775c8db45cb1eea9ull},
      {"testbed", graphene_mrd(), WorkloadId::LogisticRegression,
       0xca3462953330a22full},
      {"testbed", dagon_full(), WorkloadId::PageRank, 0xc0c5c10cae20654full},
      {"case", stock_spark(), WorkloadId::KMeans, 0x522c5cce30cc306aull},
      {"case", graphene_mrd(), WorkloadId::PageRank, 0x2eaa00db92fac5c9ull},
      {"case", dagon_full(), WorkloadId::LogisticRegression,
       0x044aea48bb8d844cull},
  };
  for (const Pin& pin : pins) {
    const SimConfig base = std::string(pin.preset) == "testbed"
                               ? paper_testbed()
                               : case_study_cluster();
    const Workload w = make_workload(pin.workload, WorkloadScale{0.3});
    const RunMetrics m = run_system(w, pin.combo, base).metrics;
    EXPECT_EQ(metrics_fingerprint(m), pin.fingerprint)
        << pin.preset << " / " << pin.combo.label << " / " << w.name;
  }
}

// --- suspicion lifecycle -----------------------------------------------------

TEST(GraySuspicion, SuspectedThenRecoveredExecutorIsReadmitted) {
  const Workload w = make_example_dag();
  SimConfig config = gray_test_cluster();
  // Rack 0 goes silent for 10 s: well past suspect_phi (~2.3 s), well
  // short of dead_phi (~18.4 s).
  const SimTime heal = 70 * kSec;
  config.faults.partitions.push_back({60 * kSec, heal, 0});
  const JobProfile profile = exact_profile(w.dag);
  SimDriver driver(w.dag, profile, config);
  const RunMetrics m = driver.run();

  EXPECT_GT(m.faults.suspicions, 0);
  EXPECT_EQ(m.faults.false_suspicions, m.faults.suspicions);
  EXPECT_EQ(m.faults.executors_declared_dead, 0);
  EXPECT_EQ(m.faults.executor_crashes, 0);
  EXPECT_GT(m.faults.heartbeats_dropped, 0);

  // False-positive handling: nobody died, accounting intact, and the
  // formerly-suspect rack-0 executors run tasks again after the heal.
  for (const ExecutorRuntime& e : driver.state().executors()) {
    EXPECT_TRUE(e.alive());
    EXPECT_FALSE(e.suspect());
  }
  bool readmitted = false;
  for (const TaskRecord& t : m.tasks) {
    if (t.exec.value() <= 1 && t.launch >= heal && !t.cancelled) {
      readmitted = true;
      break;
    }
  }
  EXPECT_TRUE(readmitted)
      << "no task launched on a recovered executor after the heal";
}

TEST(GraySuspicion, NeverResumingSuspectIsDeclaredDeadAndRecovered) {
  const Workload w = make_example_dag();
  SimConfig config = gray_test_cluster();
  // Rack 0 stays silent far past dead_phi (~18.4 s): its two executors
  // are declared dead at ~78 s and recovered exactly like crashes, long
  // before the nominal heal. (The heal stays inside the sim horizon
  // because cross-partition fetches stall until it.)
  config.faults.partitions.push_back({60 * kSec, 600 * kSec, 0});
  const JobProfile profile = exact_profile(w.dag);
  SimDriver driver(w.dag, profile, config);
  const RunMetrics m = driver.run();

  EXPECT_EQ(m.faults.executors_declared_dead, 2);
  EXPECT_EQ(m.faults.executor_crashes, 2);  // recovered via the crash path
  EXPECT_EQ(m.faults.false_suspicions, 0);
  EXPECT_FALSE(driver.state().executor(ExecutorId(0)).alive());
  EXPECT_FALSE(driver.state().executor(ExecutorId(1)).alive());
  // The job still finishes, on the surviving rack alone.
  EXPECT_GT(m.jct, SimTime{0});
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
  // No dead executor holds a memory copy.
  EXPECT_EQ(driver.master().manager(ExecutorId(0)).num_blocks(), 0u);
  EXPECT_EQ(driver.master().manager(ExecutorId(1)).num_blocks(), 0u);
}

TEST(GraySuspicion, PartitionDefersReportsAndStallsCrossRackFetches) {
  // KMeans has short, frequent tasks, so completions land inside the
  // 15 s window (the example dag's minute-long tasks would not).
  const Workload w = make_workload(WorkloadId::KMeans, WorkloadScale{0.3});
  SimConfig config = gray_test_cluster();
  config.faults.partitions.push_back({20 * kSec, 35 * kSec, 0});
  const RunMetrics m = run_workload(w, config).metrics;
  // Completions inside the window surface only at the heal; no report
  // may be observed while its executor is unreachable.
  EXPECT_GT(m.faults.deferred_reports, 0);
  EXPECT_GT(m.faults.heartbeats_dropped, 0);
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
}

TEST(GraySuspicion, ProactiveRereplicationProtectsSoleCopies) {
  const Workload w = make_workload(WorkloadId::KMeans, WorkloadScale{0.3});
  SimConfig config = gray_test_cluster();
  // By 30 s KMeans has produced cached intermediates on rack 0;
  // suspecting its executors must give the sole copies a healthy home.
  config.faults.partitions.push_back({30 * kSec, 45 * kSec, 0});
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.faults.proactive_rereplications, 0);
  EXPECT_GT(m.faults.rereplicated_bytes, Bytes{0});
}

// --- degraded executors ------------------------------------------------------

TEST(GrayDegrade, DegradedAttemptsAreSpeculatedAsStragglers) {
  const Workload w = make_example_dag();
  SimConfig config = gray_test_cluster();
  config.speculation.enabled = true;
  config.faults.degrades.push_back({30 * kSec, 100000 * kSec, 0, 8.0});
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.faults.degraded_launches, 0);
  const bool speculated =
      std::any_of(m.tasks.begin(), m.tasks.end(),
                  [](const TaskRecord& t) { return t.speculative; });
  EXPECT_TRUE(speculated)
      << "8x-degraded attempts never drew a speculative twin";
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
}

TEST(GrayDegrade, DegradeSlowsExactlyTheTargetExecutor) {
  const Workload w = make_example_dag();
  SimConfig slow = gray_test_cluster();
  slow.faults.degrades.push_back({SimTime{0}, 100000 * kSec, 0, 4.0});
  const RunMetrics m = run_workload(w, slow).metrics;
  // Same-stage attempts share the base compute (noise is off here), so
  // wherever executor 0 did run, its attempts must take ~4x the compute
  // of same-stage twins elsewhere. (The permanently-slow executor is
  // suspected early, so it may only see the first launch wave.)
  struct Sums {
    double on = 0.0, off = 0.0;
    std::int64_t n_on = 0, n_off = 0;
  };
  std::vector<Sums> per_stage(w.dag.num_stages());
  for (const TaskRecord& t : m.tasks) {
    if (t.cancelled || t.failed) continue;
    Sums& s = per_stage[static_cast<std::size_t>(t.stage.value())];
    if (t.exec == ExecutorId(0)) {
      s.on += static_cast<double>(t.compute_time.count());
      ++s.n_on;
    } else {
      s.off += static_cast<double>(t.compute_time.count());
      ++s.n_off;
    }
  }
  std::int64_t comparable = 0;
  for (const Sums& s : per_stage) {
    if (s.n_on == 0 || s.n_off == 0) continue;
    ++comparable;
    EXPECT_GT(s.on / static_cast<double>(s.n_on),
              3.0 * s.off / static_cast<double>(s.n_off));
  }
  EXPECT_GT(comparable, 0) << "executor 0 never ran a comparable stage";
}

// --- blacklisting ------------------------------------------------------------

TEST(GrayBlacklist, SchedulableGatesOnLivenessSuspicionAndProbation) {
  const Workload w = make_example_dag();
  const JobProfile profile = exact_profile(w.dag);
  const Topology topo(gray_test_cluster().topology);
  JobState state(w.dag, topo, profile);
  const ExecutorId id(0);
  ExecutorRuntime& e = state.executor(id);
  EXPECT_TRUE(e.schedulable(10 * kSec));
  state.set_health(id, ExecutorHealth::Suspect);
  EXPECT_FALSE(e.schedulable(10 * kSec));
  state.set_health(id, ExecutorHealth::Healthy);
  e.blacklisted_until = 20 * kSec;
  EXPECT_FALSE(e.schedulable(10 * kSec));
  EXPECT_TRUE(e.schedulable(20 * kSec));  // probation over
  e.blacklisted_until = SimTime{0};
  state.set_health(id, ExecutorHealth::Dead);
  EXPECT_FALSE(e.schedulable(10 * kSec));
}

TEST(GrayBlacklist, RepeatOffendersEnterAndLeaveProbation) {
  const Workload w = make_example_dag();
  SimConfig config = gray_test_cluster();
  config.faults.task_fail_prob = 0.15;
  config.faults.blacklist_threshold = 2;
  config.faults.blacklist_probation = 30 * kSec;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.faults.blacklist_entries, 0);
  EXPECT_GT(m.faults.blacklist_exits, 0);
  EXPECT_LE(m.faults.blacklist_exits, m.faults.blacklist_entries);
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});

  // Per-executor counters reconcile with the globals.
  std::int64_t entries = 0, exits = 0;
  for (const auto& pe : m.faults.per_executor) {
    entries += pe.blacklist_entries;
    exits += pe.blacklist_exits;
  }
  EXPECT_EQ(entries, m.faults.blacklist_entries);
  EXPECT_EQ(exits, m.faults.blacklist_exits);
}

// --- chained faults ----------------------------------------------------------

TEST(GrayChained, CrashDuringPartitionDrainsToQuiescence) {
  const Workload w = make_example_dag();
  SimConfig config = gray_test_cluster();
  // 15 s outage: suspicion fires, death (18.4 s) does not.
  config.faults.partitions.push_back({60 * kSec, 75 * kSec, 0});
  // A healthy rack-1 executor dies while rack 0 is unreachable: the
  // cluster is briefly down to one reachable executor.
  config.faults.crashes.push_back({65 * kSec, 2});
  const JobProfile profile = exact_profile(w.dag);
  SimDriver driver(w.dag, profile, config);
  const RunMetrics m = driver.run();
  EXPECT_EQ(m.faults.executor_crashes, 1);
  EXPECT_GT(m.faults.suspicions, 0);
  EXPECT_EQ(m.faults.executors_declared_dead, 0);
  EXPECT_FALSE(driver.state().executor(ExecutorId(2)).alive());
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
}

TEST(GrayChained, BlockLossOnBlacklistedExecutorRecovers) {
  const Workload w = make_example_dag();
  SimConfig config = gray_test_cluster();
  config.faults.heartbeats = true;
  config.faults.task_fail_prob = 0.15;
  config.faults.blacklist_threshold = 2;
  config.faults.blacklist_probation = 30 * kSec;
  config.faults.block_loss_per_gb_hour = 2e5;
  config.faults.block_loss_interval = kSec;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.faults.blacklist_entries, 0);
  EXPECT_GT(m.faults.memory_blocks_lost, 0);
  EXPECT_EQ(m.faults.blocks_fully_lost, 0);  // disk copies survive
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
}

// --- determinism -------------------------------------------------------------

TEST(GrayDeterminism, KitchenSinkRunsAreBitIdentical) {
  const Workload w = make_example_dag();
  SimConfig config = gray_test_cluster();
  config.duration_noise = 0.1;
  config.speculation.enabled = true;
  config.faults.partitions.push_back({60 * kSec, 75 * kSec, -1});
  config.faults.degrades.push_back({30 * kSec, 200 * kSec, -1, 3.0});
  config.faults.crashes.push_back({90 * kSec, -1});
  config.faults.task_fail_prob = 0.05;
  config.faults.blacklist_threshold = 3;
  const RunMetrics a = run_workload(w, config).metrics;
  const RunMetrics b = run_workload(w, config).metrics;
  EXPECT_EQ(metrics_fingerprint(a), metrics_fingerprint(b));
  EXPECT_TRUE(a.faults.any());
}

TEST(GrayDeterminism, GraySpecsDoNotPerturbCrashResolution) {
  // Appending gray specs must not consume crash-resolution RNG draws:
  // the planned crash resolves to the same executor either way.
  FaultConfig crash_only;
  crash_only.crashes.push_back({30 * kSec, -1});
  const FaultPlan a(crash_only, 8, 2, 11);

  FaultConfig with_gray = crash_only;
  with_gray.partitions.push_back({10 * kSec, 20 * kSec, -1});
  with_gray.degrades.push_back({10 * kSec, 20 * kSec, -1, 2.0});
  const FaultPlan b(with_gray, 8, 2, 11);
  ASSERT_EQ(a.crashes().size(), 1u);
  ASSERT_EQ(b.crashes().size(), 1u);
  EXPECT_EQ(a.crashes()[0].exec, b.crashes()[0].exec);
}

TEST(GrayDeterminism, GrayboxPresetCompletesOnSuiteWorkloads) {
  for (const WorkloadId id :
       {WorkloadId::KMeans, WorkloadId::PageRank}) {
    const Workload w = make_workload(id, WorkloadScale{0.3});
    const RunMetrics m = run_system(w, dagon_full(), graybox_testbed()).metrics;
    EXPECT_GT(m.jct, SimTime{0});
    EXPECT_TRUE(m.faults.any()) << w.name;
    for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
  }
}

}  // namespace
}  // namespace dagon
