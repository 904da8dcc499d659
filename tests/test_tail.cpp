// Tail-tolerance subsystem: heavy-tail duration injection, executor
// speed tiers, hedged speculation with cancellation-on-first-finish,
// and critical-path escalation — plus the bit-identity guarantee that
// all of it costs nothing when switched off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/presets.hpp"
#include "core/runner.hpp"
#include "fault/fault_plan.hpp"
#include "sim/driver.hpp"
#include "workloads/example_dag.hpp"
#include "workloads/suite.hpp"

namespace dagon {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- validation --------------------------------------------------------------

TEST(TailValidation, FaultPlanRejectsBadHeavyTailKnobs) {
  auto plan = [](FaultConfig f) { return FaultPlan(f, 4, 2, 1); };
  FaultConfig f;
  f.heavy_tail_prob = -0.1;
  EXPECT_THROW(plan(f), ConfigError);
  f.heavy_tail_prob = 1.5;
  EXPECT_THROW(plan(f), ConfigError);
  f.heavy_tail_prob = kNaN;
  EXPECT_THROW(plan(f), ConfigError);
  f.heavy_tail_prob = 0.1;
  f.heavy_tail_mult = 0.5;  // would shrink durations, not stretch them
  EXPECT_THROW(plan(f), ConfigError);
  f.heavy_tail_mult = kNaN;
  EXPECT_THROW(plan(f), ConfigError);
  f.heavy_tail_mult = std::numeric_limits<double>::infinity();
  EXPECT_THROW(plan(f), ConfigError);  // would overflow the attempt's time
  f.heavy_tail_mult = 6.0;
  EXPECT_NO_THROW(plan(f));
}

TEST(TailValidation, DriverRejectsBadTierAndEscalationKnobs) {
  const Workload w = make_example_dag();
  const JobProfile profile = exact_profile(w.dag);
  auto driver_with = [&](SimConfig config) {
    SimDriver driver(w.dag, profile, config);
  };
  SimConfig base = paper_testbed();
  base.topology.cores_per_executor = Cpus{8};  // fits the example dag's 6-vCPU stage

  SimConfig config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"bad", -0.1, 2.0});
  EXPECT_THROW(driver_with(config), ConfigError);

  config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"bad", 1.5, 2.0});
  EXPECT_THROW(driver_with(config), ConfigError);

  config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"bad", 0.25, 0.0});
  EXPECT_THROW(driver_with(config), ConfigError);

  config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"bad", kNaN, 2.0});
  EXPECT_THROW(driver_with(config), ConfigError);

  config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"bad", 0.25, kNaN});
  EXPECT_THROW(driver_with(config), ConfigError);

  config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"a", 0.6, 2.0});
  config.tail.tiers.push_back(SimConfig::ExecTier{"b", 0.6, 0.5});
  EXPECT_THROW(driver_with(config), ConfigError);  // fractions sum > 1

  config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.25, 2.0});
  config.tail.escalate = true;
  config.tail.escalation_wait = SimTime{0};
  EXPECT_THROW(driver_with(config), ConfigError);

  config = base;
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.25, 2.0});
  config.tail.tiers.push_back(SimConfig::ExecTier{"fast", 0.25, 0.5});
  config.tail.escalate = true;
  EXPECT_NO_THROW(driver_with(config));
}

// --- tier assignment ---------------------------------------------------------

/// Two racks of two single-executor nodes (executors {0,1} in rack 0,
/// {2,3} in rack 1), 8 cores each — the gray-failure micro cluster.
SimConfig quad_cluster() {
  SimConfig config;
  config.topology.racks = 2;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 1;
  config.topology.cores_per_executor = Cpus{8};
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.hdfs.replication = 1;
  return config;
}

TEST(TierAssignment, CountsMatchFractionsAndResolveDeterministically) {
  const Workload w = make_example_dag();
  SimConfig config = quad_cluster();
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.5, 2.0});
  config.tail.tiers.push_back(SimConfig::ExecTier{"fast", 0.25, 0.5});
  const JobProfile profile = exact_profile(w.dag);

  SimDriver a(w.dag, profile, config);
  std::int32_t slow = 0, fast = 0, normal = 0;
  for (const ExecutorRuntime& e : a.state().executors()) {
    if (e.speed_tier == 0) {
      ++slow;
      EXPECT_EQ(e.speed_mult, 2.0);
    } else if (e.speed_tier == 1) {
      ++fast;
      EXPECT_EQ(e.speed_mult, 0.5);
    } else {
      ++normal;
      EXPECT_EQ(e.speed_tier, -1);
      EXPECT_EQ(e.speed_mult, 1.0);
    }
  }
  // round(0.5 * 4) = 2 slow, round(0.25 * 4) = 1 fast, 1 untouched.
  EXPECT_EQ(slow, 2);
  EXPECT_EQ(fast, 1);
  EXPECT_EQ(normal, 1);

  // Same seed => same membership; the tier stream is independent of the
  // fault plan, so adding faults must not reshuffle the tiers.
  SimConfig with_faults = config;
  with_faults.faults.crashes.push_back(ExecutorCrashSpec{3600 * kSec, 0});
  SimDriver b(w.dag, profile, with_faults);
  for (std::size_t i = 0; i < a.state().executors().size(); ++i) {
    EXPECT_EQ(a.state().executors()[i].speed_tier,
              b.state().executors()[i].speed_tier);
  }
}

TEST(TierAssignment, SlowTierStretchesComputeProportionally) {
  // Noise off: same-stage attempts share the base compute, so per-stage
  // mean compute on a 2x executor must be ~2x the mean elsewhere (same
  // shape as the gray-degrade regression, but driven by tiers).
  const Workload w = make_example_dag();
  SimConfig config = quad_cluster();
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.25, 2.0});
  const JobProfile profile = exact_profile(w.dag);
  SimDriver driver(w.dag, profile, config);
  std::int32_t slow_exec = -1;
  for (const ExecutorRuntime& e : driver.state().executors()) {
    if (e.speed_tier == 0) slow_exec = e.id.value();
  }
  ASSERT_GE(slow_exec, 0);
  const RunMetrics m = driver.run();

  struct Sums {
    double on = 0.0, off = 0.0;
    std::int64_t n_on = 0, n_off = 0;
  };
  std::vector<Sums> per_stage(w.dag.num_stages());
  for (const TaskRecord& t : m.tasks) {
    if (t.cancelled || t.failed) continue;
    Sums& s = per_stage[static_cast<std::size_t>(t.stage.value())];
    if (t.exec.value() == slow_exec) {
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
    const double on = s.on / static_cast<double>(s.n_on);
    const double off = s.off / static_cast<double>(s.n_off);
    EXPECT_GT(on, 1.9 * off);
    EXPECT_LT(on, 2.1 * off);
  }
  EXPECT_GT(comparable, 0) << "slow executor never ran a comparable stage";
}

// --- dormancy ----------------------------------------------------------------

TEST(TailDormancy, DormantTailKnobsAreBitIdentical) {
  const Workload w = make_example_dag();
  const RunMetrics off = run_workload(w, quad_cluster()).metrics;

  // Every tail knob armed but inert: a heavy-tail multiplier with a zero
  // probability, hedge mode set without speculation, escalation set
  // without tiers. Nothing may fire and nothing may perturb the trace.
  SimConfig dormant = quad_cluster();
  dormant.faults.heavy_tail_prob = 0.0;
  dormant.faults.heavy_tail_mult = 6.0;
  dormant.speculation.enabled = false;
  dormant.speculation.hedge = true;
  dormant.tail.escalate = true;  // no tiers => tail.enabled() is false
  const RunMetrics b = run_workload(w, dormant).metrics;
  EXPECT_EQ(metrics_fingerprint(off), metrics_fingerprint(b));
  EXPECT_FALSE(b.faults.any());
  EXPECT_FALSE(b.hedge.any());
}

// --- heavy-tail injection ----------------------------------------------------

TEST(HeavyTail, InjectionsStretchJctDeterministically) {
  const Workload w = make_workload(WorkloadId::KMeans, WorkloadScale{0.3});
  const RunMetrics base = run_workload(w, quad_cluster()).metrics;

  SimConfig config = quad_cluster();
  config.faults.heavy_tail_prob = 0.3;
  config.faults.heavy_tail_mult = 4.0;
  const RunMetrics tail = run_workload(w, config).metrics;

  EXPECT_GT(tail.faults.heavy_tail_injections, 0);
  EXPECT_LE(tail.faults.heavy_tail_injections,
            static_cast<std::int64_t>(tail.tasks.size()));
  // Stretching a third of all attempts 4x must cost wall-clock time.
  EXPECT_GT(tail.jct, base.jct);

  const RunMetrics again = run_workload(w, config).metrics;
  EXPECT_EQ(metrics_fingerprint(tail), metrics_fingerprint(again));
}

// --- hedged speculation micro-schedules --------------------------------------

/// One rack, two single-core executors. With zero-byte inputs every
/// fetch costs exactly 0, so task timings are exact multiples of the
/// declared durations — good enough to hand-compute whole schedules.
SimConfig two_exec_cluster() {
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 1;
  config.topology.cores_per_executor = Cpus{1};
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.hdfs.replication = 2;
  return config;
}

/// Two independent 1-second tasks over a zero-byte input.
Workload two_task_stage() {
  JobDagBuilder b("tail-micro");
  const RddId in = b.input_rdd("in", 2, Bytes{0});
  b.add_stage({.name = "S",
               .inputs = {{in, DepKind::Narrow}},
               .num_tasks = 2,
               .task_cpus = Cpus{1},
               .task_duration = kSec,
               .output_bytes_per_partition = Bytes{0},
               .output_name = "out"});
  return Workload{"tail-micro", WorkloadCategory::Mixed, b.build()};
}

/// Hedge-mode speculation that fires as soon as half the stage is done
/// and the straggler exceeds 1x the finished median.
SpeculationConfig eager_hedge() {
  SpeculationConfig s;
  s.enabled = true;
  s.hedge = true;
  s.quantile = 0.5;
  s.multiplier = 1.0;
  return s;
}

TEST(Hedge, SameTickFinishTieGoesToTheOriginal) {
  // One executor 2.1x slow: both tasks launch at t=0, the fast copy
  // finishes at 1.0s, and at the 1.1s tick the straggler (elapsed 1.1s >
  // 1.0s median) draws a hedge on the *other* executor (its own hosts a
  // live sibling). Hedge and original both finish at exactly t=2.1s —
  // the original's terminal event carries the lower sequence number, so
  // it wins the tie and the hedge is cancelled in the same tick.
  SimConfig config = two_exec_cluster();
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.5, 2.1});
  config.speculation = eager_hedge();
  const Workload w = two_task_stage();
  const RunMetrics m = run_workload(w, config).metrics;

  EXPECT_EQ(m.jct, 2100 * kMsec);
  EXPECT_EQ(m.hedge.hedges_launched, 1);
  EXPECT_EQ(m.hedge.hedges_won, 0);
  EXPECT_EQ(m.hedge.hedges_cancelled, 1);
  // The cancelled hedge held one core from 1.1s to 2.1s.
  EXPECT_EQ(m.hedge.wasted_core_us.count(), kSec.count());
  EXPECT_EQ(m.hedge.escalations, 0);
  EXPECT_FALSE(m.fsm.any());
  EXPECT_FALSE(m.faults.any());

  ASSERT_EQ(m.tasks.size(), 3u);  // two originals + one hedge
  const TaskRecord* hedge = nullptr;
  const TaskRecord* straggler = nullptr;
  for (const TaskRecord& t : m.tasks) {
    if (t.speculative) {
      hedge = &t;
    } else if (t.finish == 2100 * kMsec) {
      straggler = &t;
    }
  }
  ASSERT_NE(hedge, nullptr);
  ASSERT_NE(straggler, nullptr);
  // Cancellation-on-first-finish hit exactly the losing hedge, and the
  // hedge never shared the straggler's executor.
  EXPECT_TRUE(hedge->cancelled);
  EXPECT_FALSE(straggler->cancelled);
  EXPECT_NE(hedge->exec, straggler->exec);
  EXPECT_EQ(hedge->launch, 1100 * kMsec);
  EXPECT_EQ(hedge->finish, 2100 * kMsec);

  const RunMetrics again = run_workload(w, config).metrics;
  EXPECT_EQ(metrics_fingerprint(m), metrics_fingerprint(again));
}

TEST(Hedge, WinningHedgeCancelsTheOriginal) {
  // 3x straggler: the hedge launched at 1.1s on the fast executor
  // finishes at 2.1s, strictly before the original's 3.0s — the hedge
  // wins and the original is cancelled after 2.1s of wasted work.
  SimConfig config = two_exec_cluster();
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.5, 3.0});
  config.speculation = eager_hedge();
  const RunMetrics m = run_workload(two_task_stage(), config).metrics;

  EXPECT_EQ(m.jct, 2100 * kMsec);
  EXPECT_EQ(m.hedge.hedges_launched, 1);
  EXPECT_EQ(m.hedge.hedges_won, 1);
  EXPECT_EQ(m.hedge.hedges_cancelled, 1);  // the out-raced original
  EXPECT_EQ(m.hedge.wasted_core_us.count(), (2100 * kMsec).count());
  EXPECT_FALSE(m.fsm.any());
  const TaskRecord* original = nullptr;
  for (const TaskRecord& t : m.tasks) {
    if (t.cancelled) original = &t;
  }
  ASSERT_NE(original, nullptr);
  EXPECT_FALSE(original->speculative);
  EXPECT_EQ(original->launch, SimTime{0});
  EXPECT_EQ(original->finish, 2100 * kMsec);
}

TEST(Hedge, HedgeExecutorCrashLeavesTheOriginalToFinish) {
  // Same 3x-straggler schedule, but the executor hosting the hedge
  // crashes at 1.5s — mid-hedge, before its 2.1s win. The hedge dies
  // through the crash path (Failed, not Cancelled), no retry is owed
  // because the original is still live, and the original finishes the
  // stage at 3.0s.
  SimConfig config = two_exec_cluster();
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.5, 3.0});
  config.speculation = eager_hedge();

  // Tier membership is seed-deterministic: probe which executor is the
  // fast one (the hedge always lands there) with a throwaway driver.
  const Workload w = two_task_stage();
  const JobProfile profile = exact_profile(w.dag);
  std::int32_t fast_exec = -1;
  {
    SimDriver probe(w.dag, profile, config);
    for (const ExecutorRuntime& e : probe.state().executors()) {
      if (e.speed_tier == -1) fast_exec = e.id.value();
    }
  }
  ASSERT_GE(fast_exec, 0);

  config.faults.crashes.push_back(ExecutorCrashSpec{1500 * kMsec, fast_exec});
  SimDriver driver(w.dag, profile, config);
  const RunMetrics m = driver.run();

  EXPECT_EQ(m.jct, 3 * kSec);
  EXPECT_EQ(m.hedge.hedges_launched, 1);
  EXPECT_EQ(m.hedge.hedges_won, 0);
  EXPECT_EQ(m.hedge.hedges_cancelled, 0);  // crash != cancellation
  EXPECT_EQ(m.hedge.wasted_core_us.count(), 0);
  EXPECT_EQ(m.faults.executor_crashes, 1);
  EXPECT_EQ(m.faults.crash_failures, 1);
  EXPECT_EQ(m.faults.retries, 0) << "live original owes no retry";
  EXPECT_FALSE(m.fsm.any());
  std::int64_t failed = 0, cancelled = 0;
  for (const TaskRecord& t : m.tasks) {
    failed += t.failed ? 1 : 0;
    cancelled += t.cancelled ? 1 : 0;
    if (t.failed) {
      EXPECT_TRUE(t.speculative);
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(cancelled, 0);
}

// --- hedging under lineage recovery ------------------------------------------

TEST(Hedge, SurvivesLineageRecoveryReopeningHedgedStages) {
  // Kitchen sink: heavy tails breed hedges, a mid-run crash plus random
  // cached-block loss force lineage recomputes that re-open finished
  // stages — including ones speculation already raced. The run must
  // quiesce with clean FSM accounting and stay bit-identical.
  const Workload w = make_workload(WorkloadId::KMeans, WorkloadScale{0.3});
  SimConfig config = quad_cluster();
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.25, 2.0});
  config.tail.tiers.push_back(SimConfig::ExecTier{"fast", 0.25, 0.5});
  config.tail.escalate = true;
  config.tail.escalation_wait = kSec;
  config.speculation = eager_hedge();
  config.speculation.multiplier = 1.2;
  config.faults.heavy_tail_prob = 0.15;
  config.faults.heavy_tail_mult = 6.0;
  config.faults.crashes.push_back(ExecutorCrashSpec{30 * kSec, -1});
  config.faults.block_loss_per_gb_hour = 50.0;
  config.faults.block_loss_interval = 5 * kSec;
  const RunMetrics m = run_workload(w, config).metrics;

  EXPECT_GT(m.faults.heavy_tail_injections, 0);
  EXPECT_EQ(m.faults.executor_crashes, 1);
  EXPECT_GT(m.faults.lineage_recomputes, 0);
  EXPECT_GT(m.hedge.hedges_launched, 0);
  EXPECT_FALSE(m.fsm.any());
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
  // Hedge accounting stays coherent under the chaos: every cancelled
  // record is a HedgeStats cancellation and vice versa.
  std::int64_t cancelled = 0;
  for (const TaskRecord& t : m.tasks) cancelled += t.cancelled ? 1 : 0;
  EXPECT_EQ(cancelled, m.hedge.hedges_cancelled);
  EXPECT_GE(m.hedge.hedges_won + m.hedge.hedges_cancelled,
            m.hedge.hedges_launched)
      << "a hedge neither won, lost, nor died by crash";

  const RunMetrics again = run_workload(w, config).metrics;
  EXPECT_EQ(metrics_fingerprint(m), metrics_fingerprint(again));
}

// --- critical-path escalation ------------------------------------------------

TEST(Escalation, FiresOntoTheFastTierUnderCongestion) {
  // The tail preset's 18-node cluster at full PageRank scale keeps the
  // critical path queued well past a 0.5s patience, so escalation must
  // actually fire (and the run still quiesces cleanly).
  const Workload w = make_workload(WorkloadId::PageRank, WorkloadScale{1.0});
  SimConfig config = tail_testbed();
  config.tail.escalation_wait = 500 * kMsec;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_GT(m.hedge.escalations, 0);
  EXPECT_FALSE(m.fsm.any());
  for (const StageRecord& s : m.stages) EXPECT_GE(s.finish_time, SimTime{0});
}

TEST(Escalation, StaysQuietWithoutCongestion) {
  // A near-empty cluster never leaves critical-path work pending past
  // the patience window: tiers alone must not trigger escalations.
  const Workload w = make_example_dag();
  SimConfig config = quad_cluster();
  config.tail.tiers.push_back(SimConfig::ExecTier{"fast", 0.25, 0.5});
  config.tail.escalate = true;
  config.tail.escalation_wait = 3600 * kSec;
  const RunMetrics m = run_workload(w, config).metrics;
  EXPECT_EQ(m.hedge.escalations, 0);
}

}  // namespace
}  // namespace dagon
