// Pinned fingerprints for runs that exercise the fault, gray-failure,
// tail and serving layers. The 34 pins in test_determinism.cpp and
// test_gray.cpp cover fault-free runs and the tail preset only; these
// rows add a crash with lineage recomputes, suspicions with deferred
// reports, blacklisting, hedging with escalation, and multi-job streams.
//
// Each row reproduces one dagonsim command line (noted beside it) and
// asserts that the layer it pins actually fired, so a row cannot go
// quietly dormant. If a pin moves, a layer's observable behaviour
// changed: re-derive with `dagonsim ... --fingerprint` and explain why
// in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dagon.hpp"

namespace dagon {
namespace {

constexpr WorkloadScale kScale{0.3};

// dagonsim --workload PageRank --scale 0.3 --fault-crash 20:3
//   --fault-task-fail 0.05 --fault-block-loss 50 --fault-partition 10:60
//   --fault-degrade 5:60:3.0 --blacklist-threshold 2
//   --exec-tiers slow:0.25:2.0,fast:0.25:0.5 --heavy-tail-prob 0.1
//   --hedge --escalate
//
// tail_testbed() already carries those tiers, hedging and escalation; the
// rest replaces its fault knobs with the flags' values.
SimConfig every_layer_config() {
  SimConfig config = tail_testbed();
  config.faults.crashes = {{20 * kSec, 3}};
  config.faults.task_fail_prob = 0.05;
  config.faults.block_loss_per_gb_hour = 50.0;
  config.faults.partitions = {{10 * kSec, 60 * kSec, -1}};
  config.faults.degrades = {{5 * kSec, 60 * kSec, -1, 3.0}};
  config.faults.blacklist_threshold = 2;
  config.faults.heavy_tail_prob = 0.1;
  config.faults.heavy_tail_mult = FaultConfig{}.heavy_tail_mult;
  return config;
}

// dagonsim --preset graybox --cache lerc --serve-jobs 4
//   --workload LogisticRegression --scale 0.3 [--fair-share]
RunMetrics run_graybox_stream(bool fair_share) {
  std::vector<Workload> jobs;
  for (int i = 0; i < 4; ++i) {
    Workload w = make_workload(WorkloadId::LogisticRegression, kScale);
    w.name += "#" + std::to_string(i);
    jobs.push_back(std::move(w));
  }
  SimConfig config = graybox_testbed();
  config.cache = CachePolicyKind::Lerc;
  config.scheduler = SchedulerKind::Dagon;
  config.delay = DelayKind::SensitivityAware;
  ArrivalSpec arrivals;
  arrivals.seed = config.seed;
  ServingOptions options;
  options.fair_share = fair_share;
  ServingWorkload sw = make_serving(jobs, arrivals, options);
  config.serving = sw.serving;
  return run_workload(sw.batch.combined, config).metrics;
}

TEST(LayerPins, FaultyPresetCrashAndLineageArePinned) {
  // dagonsim --preset faulty --workload PageRank --scale 0.3
  const Workload w = make_workload(WorkloadId::PageRank, kScale);
  const RunMetrics m = run_system(w, dagon_full(), faulty_testbed()).metrics;
  EXPECT_EQ(metrics_fingerprint(m), 0x2496ba4d786037c7ull);
  EXPECT_EQ(m.faults.executor_crashes, 1);
  EXPECT_GT(m.faults.lineage_recomputes, 0);
  EXPECT_FALSE(m.fsm.any());
}

TEST(LayerPins, GrayboxPresetSuspicionsArePinned) {
  // dagonsim --preset graybox --workload LogisticRegression --scale 0.3
  const Workload w = make_workload(WorkloadId::LogisticRegression, kScale);
  const RunMetrics m =
      run_system(w, dagon_full(), graybox_testbed()).metrics;
  EXPECT_EQ(metrics_fingerprint(m), 0xc8de3ef453921e33ull);
  EXPECT_GT(m.faults.suspicions, 0);
  EXPECT_GT(m.faults.deferred_reports, 0);
  EXPECT_FALSE(m.fsm.any());
}

TEST(LayerPins, EveryLayerAtOnceIsPinned) {
  const Workload w = make_workload(WorkloadId::PageRank, kScale);
  const RunMetrics m =
      run_system(w, dagon_full(), every_layer_config()).metrics;
  EXPECT_EQ(metrics_fingerprint(m), 0xbac2ba194ac167ecull);
  EXPECT_GT(m.faults.executor_crashes, 0);
  EXPECT_GT(m.faults.executors_declared_dead, 0);
  EXPECT_GT(m.faults.blacklist_entries, 0);
  EXPECT_GT(m.faults.heavy_tail_injections, 0);
  EXPECT_GT(m.hedge.hedges_launched, 0);
  EXPECT_GT(m.hedge.escalations, 0);
  EXPECT_FALSE(m.fsm.any());
}

TEST(LayerPins, GrayboxServingStreamsArePinned) {
  const struct {
    bool fair_share;
    std::uint64_t fingerprint;
  } pins[] = {{false, 0xcd2ef12f16fdca85ull}, {true, 0x560df67b84d5efe6ull}};
  for (const auto& pin : pins) {
    const RunMetrics m = run_graybox_stream(pin.fair_share);
    EXPECT_EQ(metrics_fingerprint(m), pin.fingerprint)
        << "fair_share=" << pin.fair_share;
    EXPECT_EQ(m.jobs.size(), 4u);
    EXPECT_GT(m.faults.suspicions, 0);
    EXPECT_GT(m.faults.deferred_reports, 0);
    EXPECT_FALSE(m.fsm.any());
  }
}

}  // namespace
}  // namespace dagon
