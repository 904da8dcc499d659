// Tests for online multi-job serving: arrival generation, shared-input
// merging, stage gating, inter-job fair share, per-job metrics, and
// serving determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/dagon.hpp"

namespace dagon {
namespace {

Workload paired_job(const std::string& name) {
  JobDagBuilder b(name);
  const RddId ds = b.input_rdd("ds", 4, 4 * kMiB);
  b.set_rdd_cacheable(ds, false);
  const StageId load = b.add_stage({.name = "load",
                                    .inputs = {{ds, DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = kMiB,
                                    .output_name = "a"});
  const StageId feat = b.add_stage({.name = "feat",
                                    .inputs = {{ds, DepKind::Narrow}},
                                    .num_tasks = 4,
                                    .task_cpus = Cpus{1},
                                    .task_duration = kSec,
                                    .output_bytes_per_partition = kMiB,
                                    .output_name = "b"});
  b.add_stage({.name = "join",
               .inputs = {{b.output_of(load), DepKind::Narrow},
                          {b.output_of(feat), DepKind::Narrow}},
               .num_tasks = 4,
               .task_cpus = Cpus{1},
               .task_duration = kSec,
               .output_bytes_per_partition = Bytes{0},
               .cache_output = false});
  return Workload{name, WorkloadCategory::Mixed, b.build()};
}

SimConfig serve_cluster() {
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{2};
  return config;
}

// --- arrival generation ---------------------------------------------------

TEST(Arrivals, PoissonIsDeterministicAndOrdered) {
  ArrivalSpec spec;
  spec.rate_per_sec = 1.0;
  spec.seed = 7;
  const auto a = generate_arrivals(spec, 16);
  const auto b = generate_arrivals(spec, 16);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a.front(), SimTime{0});  // the stream starts with work
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.back(), SimTime{0});
  // A different seed draws a different pattern.
  spec.seed = 8;
  EXPECT_NE(generate_arrivals(spec, 16), a);
}

TEST(Arrivals, TraceGapsCycle) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  spec.trace_gaps_sec = {1.0, 2.0};
  const auto at = generate_arrivals(spec, 5);
  const std::vector<SimTime> expected = {SimTime{0}, kSec, 3 * kSec,
                                         4 * kSec, 6 * kSec};
  EXPECT_EQ(at, expected);
}

TEST(Arrivals, TraceNeedsGaps) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  EXPECT_THROW(generate_arrivals(spec, 2), ConfigError);
}

TEST(Arrivals, InvalidSpecsAreConfigErrors) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ArrivalSpec poisson;
  poisson.rate_per_sec = 0.0;
  EXPECT_THROW(generate_arrivals(poisson, 2), ConfigError);
  poisson.rate_per_sec = nan;
  EXPECT_THROW(generate_arrivals(poisson, 2), ConfigError);
  // A valid rate whose gaps land past the end of SimTime.
  poisson.rate_per_sec = 1e-300;
  EXPECT_THROW(generate_arrivals(poisson, 2), ConfigError);

  ArrivalSpec trace;
  trace.kind = ArrivalKind::Trace;
  trace.trace_gaps_sec = {-1.0};
  EXPECT_THROW(generate_arrivals(trace, 2), ConfigError);
  trace.trace_gaps_sec = {nan};
  EXPECT_THROW(generate_arrivals(trace, 2), ConfigError);
  // 1e300 s does not convert to int64 µs at all; 5e12 s does, but two
  // of them summed overflow.
  trace.trace_gaps_sec = {1e300};
  EXPECT_THROW(generate_arrivals(trace, 2), ConfigError);
  trace.trace_gaps_sec = {5e12};
  EXPECT_EQ(generate_arrivals(trace, 2).back(),
            SimTime{5'000'000'000'000'000'000});
  EXPECT_THROW(generate_arrivals(trace, 3), ConfigError);

  ArrivalSpec bursty;
  bursty.kind = ArrivalKind::Bursty;
  bursty.burst_rate_per_sec = -1.0;
  EXPECT_THROW(generate_arrivals(bursty, 2), ConfigError);
  bursty.burst_rate_per_sec = 4.0;
  bursty.idle_rate_per_sec = std::numeric_limits<double>::infinity();
  EXPECT_THROW(generate_arrivals(bursty, 2), ConfigError);
  bursty.idle_rate_per_sec = 0.25;
  bursty.burst_len = 0;
  EXPECT_THROW(generate_arrivals(bursty, 2), ConfigError);
}

TEST(Arrivals, BurstyAlternatesPhases) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Bursty;
  spec.burst_rate_per_sec = 100.0;
  spec.idle_rate_per_sec = 0.01;
  spec.burst_len = 4;
  spec.seed = 3;
  const auto at = generate_arrivals(spec, 12);
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
  // Jobs 0..3 land in a burst; the 4..7 idle phase dwarfs it.
  const SimTime burst_span = at[3] - at[0];
  const SimTime idle_span = at[7] - at[3];
  EXPECT_GT(idle_span, burst_span * 10);
}

// --- shared-input merging -------------------------------------------------

TEST(ServeMerge, SharedInputsDedupeAcrossJobs) {
  const std::vector<Workload> jobs = {paired_job("j0"), paired_job("j1")};
  const ServingWorkload shared =
      merge_workloads(jobs, /*share_inputs=*/true);
  const ServingWorkload isolated =
      merge_workloads(jobs, /*share_inputs=*/false);
  // One "ds" dataset in the shared merge, two private copies otherwise.
  const auto count_inputs = [](const ServingWorkload& sw) {
    std::int64_t n = 0;
    for (const Rdd& r : sw.batch.combined.dag.rdds()) {
      n += r.is_input ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(count_inputs(shared), 1);
  EXPECT_EQ(count_inputs(isolated), 2);
}

TEST(ServeMerge, SharedInputShapeMismatchThrows) {
  Workload other("other", WorkloadCategory::Mixed, [] {
    JobDagBuilder b("other");
    const RddId ds = b.input_rdd("ds", 8, kMiB);  // different shape
    b.add_stage({.name = "map",
                 .inputs = {{ds, DepKind::Narrow}},
                 .num_tasks = 8,
                 .task_cpus = Cpus{1},
                 .task_duration = kSec,
                 .output_bytes_per_partition = Bytes{0},
                 .cache_output = false});
    return b.build();
  }());
  EXPECT_THROW(
      merge_workloads({paired_job("j0"), other}, /*share_inputs=*/true),
      ConfigError);
}

// --- make_serving ---------------------------------------------------------

TEST(MakeServing, BuildsGatedJobsWithArrivals) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  spec.trace_gaps_sec = {5.0};
  ServingOptions opt;
  opt.weights = {1, 3};
  const ServingWorkload sw =
      make_serving({paired_job("j0"), paired_job("j1")}, spec, opt);
  ASSERT_EQ(sw.serving.jobs.size(), 2u);
  EXPECT_EQ(sw.serving.jobs[0].submit_at, SimTime{0});
  EXPECT_EQ(sw.serving.jobs[1].submit_at, 5 * kSec);
  EXPECT_EQ(sw.serving.jobs[1].weight, 3);
  EXPECT_EQ(sw.serving.jobs[0].stages,
            (std::vector<StageId>{StageId(0), StageId(1), StageId(2)}));
  EXPECT_TRUE(sw.serving.enabled());
}

TEST(MakeServing, WeightCountMismatchThrows) {
  ServingOptions opt;
  opt.weights = {1};
  EXPECT_THROW(
      make_serving({paired_job("j0"), paired_job("j1")}, ArrivalSpec{}, opt),
      ConfigError);
}

// --- end-to-end serving runs ----------------------------------------------

RunMetrics run_serving(std::int32_t jobs, double gap_sec, bool fair,
                       CachePolicyKind cache, std::uint64_t seed = 42) {
  std::vector<Workload> instances;
  for (std::int32_t j = 0; j < jobs; ++j) {
    instances.push_back(paired_job("job" + std::to_string(j)));
  }
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  spec.trace_gaps_sec = {gap_sec};
  ServingOptions opt;
  opt.fair_share = fair;
  const ServingWorkload sw = make_serving(instances, spec, opt);
  SimConfig config = serve_cluster();
  config.serving = sw.serving;
  config.cache = cache;
  config.seed = seed;
  return run_workload(sw.batch.combined, config).metrics;
}

TEST(Serving, EveryJobQuiescesAndAccountsItsReads) {
  const RunMetrics m =
      run_serving(3, 2.0, /*fair=*/true, CachePolicyKind::Lrp);
  ASSERT_EQ(m.jobs.size(), 3u);
  std::int64_t reads = 0, hits = 0, tasks = 0;
  for (const JobStats& j : m.jobs) {
    EXPECT_GE(j.first_launch, j.submitted) << j.name;
    EXPECT_GT(j.finished, j.submitted) << j.name;
    EXPECT_GT(j.jct(), SimTime{0}) << j.name;
    EXPECT_LE(j.effective_task_hits, j.effective_task_reads) << j.name;
    reads += j.effective_task_reads;
    hits += j.effective_task_hits;
    tasks += j.tasks;
  }
  EXPECT_EQ(reads, m.cache.effective_task_reads);
  EXPECT_EQ(hits, m.cache.effective_task_hits);
  EXPECT_EQ(tasks, 3 * 12);  // 3 jobs x (3 stages x 4 tasks)
  // The last finisher defines the stream's makespan.
  SimTime last{};
  for (const JobStats& j : m.jobs) last = std::max(last, j.finished);
  EXPECT_EQ(last, m.jct);
}

TEST(Serving, GatedJobsNeverLaunchBeforeArrival) {
  const RunMetrics m =
      run_serving(3, 4.0, /*fair=*/false, CachePolicyKind::Lrp);
  ASSERT_EQ(m.jobs.size(), 3u);
  EXPECT_EQ(m.jobs[1].submitted, 4 * kSec);
  EXPECT_EQ(m.jobs[2].submitted, 8 * kSec);
  for (const JobStats& j : m.jobs) {
    EXPECT_GE(j.first_launch, j.submitted) << j.name;
  }
}

TEST(Serving, FairShareStartsLateJobsEarlier) {
  // Simultaneous arrivals on a tight cluster: under FIFO the last job
  // waits for the earlier ones; fair share interleaves all three.
  const RunMetrics fifo =
      run_serving(3, 0.0, /*fair=*/false, CachePolicyKind::Lrp);
  const RunMetrics fair =
      run_serving(3, 0.0, /*fair=*/true, CachePolicyKind::Lrp);
  EXPECT_LT(fair.jobs[2].first_launch, fifo.jobs[2].first_launch);
  // Interleaving trades the first job's finish for the last one's start.
  EXPECT_GE(fair.jobs[0].finished, fifo.jobs[0].finished);
}

TEST(Serving, WeightedFairShareFavorsHeavyJobs) {
  // Two simultaneous jobs, weight 1 vs 4, one four-core executor: the
  // min-share rule gives the heavy job 3 of 4 cores (1:1 only below
  // that granularity), so it must finish first.
  std::vector<Workload> instances = {paired_job("light"),
                                     paired_job("heavy")};
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  spec.trace_gaps_sec = {0.0};
  ServingOptions opt;
  opt.fair_share = true;
  opt.weights = {1, 4};
  const ServingWorkload sw = make_serving(instances, spec, opt);
  SimConfig config = serve_cluster();
  config.topology.nodes_per_rack = 1;
  config.topology.executors_per_node = 1;
  config.topology.cores_per_executor = Cpus{4};
  config.serving = sw.serving;
  const RunMetrics m = run_workload(sw.batch.combined, config).metrics;
  EXPECT_LT(m.jobs[1].finished, m.jobs[0].finished);
}

TEST(Serving, RunsAreDeterministicPerSeed) {
  const RunMetrics a =
      run_serving(3, 1.0, /*fair=*/true, CachePolicyKind::Lerc, 7);
  const RunMetrics b =
      run_serving(3, 1.0, /*fair=*/true, CachePolicyKind::Lerc, 7);
  EXPECT_EQ(metrics_fingerprint(a), metrics_fingerprint(b));
}

TEST(Serving, LercServingRunProducesEffectiveHits) {
  const RunMetrics m =
      run_serving(3, 1.0, /*fair=*/true, CachePolicyKind::Lerc);
  // Every join task reads a cacheable pair: 4 tasks x 3 jobs.
  EXPECT_EQ(m.cache.effective_task_reads, 12);
  EXPECT_GT(m.cache.effective_task_hits, 0);
  EXPECT_GT(m.cache.effective_hit_ratio(), 0.0);
}

TEST(Serving, SingleJobRunsReportNoJobTable) {
  const RunMetrics m =
      run_workload(paired_job("solo"), serve_cluster()).metrics;
  EXPECT_TRUE(m.jobs.empty());
}

TEST(Serving, ValidatesStagePartition) {
  const ServingWorkload sw = make_serving({paired_job("j0")}, ArrivalSpec{});
  SimConfig config = serve_cluster();
  config.serving = sw.serving;
  config.serving.jobs[0].stages.pop_back();  // stage 2 now unowned
  EXPECT_THROW(run_workload(sw.batch.combined, config), ConfigError);
  config.serving = sw.serving;
  config.serving.jobs[0].weight = 0;
  EXPECT_THROW(run_workload(sw.batch.combined, config), ConfigError);
}

}  // namespace
}  // namespace dagon
