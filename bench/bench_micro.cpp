// Micro-benchmarks (google-benchmark): the per-decision costs of the
// middleware's hot paths. These bound the control-plane overhead Dagon
// would add to a real Spark driver (the paper argues the heuristic must
// run "in a time acceptable to Spark" — §III-A2).
#include <benchmark/benchmark.h>

#include "core/dagon.hpp"

namespace dagon {
namespace {

Workload big_workload() {
  return make_workload(WorkloadId::PregelOperation, WorkloadScale{1.0});
}

void BM_PriorityValues(benchmark::State& state) {
  // One launch and one requeue of the stage with the most ancestors: the
  // Eq. (6) update a launch costs, applied to the stage and each ancestor.
  const Workload w = big_workload();
  const JobProfile profile = exact_profile(w.dag);
  PriorityValues pv(w.dag, profile);
  StageId deepest = StageId(0);
  for (const Stage& s : w.dag.stages()) {
    if (w.dag.ancestor_set(s.id).size() >
        w.dag.ancestor_set(deepest).size()) {
      deepest = s.id;
    }
  }
  for (auto _ : state) {
    pv.on_launch(deepest);
    pv.on_requeue(deepest);
    benchmark::DoNotOptimize(pv.values().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_PriorityValues);

void BM_DagonSelectorOrder(benchmark::State& state) {
  const Workload w = big_workload();
  const Topology topo(TopologySpec{});
  const JobProfile profile = exact_profile(w.dag);
  JobState js(w.dag, topo, profile);
  const DagonSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.order(js));
  }
}
BENCHMARK(BM_DagonSelectorOrder);

void BM_GrapheneSelectorOrder(benchmark::State& state) {
  const Workload w = big_workload();
  const Topology topo(TopologySpec{});
  const JobProfile profile = exact_profile(w.dag);
  JobState js(w.dag, topo, profile);
  const GrapheneSelector selector(w.dag, profile, Cpus{4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.order(js));
  }
}
BENCHMARK(BM_GrapheneSelectorOrder);

void BM_OracleReferencePriority(benchmark::State& state) {
  const Workload w = big_workload();
  ReferenceOracle oracle(w.dag);
  const RddId adj = w.dag.stage(StageId(0)).output;
  const BlockId block{adj, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.reference_priority(block));
    benchmark::DoNotOptimize(oracle.stage_distance(block));
  }
}
BENCHMARK(BM_OracleReferencePriority);

void BM_BlockManagerInsertEvict(benchmark::State& state) {
  const Workload w = big_workload();
  ReferenceOracle oracle(w.dag);
  const LrpPolicy policy;
  const RddId adj = w.dag.stage(StageId(0)).output;
  const Bytes bytes = w.dag.rdd(adj).bytes_per_partition;
  BlockManager bm(ExecutorId(0), 8 * bytes, policy);
  std::int32_t p = 0;
  SimTime now{};
  const auto parts = w.dag.rdd(adj).num_partitions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bm.insert(BlockId{adj, p}, bytes, ++now, oracle));
    p = (p + 1) % parts;
  }
}
BENCHMARK(BM_BlockManagerInsertEvict);

void BM_EventQueue(benchmark::State& state) {
  EventQueue q;
  SimTime t{};
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(Event{t + SimTime{(i * 37) % 1000}, EventType::Tick,
                   TaskId::invalid(),
                   ExecutorId::invalid(), BlockId{}});
    }
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(q.pop());
    }
    t += SimTime{1000};
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          128);
}
BENCHMARK(BM_EventQueue);

void BM_FullSimSmall(benchmark::State& state) {
  KMeansParams params;
  params.partitions = 16;
  params.iterations = 3;
  const Workload w = make_kmeans(params);
  SimConfig config;
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 4;
  config.topology.executors_per_node = 2;
  config.scheduler = SchedulerKind::Dagon;
  config.cache = CachePolicyKind::Lrp;
  config.delay = DelayKind::SensitivityAware;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_workload(w, config).metrics.jct);
  }
}
BENCHMARK(BM_FullSimSmall)->Unit(benchmark::kMillisecond);

void BM_CacheTraceTable1(benchmark::State& state) {
  const Workload w = make_example_dag();
  const auto schedule = fifo_fig1_schedule(kMinute);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_cache_trace(w.dag, schedule, CachePolicyKind::Mrd, 3));
  }
}
BENCHMARK(BM_CacheTraceTable1);

}  // namespace
}  // namespace dagon

BENCHMARK_MAIN();
