// Tests for the workload generators: structural signatures of each
// SparkBench-like application, scale knob, and the random-DAG generator.
#include <gtest/gtest.h>

#include <set>

#include "dag/priority_values.hpp"
#include "workloads/example_dag.hpp"
#include "workloads/graph_workloads.hpp"
#include "workloads/ml_workloads.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/suite.hpp"

namespace dagon {
namespace {

TEST(ExampleDag, MatchesPaperStructure) {
  const Workload w = make_example_dag();
  ASSERT_EQ(w.dag.num_stages(), 4u);
  EXPECT_EQ(w.dag.stage(StageId(0)).num_tasks, 3);
  EXPECT_EQ(w.dag.stage(StageId(0)).task_cpus, Cpus{4});
  EXPECT_EQ(w.dag.stage(StageId(1)).task_cpus, Cpus{6});
  EXPECT_EQ(w.dag.stage(StageId(2)).num_tasks, 2);
  EXPECT_EQ(w.dag.stage(StageId(3)).num_tasks, 1);
  // RDD names match Fig. 1 for readable trace output.
  EXPECT_EQ(w.dag.rdd(RddId(0)).name, "A");
  EXPECT_EQ(w.dag.rdd(RddId(1)).name, "C");
  EXPECT_EQ(w.dag.rdd(w.dag.stage(StageId(0)).output).name, "B");
  EXPECT_EQ(w.dag.rdd(w.dag.stage(StageId(1)).output).name, "D");
  EXPECT_EQ(w.dag.rdd(w.dag.stage(StageId(2)).output).name, "E");
}

TEST(ExampleDag, CustomTimebase) {
  ExampleDagParams p;
  p.minute = kSec;
  const Workload w = make_example_dag(p);
  EXPECT_EQ(w.dag.stage(StageId(0)).task_duration, 4 * kSec);
}

TEST(KMeans, HasPaperStageCount) {
  const Workload w = make_kmeans();
  // scan + 15 iterations + rescan + final = 18 stages (Fig. 3's 0..17).
  EXPECT_EQ(w.dag.num_stages(), 18u);
  EXPECT_EQ(w.category, WorkloadCategory::Mixed);
}

TEST(KMeans, RawInputIsNotCacheable) {
  const Workload w = make_kmeans();
  EXPECT_FALSE(w.dag.rdd(RddId(0)).cacheable);
}

TEST(KMeans, IterationsReadCachedFeaturesNarrowly) {
  const Workload w = make_kmeans();
  const RddId features = w.dag.stage(StageId(0)).output;
  EXPECT_TRUE(w.dag.rdd(features).cacheable);
  for (std::size_t s = 1; s <= 15; ++s) {
    const Stage& stage = w.dag.stage(StageId(static_cast<std::int32_t>(s)));
    ASSERT_FALSE(stage.inputs.empty());
    EXPECT_EQ(stage.inputs[0].rdd, features);
    EXPECT_EQ(stage.inputs[0].kind, DepKind::Narrow);
  }
}

TEST(KMeans, ChainIsSequential) {
  const Workload w = make_kmeans();
  EXPECT_EQ(w.dag.depth(), 18);
}

TEST(MlWorkloads, CategoriesMatchPaperGrouping) {
  EXPECT_EQ(make_linear_regression().category,
            WorkloadCategory::CpuIntensive);
  EXPECT_EQ(make_logistic_regression().category,
            WorkloadCategory::CpuIntensive);
  EXPECT_EQ(make_decision_tree().category, WorkloadCategory::CpuIntensive);
  EXPECT_EQ(make_triangle_count().category, WorkloadCategory::Mixed);
  EXPECT_EQ(make_connected_component().category,
            WorkloadCategory::IoIntensive);
  EXPECT_EQ(make_pregel_operation().category,
            WorkloadCategory::IoIntensive);
}

TEST(MlWorkloads, HeterogeneousDemands) {
  // The DAG-aware scheduling result depends on demand heterogeneity; the
  // CPU-intensive generators must emit more than one distinct d_i.
  for (const Workload& w :
       {make_linear_regression(), make_logistic_regression(),
        make_decision_tree()}) {
    std::set<Cpus> demands;
    for (const Stage& s : w.dag.stages()) demands.insert(s.task_cpus);
    EXPECT_GT(demands.size(), 1u) << w.name;
  }
}

TEST(MlWorkloads, ParallelBranchesExist) {
  // The iteration ladders fork: some stage must feed both a chain stage
  // and a light side stage (the Fig. 1 motif the schedulers exploit).
  for (const Workload& w :
       {make_linear_regression(), make_logistic_regression(),
        make_decision_tree()}) {
    bool any_fork = false;
    for (const Stage& s : w.dag.stages()) {
      if (s.children.size() >= 2) any_fork = true;
    }
    EXPECT_TRUE(any_fork) << w.name;
  }
}

TEST(GraphWorkloads, SuperstepSkeleton) {
  const Workload w = make_connected_component(32);
  // 2 adjacency builds + 8 supersteps x (gather, scatter, update) +
  // collect = 27 stages.
  EXPECT_EQ(w.dag.num_stages(), 27u);
  // Every gather re-reads the out-adjacency narrowly; every scatter the
  // in-adjacency.
  const RddId adj = w.dag.stage(StageId(0)).output;
  const RddId radj = w.dag.stage(StageId(1)).output;
  EXPECT_TRUE(w.dag.rdd(adj).cacheable);
  EXPECT_TRUE(w.dag.rdd(radj).cacheable);
  int adj_readers = 0;
  int radj_readers = 0;
  for (const Stage& s : w.dag.stages()) {
    for (const RddRef& ref : s.inputs) {
      if (ref.rdd == adj) {
        ++adj_readers;
        EXPECT_EQ(ref.kind, DepKind::Narrow);
      }
      if (ref.rdd == radj) ++radj_readers;
    }
  }
  EXPECT_EQ(adj_readers, 8);
  EXPECT_EQ(radj_readers, 8);
}

TEST(GraphWorkloads, ScatterOutranksGather) {
  // Dagon must run the heavy scatter before the light gather even
  // though the gather has the smaller stage id — the inversion that
  // separates LRP from MRD (Fig. 11).
  const Workload w = make_connected_component(32);
  const std::vector<CpuWork> pv = PriorityValues(w.dag).values();
  const Stage& gather1 = w.dag.stage(StageId(2));
  const Stage& scatter1 = w.dag.stage(StageId(3));
  ASSERT_EQ(gather1.name, "gather1");
  ASSERT_EQ(scatter1.name, "scatter1");
  EXPECT_GT(pv[3], pv[2]);
}

TEST(GraphWorkloads, PregelHasInitBranch) {
  const Workload w = make_pregel_operation(32);
  EXPECT_GE(w.dag.root_stages().size(), 2u);
}

TEST(GraphWorkloads, ShortestPathsHasSkew) {
  const Workload w = make_shortest_paths(32);
  bool any_skew = false;
  for (const Stage& s : w.dag.stages()) {
    if (!s.duration_skew.empty()) any_skew = true;
  }
  EXPECT_TRUE(any_skew);
}

TEST(Suite, AllWorkloadsBuildAtAllScales) {
  for (const auto id :
       {WorkloadId::LinearRegression, WorkloadId::LogisticRegression,
        WorkloadId::DecisionTree, WorkloadId::KMeans,
        WorkloadId::TriangleCount, WorkloadId::ConnectedComponent,
        WorkloadId::PregelOperation, WorkloadId::PageRank,
        WorkloadId::ShortestPaths}) {
    for (const double size : {0.05, 0.25, 1.0}) {
      const Workload w = make_workload(id, WorkloadScale{size});
      EXPECT_EQ(w.name, workload_name(id));
      EXPECT_GT(w.dag.num_stages(), 2u);
      EXPECT_GT(w.dag.total_tasks(), 0);
    }
  }
}

TEST(Suite, ScaleShrinksTasks) {
  const Workload big = make_workload(WorkloadId::KMeans, WorkloadScale{1.0});
  const Workload small =
      make_workload(WorkloadId::KMeans, WorkloadScale{0.1});
  EXPECT_GT(big.dag.total_tasks(), 5 * small.dag.total_tasks());
}

TEST(Suite, SparkbenchSuiteHasPaperSeven) {
  const auto suite = sparkbench_suite();
  EXPECT_EQ(suite.size(), 7u);
  EXPECT_EQ(cache_study_suite().size(), 4u);
}

TEST(RandomDag, AlwaysValid) {
  Rng rng(1234);
  for (int i = 0; i < 50; ++i) {
    const Workload w = make_random_dag(rng);
    EXPECT_GE(w.dag.num_stages(), 3u);
    // Build succeeded => acyclic + wired; spot-check topo order length.
    EXPECT_EQ(w.dag.topological_order().size(), w.dag.num_stages());
  }
}

TEST(RandomDag, DeterministicForRngState) {
  RandomDagParams params;
  Rng a(9);
  Rng b(9);
  const Workload wa = make_random_dag(a, params);
  const Workload wb = make_random_dag(b, params);
  ASSERT_EQ(wa.dag.num_stages(), wb.dag.num_stages());
  for (std::size_t i = 0; i < wa.dag.num_stages(); ++i) {
    const Stage& sa = wa.dag.stages()[i];
    const Stage& sb = wb.dag.stages()[i];
    EXPECT_EQ(sa.num_tasks, sb.num_tasks);
    EXPECT_EQ(sa.task_cpus, sb.task_cpus);
    EXPECT_EQ(sa.task_duration, sb.task_duration);
  }
}

TEST(Categories, Names) {
  EXPECT_STREQ(category_name(WorkloadCategory::CpuIntensive),
               "CPU-intensive");
  EXPECT_STREQ(category_name(WorkloadCategory::IoIntensive),
               "I/O-intensive");
}

}  // namespace
}  // namespace dagon
