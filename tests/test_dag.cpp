// Unit tests for the DAG model: builder validation, topology queries,
// task inputs, workloads, critical paths and priority values.
#include <gtest/gtest.h>

#include "dag/dag_analysis.hpp"
#include "dag/priority_values.hpp"
#include "dag/job_dag.hpp"
#include "dag/profile.hpp"
#include "workloads/example_dag.hpp"

namespace dagon {
namespace {

/// diamond: in -> a -> {b, c} -> d
JobDag make_diamond() {
  JobDagBuilder b("diamond");
  const RddId in = b.input_rdd("in", 4, kMiB);
  const StageId a = b.add_stage({.name = "a",
                                 .inputs = {{in, DepKind::Narrow}},
                                 .num_tasks = 4,
                                 .task_cpus = Cpus{1},
                                 .task_duration = kSec,
                                 .output_bytes_per_partition = kMiB});
  const StageId s_b = b.add_stage({.name = "b",
                                   .inputs = {{b.output_of(a),
                                               DepKind::Narrow}},
                                   .num_tasks = 4,
                                   .task_cpus = Cpus{2},
                                   .task_duration = 2 * kSec,
                                   .output_bytes_per_partition = kMiB});
  const StageId s_c = b.add_stage({.name = "c",
                                   .inputs = {{b.output_of(a),
                                               DepKind::Shuffle}},
                                   .num_tasks = 2,
                                   .task_cpus = Cpus{1},
                                   .task_duration = 3 * kSec,
                                   .output_bytes_per_partition = kMiB});
  b.add_stage({.name = "d",
               .inputs = {{b.output_of(s_b), DepKind::Shuffle},
                          {b.output_of(s_c), DepKind::Shuffle}},
               .num_tasks = 2,
               .task_cpus = Cpus{1},
               .task_duration = kSec,
               .output_bytes_per_partition = Bytes{0}});
  return b.build();
}

TEST(JobDagBuilder, BuildsDiamond) {
  const JobDag dag = make_diamond();
  EXPECT_EQ(dag.num_stages(), 4u);
  EXPECT_EQ(dag.rdds().size(), 5u);  // in + 4 outputs
  EXPECT_EQ(dag.total_tasks(), 12);
  EXPECT_EQ(dag.depth(), 3);
}

TEST(JobDagBuilder, ParentChildLinks) {
  const JobDag dag = make_diamond();
  const Stage& a = dag.stage(StageId(0));
  const Stage& d = dag.stage(StageId(3));
  EXPECT_TRUE(a.parents.empty());
  EXPECT_EQ(a.children.size(), 2u);
  EXPECT_EQ(d.parents.size(), 2u);
  EXPECT_TRUE(d.children.empty());
}

TEST(JobDagBuilder, RootsAndLeaves) {
  const JobDag dag = make_diamond();
  EXPECT_EQ(dag.root_stages(), std::vector<StageId>{StageId(0)});
  EXPECT_EQ(dag.leaf_stages(), std::vector<StageId>{StageId(3)});
}

TEST(JobDagBuilder, TopologicalOrderRespectsParents) {
  const JobDag dag = make_diamond();
  const auto& topo = dag.topological_order();
  ASSERT_EQ(topo.size(), 4u);
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(topo[i].value())] = i;
  for (const Stage& s : dag.stages()) {
    for (const StageId p : s.parents) {
      EXPECT_LT(pos[static_cast<std::size_t>(p.value())],
                pos[static_cast<std::size_t>(s.id.value())]);
    }
  }
}

TEST(JobDagBuilder, SuccessorSets) {
  const JobDag dag = make_diamond();
  const auto succ_a = dag.successor_set(StageId(0));
  EXPECT_EQ(succ_a.size(), 3u);
  EXPECT_TRUE(dag.successor_set(StageId(3)).empty());
  const auto succ_b = dag.successor_set(StageId(1));
  EXPECT_EQ(succ_b, std::vector<StageId>{StageId(3)});
}

TEST(JobDagBuilder, ProducerOf) {
  const JobDag dag = make_diamond();
  EXPECT_FALSE(dag.producer_of(RddId(0)).has_value());  // input
  EXPECT_EQ(dag.producer_of(dag.stage(StageId(1)).output), StageId(1));
}

TEST(JobDagBuilder, RejectsMismatchedNarrowDep) {
  JobDagBuilder b("bad");
  const RddId in = b.input_rdd("in", 4, kMiB);
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{in, DepKind::Narrow}},
                            .num_tasks = 3,  // != 4 partitions
                            .task_cpus = Cpus{1},
                            .task_duration = kSec}),
               ConfigError);
}

TEST(JobDagBuilder, RejectsUnknownRdd) {
  JobDagBuilder b("bad");
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{RddId(99), DepKind::Shuffle}},
                            .num_tasks = 2,
                            .task_cpus = Cpus{1},
                            .task_duration = kSec}),
               ConfigError);
}

TEST(JobDagBuilder, RejectsNonPositiveFields) {
  JobDagBuilder b("bad");
  const RddId in = b.input_rdd("in", 2, kMiB);
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{in, DepKind::Shuffle}},
                            .num_tasks = 0,
                            .task_cpus = Cpus{1},
                            .task_duration = kSec}),
               ConfigError);
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{in, DepKind::Shuffle}},
                            .num_tasks = 2,
                            .task_cpus = Cpus{0},
                            .task_duration = kSec}),
               ConfigError);
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{in, DepKind::Shuffle}},
                            .num_tasks = 2,
                            .task_cpus = Cpus{1},
                            .task_duration = SimTime{0}}),
               ConfigError);
}

TEST(JobDagBuilder, RejectsEmptyJob) {
  JobDagBuilder b("empty");
  EXPECT_THROW((void)b.build(), ConfigError);
}

TEST(JobDagBuilder, RejectsBadSkewVector) {
  JobDagBuilder b("bad");
  const RddId in = b.input_rdd("in", 2, kMiB);
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{in, DepKind::Narrow}},
                            .num_tasks = 2,
                            .task_cpus = Cpus{1},
                            .task_duration = kSec,
                            .output_bytes_per_partition = Bytes{0},
                            .cache_output = true,
                            .duration_skew = {1.0}}),
               ConfigError);
}

TEST(JobDag, TaskInputsNarrow) {
  const JobDag dag = make_diamond();
  const auto inputs = dag.task_inputs(StageId(0), 2);
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0].block, (BlockId{RddId(0), 2}));
  EXPECT_EQ(inputs[0].bytes, kMiB);
}

TEST(JobDag, TaskInputsShuffleSlicesAllParents) {
  const JobDag dag = make_diamond();
  // Stage c (id 2) shuffles over a's 4-partition output.
  const auto inputs = dag.task_inputs(StageId(2), 0);
  ASSERT_EQ(inputs.size(), 4u);
  for (const TaskInput& in : inputs) {
    EXPECT_EQ(in.bytes, kMiB / 2);  // block bytes / 2 tasks
  }
}

TEST(JobDag, StageInputBlocksDeduplicated) {
  const JobDag dag = make_diamond();
  const auto blocks = dag.stage_input_blocks(StageId(2));
  EXPECT_EQ(blocks.size(), 4u);
}

TEST(JobDag, TaskInputBytes) {
  const JobDag dag = make_diamond();
  EXPECT_EQ(dag.task_input_bytes(StageId(0), 0), kMiB);
  EXPECT_EQ(dag.task_input_bytes(StageId(2), 0), 4 * (kMiB / 2));
}

TEST(Stage, WorkloadAndSkew) {
  JobDagBuilder b("skewed");
  const RddId in = b.input_rdd("in", 2, kMiB);
  b.add_stage({.name = "s",
               .inputs = {{in, DepKind::Narrow}},
               .num_tasks = 2,
               .task_cpus = Cpus{3},
               .task_duration = 10 * kSec,
               .output_bytes_per_partition = Bytes{0},
               .cache_output = true,
               .duration_skew = {1.0, 2.0}});
  const JobDag dag = b.build();
  const Stage& s = dag.stage(StageId(0));
  EXPECT_EQ(s.task_compute_time(0), 10 * kSec);
  EXPECT_EQ(s.task_compute_time(1), 20 * kSec);
  EXPECT_EQ(s.workload(), Cpus{3} * ((10 + 20) * kSec));
}

TEST(DagAnalysis, ExampleDagWorkloadsMatchPaper) {
  // w1=48, w2=36, w3=24, w4=4 vCPU-minutes (paper §III-A).
  const Workload w = make_example_dag();
  const JobDag& dag = w.dag;
  EXPECT_EQ(dag.stage(StageId(0)).workload(), CpuWork{48 * kMinute.count()});
  EXPECT_EQ(dag.stage(StageId(1)).workload(), CpuWork{36 * kMinute.count()});
  EXPECT_EQ(dag.stage(StageId(2)).workload(), CpuWork{24 * kMinute.count()});
  EXPECT_EQ(dag.stage(StageId(3)).workload(), CpuWork{4 * kMinute.count()});
}

TEST(DagAnalysis, ExampleDagPriorityValuesMatchTable3) {
  // pv1 = 52, pv2 = 64 vCPU-minutes (Table III, initial row).
  const Workload w = make_example_dag();
  const std::vector<CpuWork> pv = PriorityValues(w.dag).values();
  EXPECT_EQ(pv[0], CpuWork{52 * kMinute.count()});
  EXPECT_EQ(pv[1], CpuWork{64 * kMinute.count()});
  EXPECT_EQ(pv[2], CpuWork{28 * kMinute.count()});
  EXPECT_EQ(pv[3], CpuWork{4 * kMinute.count()});
}

TEST(DagAnalysis, CriticalPath) {
  const JobDag dag = make_diamond();
  // a(1s) -> c(3s) -> d(1s) = 5s is the longest chain.
  EXPECT_EQ(critical_path(dag), 5 * kSec);
  const auto cp = critical_path_lengths(dag);
  EXPECT_EQ(cp[0], 5 * kSec);
  EXPECT_EQ(cp[1], 3 * kSec);  // b(2) -> d(1)
  EXPECT_EQ(cp[2], 4 * kSec);  // c(3) -> d(1)
  EXPECT_EQ(cp[3], 1 * kSec);
}

TEST(DagAnalysis, MakespanLowerBound) {
  const Workload w = make_example_dag();
  // Total work 112 vCPU-min on 16 vCPUs -> 7 min; critical path
  // S2->S3->S4 = 7 min.
  EXPECT_EQ(makespan_lower_bound(w.dag, Cpus{16}), 7 * kMinute);
}

TEST(DagAnalysis, ShapeSummary) {
  const Workload w = make_example_dag();
  const DagShape shape = analyze_shape(w.dag);
  EXPECT_EQ(shape.stages, 4u);
  EXPECT_EQ(shape.tasks, 9);
  EXPECT_EQ(shape.depth, 3);
  EXPECT_EQ(shape.total_work, CpuWork{112 * kMinute.count()});
  EXPECT_EQ(shape.critical_path, 7 * kMinute);
}

TEST(Profile, ExactProfileMatchesDag) {
  const Workload w = make_example_dag();
  const JobProfile p = exact_profile(w.dag);
  ASSERT_EQ(p.stages.size(), 4u);
  EXPECT_EQ(p.stage(StageId(0)).task_duration, 4 * kMinute);
  EXPECT_EQ(p.stage(StageId(1)).task_cpus, Cpus{6});
  EXPECT_EQ(p.workload(StageId(0), 3), CpuWork{48 * kMinute.count()});
  EXPECT_EQ(p.workload(StageId(0), 1), CpuWork{16 * kMinute.count()});
}

TEST(Profile, InitiallyCachedPartitions) {
  const Workload w = make_example_dag();
  const Rdd& a = w.dag.rdd(RddId(0));
  EXPECT_TRUE(a.is_input);
  EXPECT_EQ(a.initially_cached_partitions, 3);
}

TEST(JobDag, UnknownIdsThrow) {
  const JobDag dag = make_diamond();
  EXPECT_THROW((void)dag.stage(StageId(99)), InvariantError);
  EXPECT_THROW((void)dag.rdd(RddId(99)), InvariantError);
  EXPECT_THROW((void)dag.task_inputs(StageId(0), 99), InvariantError);
}

// The reference oracle keeps one record per (block, reader stage); a
// stage reading one RDD through two edges would consume it twice per
// launch and drop its references while tasks still read the blocks.
TEST(JobDagBuilder, RejectsNarrowAndShuffleEdgesToOneRdd) {
  JobDagBuilder b("twice");
  const RddId in = b.input_rdd("in", 4, kMiB);
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{in, DepKind::Narrow},
                                       {in, DepKind::Shuffle}},
                            .num_tasks = 4,
                            .task_cpus = Cpus{1},
                            .task_duration = kSec}),
               ConfigError);
}

TEST(JobDagBuilder, RejectsTwoShuffleEdgesToOneRdd) {
  JobDagBuilder b("twice");
  const RddId in = b.input_rdd("in", 4, kMiB);
  const RddId other = b.input_rdd("other", 2, kMiB);
  EXPECT_THROW(b.add_stage({.name = "s",
                            .inputs = {{in, DepKind::Shuffle},
                                       {other, DepKind::Shuffle},
                                       {in, DepKind::Shuffle}},
                            .num_tasks = 4,
                            .task_cpus = Cpus{1},
                            .task_duration = kSec}),
               ConfigError);
  // One edge per parent is fine.
  EXPECT_NO_THROW(b.add_stage({.name = "ok",
                               .inputs = {{in, DepKind::Shuffle},
                                          {other, DepKind::Shuffle}},
                               .num_tasks = 4,
                               .task_cpus = Cpus{1},
                               .task_duration = kSec}));
}

TEST(JobDagBuilder, SetCacheableFlags) {
  JobDagBuilder b("flags");
  const RddId in = b.input_rdd("in", 2, kMiB);
  b.set_rdd_cacheable(in, false);
  const StageId s = b.add_stage({.name = "s",
                                 .inputs = {{in, DepKind::Narrow}},
                                 .num_tasks = 2,
                                 .task_cpus = Cpus{1},
                                 .task_duration = kSec,
                                 .output_bytes_per_partition = kMiB});
  b.set_output_cacheable(s, false);
  const JobDag dag = b.build();
  EXPECT_FALSE(dag.rdd(RddId(0)).cacheable);
  EXPECT_FALSE(dag.rdd(dag.stage(StageId(0)).output).cacheable);
}

}  // namespace
}  // namespace dagon
