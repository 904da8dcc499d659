// Property-based tests: sweep random DAGs (TEST_P over seeds) and assert
// the simulator's invariants hold under every scheduler/cache
// combination — resource conservation, dependency order, cache-stat
// consistency, and bit-exact determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <vector>

#include "core/dagon.hpp"

namespace dagon {
namespace {

SimConfig property_cluster(std::uint64_t seed) {
  SimConfig config;
  config.topology.racks = 2;
  config.topology.nodes_per_rack = 2;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{8};
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.hdfs.replication = 2;
  config.seed = seed;
  return config;
}

struct PropertyCase {
  std::uint64_t seed;
  SchedulerKind scheduler;
  CachePolicyKind cache;
  DelayKind delay;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  return std::string("seed") + std::to_string(info.param.seed) + "_" +
         scheduler_name(info.param.scheduler) + "_" +
         cache_policy_name(info.param.cache) + "_" +
         (info.param.delay == DelayKind::Native ? "native" : "aware");
}

class SimInvariants : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static RandomDagParams dag_params() {
    RandomDagParams p;
    p.max_stages = 14;
    p.max_tasks = 12;
    p.max_cpus = Cpus{4};
    return p;
  }
};

TEST_P(SimInvariants, HoldOnRandomDags) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed);
  const Workload w = make_random_dag(rng, dag_params());

  SimConfig config = property_cluster(param.seed);
  config.scheduler = param.scheduler;
  config.cache = param.cache;
  config.delay = param.delay;

  const RunMetrics m = run_workload(w, config).metrics;

  // 1. Every task ran exactly once (no speculation configured).
  std::int64_t completed = 0;
  for (const TaskRecord& t : m.tasks) {
    if (!t.cancelled) ++completed;
  }
  EXPECT_EQ(completed, w.dag.total_tasks());

  // 2. Resource conservation: busy cores within [0, capacity], back to 0.
  EXPECT_DOUBLE_EQ(m.busy_cores.value(), 0.0);
  EXPECT_LE(m.busy_cores.max_over(SimTime{0}, m.jct),
            static_cast<double>(m.total_cores.count()));
  EXPECT_DOUBLE_EQ(m.running_tasks.value(), 0.0);

  // 3. Stage dependency order.
  for (const StageRecord& s : m.stages) {
    for (const StageId p : w.dag.stage(s.id).parents) {
      EXPECT_GE(s.first_launch,
                m.stages[static_cast<std::size_t>(p.value())].finish_time);
    }
  }

  // 4. JCT is bounded below by the DAG's critical path through actual
  //    compute times (fetches only add).
  EXPECT_GE(m.jct, critical_path(w.dag));

  // 5. Cache accounting is consistent.
  EXPECT_EQ(m.cache.local_memory_hits + m.cache.other_memory_hits +
                m.cache.disk_reads,
            m.cache.total_reads);
  EXPECT_GE(m.cache.hit_ratio(), 0.0);
  EXPECT_LE(m.cache.hit_ratio(), 1.0);

  // 6. Locality histogram covers every attempt.
  std::int64_t launches = 0;
  for (const std::int64_t c : m.locality_histogram) launches += c;
  EXPECT_EQ(launches, static_cast<std::int64_t>(m.tasks.size()));

  // 7. Determinism: rerunning is bit-identical.
  Rng rng2(param.seed);
  const Workload w2 = make_random_dag(rng2, dag_params());
  const RunMetrics m2 = run_workload(w2, config).metrics;
  EXPECT_EQ(m.jct, m2.jct);
  EXPECT_EQ(m.cache.local_memory_hits, m2.cache.local_memory_hits);
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  const SchedulerKind schedulers[] = {
      SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::CriticalPath,
      SchedulerKind::Graphene, SchedulerKind::Dagon};
  const CachePolicyKind caches[] = {CachePolicyKind::Lru,
                                    CachePolicyKind::Lrc,
                                    CachePolicyKind::Mrd,
                                    CachePolicyKind::Lrp};
  std::uint64_t seed = 100;
  for (const SchedulerKind s : schedulers) {
    for (const CachePolicyKind c : caches) {
      cases.push_back(PropertyCase{seed++, s, c,
                                   seed % 2 ? DelayKind::Native
                                            : DelayKind::SensitivityAware});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SimInvariants,
                         ::testing::ValuesIn(property_cases()), case_name);

// --- assignment-trace invariants over random DAGs ------------------------------

class TraceInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceInvariants, HoldForEverySelector) {
  Rng rng(GetParam());
  RandomDagParams p;
  p.max_stages = 16;
  p.max_tasks = 10;
  p.max_cpus = Cpus{4};
  const Workload w = make_random_dag(rng, p);
  const Cpus capacity{12};

  for (const SchedulerKind kind :
       {SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::CriticalPath,
        SchedulerKind::Graphene, SchedulerKind::Dagon}) {
    const auto trace = trace_priority_assignment(w.dag, capacity, kind);

    // Every task placed exactly once.
    EXPECT_EQ(trace.placements.size(),
              static_cast<std::size_t>(w.dag.total_tasks()));

    // Capacity respected at every placement start.
    for (const PlacedTask& t : trace.placements) {
      Cpus busy{};
      for (const PlacedTask& q : trace.placements) {
        if (q.start <= t.start && t.start < q.end) busy += q.cpus;
      }
      EXPECT_LE(busy, capacity);
    }

    // Dependencies respected; makespan >= lower bound.
    EXPECT_GE(trace.makespan, makespan_lower_bound(w.dag, capacity));
    for (const Stage& s : w.dag.stages()) {
      SimTime first = kTimeInfinity;
      SimTime parent_last{};
      for (const PlacedTask& t : trace.placements) {
        if (t.stage == s.id) first = std::min(first, t.start);
        for (const StageId parent : s.parents) {
          if (t.stage == parent) parent_last = std::max(parent_last, t.end);
        }
      }
      EXPECT_GE(first, parent_last);
    }

    // Fragmentation accounting is exact.
    CpuWork busy_time{};
    for (const PlacedTask& t : trace.placements) {
      busy_time += t.cpus * (t.end - t.start);
    }
    EXPECT_EQ(trace.idle_cpu_time,
              capacity * trace.makespan - busy_time);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceInvariants,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- cache-policy invariants under random reference patterns --------------------

class PolicyInvariants : public ::testing::TestWithParam<std::uint64_t> {};

/// Moves `oracle` to another random state: launches a random share of
/// the tasks not launched yet (`launched`, per stage and task), finishes
/// a few stages, draws every pv from {0..3} (so LRP priorities tie and
/// some are zero) and picks a random current stage.
void randomize_oracle(Rng& rng, const JobDag& dag, ReferenceOracle& oracle,
                      std::vector<std::vector<char>>& launched) {
  for (const Stage& s : dag.stages()) {
    auto& done = launched[static_cast<std::size_t>(s.id.value())];
    for (std::int32_t t = 0; t < s.num_tasks; ++t) {
      if (done[static_cast<std::size_t>(t)] == 0 && rng.bernoulli(0.3)) {
        oracle.on_task_launched(s.id, t);
        done[static_cast<std::size_t>(t)] = 1;
      }
    }
    if (rng.bernoulli(0.1)) oracle.mark_stage_finished(s.id);
  }
  std::vector<CpuWork> pv(dag.num_stages());
  for (CpuWork& v : pv) v = CpuWork{rng.uniform_range(0, 3)};
  oracle.set_priority_values(std::move(pv));
  oracle.set_current_stage(StageId(static_cast<std::int32_t>(
      rng.uniform_int(static_cast<std::int64_t>(dag.num_stages())))));
}

TEST_P(PolicyInvariants, RetentionAndPrefetchAgree) {
  Rng rng(GetParam());
  RandomDagParams p;
  p.max_stages = 10;
  const Workload w = make_random_dag(rng, p);
  ReferenceOracle oracle(w.dag);
  oracle.enable_peer_tracking();  // LERC's retention reads peer groups
  oracle.set_current_stage(w.dag.stages().front().id);
  std::vector<std::vector<char>> launched;
  for (const Stage& s : w.dag.stages()) {
    launched.emplace_back(static_cast<std::size_t>(s.num_tasks), 0);
  }

  constexpr CachePolicyKind kKinds[] = {
      CachePolicyKind::Lru, CachePolicyKind::Lrc, CachePolicyKind::Mrd,
      CachePolicyKind::Lrp, CachePolicyKind::Lerc};
  // Blocks given a prefetch priority, per kind, over every state.
  std::int64_t given[std::size(kKinds)] = {};
  // State 0 is the fresh oracle; each later one is a random perturbation.
  for (int state = 0; state < 4; ++state) {
    if (state > 0) randomize_oracle(rng, w.dag, oracle, launched);
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      const CachePolicyKind kind = kKinds[k];
      const auto policy = make_cache_policy(kind);
      EXPECT_EQ(policy->prefetches(),
                kind == CachePolicyKind::Mrd || kind == CachePolicyKind::Lrp)
          << cache_policy_name(kind);
      for (const Rdd& rdd : w.dag.rdds()) {
        for (std::int32_t part = 0; part < rdd.num_partitions; ++part) {
          const BlockId block{rdd.id, part};
          const auto prefetch = policy->prefetch_priority(block, oracle);
          if (!policy->prefetches()) {
            // The master keeps no candidate index for such a policy, so
            // it must never rank a block.
            EXPECT_FALSE(prefetch.has_value())
                << cache_policy_name(kind) << " state " << state;
            continue;
          }
          const double retention =
              policy->retention_priority(block, SimTime{0}, oracle);
          if (prefetch.has_value()) {
            ++given[k];
            // The two scales must agree, or prefetch admission thrashes.
            EXPECT_DOUBLE_EQ(*prefetch, retention)
                << cache_policy_name(kind);
            EXPECT_FALSE(policy->is_dead(block, oracle));
          } else {
            // Nothing prefetchable is worth keeping either (dead), except
            // LRP's zero-priority convention.
            EXPECT_TRUE(policy->is_dead(block, oracle) ||
                        oracle.reference_priority(block) <= CpuWork{0});
          }
        }
      }
    }
  }
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    if (make_cache_policy(kKinds[k])->prefetches()) {
      EXPECT_GT(given[k], 0)
          << cache_policy_name(kKinds[k]) << " never ranked a block";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyInvariants,
                         ::testing::Range<std::uint64_t>(50, 60));

// --- the prefetch choice against a brute-force reference ------------------------

/// The prefetch rule restated from public accessors alone: among blocks
/// of cacheable RDDs with no memory holder and a disk copy (HDFS or
/// produced) on `exec`'s node, of positive size at most `exec`'s free
/// bytes, the one with the highest prefetch priority; ties go to the
/// smaller BlockId.
std::optional<BlockId> reference_prefetch(const JobDag& dag,
                                          const Topology& topo,
                                          const BlockManagerMaster& master,
                                          const CachePolicy& policy,
                                          ExecutorId exec) {
  const NodeId node = topo.node_of(exec);
  const auto on_node = [node](const std::vector<NodeId>& nodes) {
    return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
  };
  const Bytes free = master.manager(exec).free_bytes();
  std::optional<BlockId> best;
  double best_priority = 0.0;
  for (const Rdd& rdd : dag.rdds()) {
    if (!rdd.cacheable) continue;
    for (std::int32_t part = 0; part < rdd.num_partitions; ++part) {
      const BlockId block{rdd.id, part};
      if (!master.memory_holders(block).empty()) continue;
      if (!on_node(master.hdfs_replicas(block)) &&
          !on_node(master.produced_disk_nodes(block))) {
        continue;
      }
      const Bytes bytes = master.block_bytes(block);
      if (bytes <= Bytes{0} || bytes > free) continue;
      const auto priority = policy.prefetch_priority(block, master.oracle());
      if (!priority) continue;
      if (!best || *priority > best_priority ||
          (*priority == best_priority && block < *best)) {
        best = block;
        best_priority = *priority;
      }
    }
  }
  return best;
}

/// Drives one master over `dag` through every placement hook, in a
/// seeded random order, and after each step compares prefetch_candidate
/// with the reference for every executor (dead ones included). Adds the
/// number of non-empty choices compared to `*chosen`.
void drive_and_compare(const JobDag& dag, CachePolicyKind kind,
                       std::uint64_t seed, std::int64_t* chosen) {
  Bytes largest{};
  for (const Rdd& rdd : dag.rdds()) {
    largest = std::max(largest, rdd.bytes_per_partition);
  }
  TopologySpec spec;
  spec.racks = 2;
  spec.nodes_per_rack = 2;
  spec.executors_per_node = 2;
  spec.cores_per_executor = Cpus{4};
  // About three of the largest blocks per executor: admissions get
  // refused and blocks evicted, so the candidate sets keep changing.
  spec.cache_bytes_per_executor = 3 * largest;
  const Topology topo(spec);
  Rng rng(seed);
  HdfsSpec hdfs_spec;
  hdfs_spec.replication = 2;
  const HdfsPlacement hdfs(dag, topo, hdfs_spec, rng);
  ReferenceOracle oracle(dag);
  const auto policy = make_cache_policy(kind);
  BlockManagerMaster master(topo, dag, hdfs, oracle, *policy);

  const auto check = [&](const char* step) {
    for (const Executor& e : topo.executors()) {
      const auto got = master.prefetch_candidate(e.id);
      const auto want = reference_prefetch(dag, topo, master, *policy, e.id);
      ASSERT_EQ(got.has_value(), want.has_value())
          << cache_policy_name(kind) << " after " << step << ", exec "
          << e.id;
      if (!got) continue;
      EXPECT_EQ(got->block, *want)
          << cache_policy_name(kind) << " after " << step;
      EXPECT_EQ(got->bytes, master.block_bytes(*want));
      EXPECT_EQ(got->from_disk, topo.node_of(e.id));
      ++*chosen;
    }
  };
  const auto num_execs = static_cast<std::int64_t>(topo.num_executors());
  std::vector<char> dead(topo.num_executors(), 0);
  std::int64_t num_dead = 0;
  const auto live_exec = [&] {
    for (;;) {
      const ExecutorId e(
          static_cast<std::int32_t>(rng.uniform_int(num_execs)));
      if (dead[static_cast<std::size_t>(e.value())] == 0) return e;
    }
  };

  SimTime now{};
  master.seed_initial_cache(now);
  check("seed_initial_cache");
  for (const StageId s : dag.topological_order()) {
    oracle.set_current_stage(s);
    std::vector<CpuWork> pv(dag.num_stages());
    for (CpuWork& v : pv) v = CpuWork{rng.uniform_range(0, 3)};
    oracle.set_priority_values(std::move(pv));
    const Stage& stage = dag.stage(s);
    for (std::int32_t t = 0; t < stage.num_tasks; ++t) {
      now += kSec;
      const ExecutorId e = live_exec();
      oracle.on_task_launched(s, t);
      // Memory reads touch; disk reads of cacheable blocks admit.
      for (const TaskInput& in : dag.task_inputs(s, t)) {
        if (!master.exists(in.block)) continue;
        master.on_block_read(in.block, e, master.lookup(in.block, e), now);
      }
      check("on_block_read");
      if (dag.rdd(stage.output).bytes_per_partition > Bytes{0}) {
        master.on_block_produced(BlockId{stage.output, t}, e, now);
        check("on_block_produced");
      }
      if (rng.bernoulli(0.2)) {
        const ExecutorId f = live_exec();
        if (const auto choice = master.prefetch_candidate(f)) {
          (void)master.finish_prefetch(choice->block, f, now);
          check("finish_prefetch");
        }
      }
      if (rng.bernoulli(0.1)) {
        const ExecutorId v = live_exec();
        const auto& entries = master.manager(v).entries();
        if (!entries.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(static_cast<std::int64_t>(entries.size())));
          const BlockId lost = entries[i].id;
          EXPECT_TRUE(master.drop_memory_block(lost, v));
          check("drop_memory_block");
        }
      }
    }
    oracle.mark_stage_finished(s);
    (void)master.proactive_sweep();
    check("proactive_sweep");
    if (rng.bernoulli(0.4)) {
      // A gray failure: suspicion, re-replication onto a healthy
      // executor, then either recovery or death.
      const ExecutorId x = live_exec();
      master.set_executor_suspect(x, true);
      check("set_executor_suspect");
      ExecutorId target = live_exec();
      while (target == x) target = live_exec();
      (void)master.rereplicate_suspect_blocks(target);
      check("rereplicate_suspect_blocks");
      master.set_executor_suspect(x, false);
      if (num_dead + 2 < num_execs && rng.bernoulli(0.5)) {
        (void)master.drop_executor(x);
        dead[static_cast<std::size_t>(x.value())] = 1;
        ++num_dead;
        check("drop_executor");
      }
    }
  }
}

class PrefetchReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefetchReference, ChoiceMatchesBruteForce) {
  Rng rng(GetParam());
  RandomDagParams p;
  p.max_stages = 10;
  p.max_tasks = 12;
  const Workload random = make_random_dag(rng, p);
  // Fig. 1 seeds memory with initially cached input blocks; random DAGs
  // start with every cacheable input on disk.
  const Workload fig1 = make_example_dag();
  for (const CachePolicyKind kind :
       {CachePolicyKind::Mrd, CachePolicyKind::Lrp}) {
    for (const Workload* w : {&fig1, &random}) {
      std::int64_t chosen = 0;
      drive_and_compare(w->dag, kind, GetParam(), &chosen);
      EXPECT_GT(chosen, 0) << cache_policy_name(kind) << " on " << w->name
                           << ": no choice was ever compared";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefetchReference,
                         ::testing::Range<std::uint64_t>(70, 76));

// --- block-level reference consumption ------------------------------------------

class OracleInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleInvariants, RefCountsNeverGoNegativeAndReachZero) {
  Rng rng(GetParam());
  RandomDagParams p;
  p.max_stages = 12;
  p.max_tasks = 8;
  const Workload w = make_random_dag(rng, p);
  ReferenceOracle oracle(w.dag);

  // Launch every task of every stage in topological order.
  for (const StageId sid : w.dag.topological_order()) {
    const Stage& s = w.dag.stage(sid);
    for (std::int32_t t = 0; t < s.num_tasks; ++t) {
      oracle.on_task_launched(sid, t);
    }
    oracle.mark_stage_finished(sid);
  }
  for (const Rdd& rdd : w.dag.rdds()) {
    for (std::int32_t part = 0; part < rdd.num_partitions; ++part) {
      const BlockId block{rdd.id, part};
      EXPECT_EQ(oracle.remaining_ref_count(block), 0);
      EXPECT_EQ(oracle.reference_priority(block), CpuWork{0});
      EXPECT_EQ(oracle.stage_distance(block), ReferenceOracle::kNeverUsed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleInvariants,
                         ::testing::Range<std::uint64_t>(200, 210));

}  // namespace
}  // namespace dagon
