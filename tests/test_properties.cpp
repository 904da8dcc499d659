// Property-based tests: sweep random DAGs (TEST_P over seeds) and assert
// the simulator's invariants hold under every scheduler/cache
// combination — resource conservation, dependency order, cache-stat
// consistency, and bit-exact determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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
/// with the reference for every executor (dead ones included). Blocks
/// also leave the candidate index and return through the oracle: a
/// lineage reopen of a finished stage's task, and a stage gated off and
/// on. Adds the number of non-empty choices compared to `*chosen`.
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
  std::vector<StageId> finished;
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
    finished.push_back(s);
    if (rng.bernoulli(0.5)) {
      // A lineage reopen: a finished stage's task runs again, so its
      // inputs are referenced until the rerun launches.
      const StageId r = finished[static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(finished.size())))];
      const auto t = static_cast<std::int32_t>(
          rng.uniform_int(dag.stage(r).num_tasks));
      oracle.restore_task_refs(r, t);
      check("restore_task_refs");
      oracle.on_task_launched(r, t);
      oracle.mark_stage_finished(r);
      check("relaunch");
    }
    if (rng.bernoulli(0.5)) {
      // A stage gated off and on, as a serving job's stages are until it
      // is submitted.
      const StageId g(static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::int64_t>(dag.num_stages()))));
      oracle.set_stage_active(g, false);
      check("set_stage_active(false)");
      oracle.set_stage_active(g, true);
      check("set_stage_active(true)");
    }
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

// --- delay policies: pending-task index and refusal records -----------------

/// A JobState and a BlockManagerMaster driven the way SimDriver drives
/// them, plus a long-lived delay policy of each kind. check() asks every
/// schedulable stage of both long-lived policies, whose pending-task
/// indices and refusal records span the whole run, and of policies built
/// afresh; both must return the same Assignment, or both nullopt. It
/// also holds a long-lived PendingTaskIndex to a walk of the pending
/// tasks: every stage's best task on every executor, and its ladder;
/// its candidate masks to every executor either policy would accept,
/// for every ladder position; and JobState's fit bitmaps to a recount.
class PolicyHarness {
 public:
  PolicyHarness(const JobDag& dag, const TopologySpec& topo_spec,
                const HdfsSpec& hdfs_spec, std::uint64_t seed,
                const LocalityWaits& waits)
      : dag_(&dag),
        profile_(exact_profile(dag)),
        topo_(topo_spec),
        rng_(seed),
        hdfs_(dag, topo_, hdfs_spec, rng_),
        oracle_(dag),
        cache_policy_(make_cache_policy(CachePolicyKind::Lru)),
        master_(topo_, dag, hdfs_, oracle_, *cache_policy_),
        state_(dag, topo_, profile_),
        cost_(CostModelSpec{}),
        waits_(waits),
        native_(waits, cost_),
        aware_(waits, cost_),
        reserved_(topo_.num_executors()) {
    master_.seed_initial_cache(now_);
  }

  Rng& rng() { return rng_; }
  const Topology& topo() const { return topo_; }
  const JobState& state() const { return state_; }
  const BlockManagerMaster& master() const { return master_; }
  SimTime now() const { return now_; }
  std::int64_t launches_compared() const { return launches_; }
  std::int64_t refusals_compared() const { return refusals_; }

  void check(const char* step) {
    check_fit_bitmaps(step);
    for (const StageId s : state_.schedulable_stages()) {
      check_candidates(step, s);
    }
    for (const StageRuntime& rt : state_.stages()) {
      for (const Executor& e : topo_.executors()) {
        EXPECT_EQ(index_.best(state_, master_, rt.id, e.id),
                  best_task_by_scan(*dag_, master_, topo_, rt, e.id))
            << "index, stage " << rt.id << " exec " << e.id << " after "
            << step;
      }
      const std::span<const Locality> levels =
          index_.levels(state_, master_, rt.id);
      EXPECT_EQ(std::vector<Locality>(levels.begin(), levels.end()),
                valid_locality_levels(*dag_, master_, topo_, rt))
          << "index, stage " << rt.id << " after " << step;
    }
    for (const StageId s : state_.schedulable_stages()) {
      compare(native_.find(state_, master_, s, now_),
              NativeDelayPolicy(waits_, cost_).find(state_, master_, s, now_),
              step, s, native_.name());
      compare(aware_.find(state_, master_, s, now_),
              SensitivityAwareDelayPolicy(waits_, cost_)
                  .find(state_, master_, s, now_),
              step, s, aware_.name());
    }
  }

  void advance(SimTime by) { now_ += by; }

  /// Launches `index` of `s` on `exec` the way SimDriver::launch_task
  /// does: read the inputs (a disk read of a cacheable block admits it),
  /// then charge the stage and the executor.
  void launch(StageId s, std::int32_t index, ExecutorId exec) {
    const Locality l = task_locality_on(*dag_, master_, topo_, s, index, exec);
    for (const TaskInput& in : dag_->task_inputs(s, index)) {
      if (!master_.exists(in.block)) continue;
      master_.on_block_read(in.block, exec, master_.lookup(in.block, exec),
                            now_);
    }
    state_.mark_launched(s, index, exec, now_);
    native_.on_launch(state_, master_, s, l, now_);
    oracle_.on_task_launched(s, index);
    running_.push_back({s, index, exec, l, now_});
  }

  /// Launches what the long-lived Algorithm 2 policy picks for a random
  /// schedulable stage, or a random pending task on a random executor
  /// that fits it (as speculation and escalation may place a copy).
  void launch_some() {
    const auto stages = state_.schedulable_stages();
    if (stages.empty()) return;
    const StageId s = pick(stages);
    if (rng_.bernoulli(0.5)) {
      if (const auto a = aware_.find(state_, master_, s, now_)) {
        launch(s, a->task_index, a->exec);
      }
      return;
    }
    const StageRuntime& rt = state_.stage(s);
    auto skip = rng_.uniform_int(static_cast<std::int64_t>(rt.pending.size()));
    std::int32_t index = -1;
    for (const std::int32_t i : rt.pending) {
      if (skip-- == 0) index = i;
    }
    if (const auto e = fitting_executor(dag_->stage(s).task_cpus)) {
      launch(s, index, *e);
    }
  }

  /// Finishes the running attempt of `index`, as
  /// SimDriver::handle_task_finish; a stage's last finish promotes its
  /// children.
  void finish(StageId s, std::int32_t index) {
    const Attempt a = take_attempt(s, index);
    const bool stage_done =
        state_.mark_finished(a.stage, a.index, a.exec, a.locality,
                             a.launched, now_);
    const Rdd& out = dag_->rdd(dag_->stage(a.stage).output);
    if (out.bytes_per_partition > Bytes{0}) {
      master_.on_block_produced(BlockId{out.id, a.index}, a.exec, now_);
    }
    if (stage_done) {
      oracle_.mark_stage_finished(a.stage);
      state_.refresh_ready(now_);
    }
  }
  void finish_some() {
    if (running_.empty()) return;
    const Attempt a = pick(running_);
    finish(a.stage, a.index);
  }

  /// Transient failure of the running attempt of `index`, as
  /// SimDriver::fail_attempt: its cores return, and the index waits for
  /// a retry.
  void fail(StageId s, std::int32_t index) {
    const Attempt a = take_attempt(s, index);
    state_.add_free_cores(a.exec, dag_->stage(s).task_cpus);
    --state_.stage(s).running;
    state_.mark_failed(s, index);
    failed_.push_back(a);
  }
  void fail_some() {
    if (running_.empty()) return;
    const Attempt a = pick(running_);
    fail(a.stage, a.index);
  }

  /// A speculative copy changes `running` and takes cores, but not the
  /// index's state; cancelling it gives both back.
  void speculate() {
    if (running_.empty()) return;
    const StageId s = pick(running_).stage;
    const Cpus demand = dag_->stage(s).task_cpus;
    if (const auto e = fitting_executor(demand)) {
      state_.add_free_cores(*e, -demand);
      ++state_.stage(s).running;
      copies_.push_back({s, -1, *e, Locality::Any, now_});
    }
  }
  void cancel_copy() {
    if (copies_.empty()) return;
    release_copy(take(copies_));
  }

  /// Another tenant takes (at most `cores` of the free) cores, or
  /// returns some.
  void reserve(ExecutorId e, Cpus cores) {
    const Cpus taken = std::min(state_.executor(e).free_cores(), cores);
    state_.add_free_cores(e, -taken);
    reserved_[static_cast<std::size_t>(e.value())] += taken;
  }
  void unreserve(ExecutorId e, Cpus cores) {
    Cpus& held = reserved_[static_cast<std::size_t>(e.value())];
    const Cpus give = std::min(held, cores);
    state_.add_free_cores(e, give);
    held -= give;
  }

  void drop_memory_block() {
    const ExecutorId e = random_exec();
    const auto& entries = master_.manager(e).entries();
    if (entries.empty()) return;
    const BlockId block = entries[static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(entries.size())))].id;
    (void)master_.drop_memory_block(block, e);
  }

  /// Gray failure, as SimDriver::enter_suspicion: suspect, then
  /// re-replicate onto the first healthy executor.
  void suspect(ExecutorId x) {
    const ExecutorRuntime& e = state_.executor(x);
    if (!e.alive() || e.suspect()) return;
    set_health(x, ExecutorHealth::Suspect);
    master_.set_executor_suspect(x, true);
    for (const ExecutorRuntime& other : state_.executors()) {
      if (other.alive() && !other.suspect()) {
        (void)master_.rereplicate_suspect_blocks(other.id);
        break;
      }
    }
  }
  void readmit(ExecutorId x) {
    if (!state_.executor(x).suspect()) return;
    set_health(x, ExecutorHealth::Healthy);
    master_.set_executor_suspect(x, false);
  }

  void blacklist(ExecutorId x) {
    ExecutorRuntime& e = state_.executor(x);
    if (e.alive()) e.blacklisted_until = now_ + 2 * kSec;
  }
  void expire_blacklists() {
    for (ExecutorRuntime& e : state_.executors()) {
      if (e.blacklisted_until <= now_) e.blacklisted_until = SimTime{0};
    }
  }

  /// Crash, as SimDriver::handle_executor_crash: fail its attempts (their
  /// indices wait for a retry), drop its blocks, reopen the producers of
  /// blocks whose last copy died. Keeps two executors alive.
  void crash(ExecutorId x) {
    if (!state_.executor(x).alive()) return;
    std::int64_t alive = 0;
    for (const ExecutorRuntime& e : state_.executors()) alive += e.alive();
    if (alive <= 2) return;
    readmit(x);
    std::vector<Attempt> victims;
    for (const Attempt& a : running_) {
      if (a.exec == x) victims.push_back(a);
    }
    for (const Attempt& a : victims) fail(a.stage, a.index);
    for (std::size_t i = 0; i < copies_.size();) {
      if (copies_[i].exec != x) {
        ++i;
        continue;
      }
      release_copy(copies_[i]);
      copies_.erase(copies_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    set_health(x, ExecutorHealth::Dead);
    state_.set_free_cores(x, Cpus{0});
    reserved_[static_cast<std::size_t>(x.value())] = Cpus{0};
    for (const BlockId& block : master_.drop_executor(x).lost) {
      const auto producer = dag_->producer_of(block.rdd);
      if (producer && state_.stage(*producer).status_of(block.partition) ==
                          TaskStatus::Finished) {
        state_.reopen_task(*producer, block.partition);
      }
    }
    state_.demote_unready();
  }

  /// Re-queues a failed index, as SimDriver::handle_task_retry.
  void retry() {
    if (failed_.empty()) return;
    const Attempt a = take(failed_);
    state_.readd_pending(a.stage, a.index);
    state_.demote_unready();
  }

  /// Lineage reopen of a finished task whose output exists nowhere (a
  /// lost block, or an empty output never materialized), as
  /// SimDriver::recover_block does once the block is lost.
  void reopen(StageId s, std::int32_t index) {
    state_.reopen_task(s, index);
    state_.demote_unready();
  }
  void reopen_some() {
    std::vector<std::pair<StageId, std::int32_t>> done;
    for (const StageRuntime& rt : state_.stages()) {
      if (!rt.ready) continue;
      const RddId out = dag_->stage(rt.id).output;
      for (std::int32_t i = 0; i < rt.num_tasks; ++i) {
        if (rt.status_of(i) == TaskStatus::Finished &&
            !master_.exists(BlockId{out, i})) {
          done.emplace_back(rt.id, i);
        }
      }
    }
    if (done.empty()) return;
    const auto [s, index] = pick(done);
    reopen(s, index);
  }

  ExecutorId random_exec() {
    return ExecutorId(static_cast<std::int32_t>(
        rng_.uniform_int(static_cast<std::int64_t>(topo_.num_executors()))));
  }

 private:
  struct Attempt {
    StageId stage;
    std::int32_t index = -1;
    ExecutorId exec;
    Locality locality = Locality::Any;
    SimTime launched{};
  };

  void set_health(ExecutorId x, ExecutorHealth to) {
    state_.set_health(x, to);
  }

  Attempt take_attempt(StageId s, std::int32_t index) {
    const auto it = std::find_if(
        running_.begin(), running_.end(),
        [&](const Attempt& a) { return a.stage == s && a.index == index; });
    if (it == running_.end()) throw std::logic_error("no such attempt");
    const Attempt a = *it;
    running_.erase(it);
    return a;
  }

  void release_copy(const Attempt& copy) {
    state_.add_free_cores(copy.exec, dag_->stage(copy.stage).task_cpus);
    --state_.stage(copy.stage).running;
  }

  std::optional<ExecutorId> fitting_executor(Cpus demand) {
    std::vector<ExecutorId> fits;
    for (const ExecutorRuntime& e : state_.executors()) {
      if (e.schedulable(now_) && e.free_cores() >= demand) fits.push_back(e.id);
    }
    if (fits.empty()) return std::nullopt;
    return pick(fits);
  }

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(
        rng_.uniform_int(static_cast<std::int64_t>(v.size())))];
  }
  template <typename T>
  T take(std::vector<T>& v) {
    const auto i = static_cast<std::size_t>(
        rng_.uniform_int(static_cast<std::int64_t>(v.size())));
    const T out = v[i];
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }

  /// A walk at demand d visits exactly the executors with d free cores.
  void check_fit_bitmaps(const char* step) {
    for (std::int32_t d = 1; d <= state_.fit_levels(); ++d) {
      std::vector<ExecutorId> walked;
      state_.for_each_free_executor(Cpus{d}, {}, [&](ExecutorId e) {
        walked.push_back(e);
        return false;
      });
      std::sort(walked.begin(), walked.end());
      std::vector<ExecutorId> want;
      for (const ExecutorRuntime& e : state_.executors()) {
        if (e.free_cores() >= Cpus{d}) want.push_back(e.id);
      }
      EXPECT_EQ(walked, want) << "fit bitmap " << d << " after " << step;
    }
  }

  /// For every level the ladder may allow, the accept sets of stock
  /// delay scheduling (at least `allowed`) and of Algorithm 2 (also any
  /// level whose estimate beats ect): the index's mask holds every
  /// executor whose best task (walked) is at an accepted level.
  void check_candidates(const char* step, StageId s) {
    const TaskTimeEstimator estimator(state_, cost_);
    const SimTime ect = scale_time(estimator.earliest_completion(s), 1.1);
    for (const Locality allowed : kAllLocalities) {
      LocalitySet native;
      LocalitySet aware;
      for (const Locality l : kAllLocalities) {
        if (at_least(l, allowed)) {
          native.insert(l);
          aware.insert(l);
        } else if (estimator.estimate(s, l) < ect) {
          aware.insert(l);
        }
      }
      for (const LocalitySet accept : {native, aware}) {
        const std::span<const std::uint64_t> mask =
            index_.candidates(state_, master_, s, accept);
        if (mask.empty()) continue;  // every executor
        for (const Executor& e : topo_.executors()) {
          const auto pick =
              best_task_by_scan(*dag_, master_, topo_, state_.stage(s), e.id);
          if (!pick || !accept.contains(pick->locality)) continue;
          const auto i = static_cast<std::size_t>(e.id.value());
          EXPECT_NE(mask[i >> 6] & (std::uint64_t{1} << (i & 63)), 0u)
              << "mask of stage " << s << " lacks exec " << e.id << " ("
              << *pick << ", allowed " << locality_name(allowed)
              << ") after " << step;
        }
      }
    }
  }

  void compare(const std::optional<Assignment>& got,
               const std::optional<Assignment>& want, const char* step,
               StageId s, const char* policy) {
    ASSERT_EQ(got.has_value(), want.has_value())
        << policy << " stage " << s << " after " << step << " at "
        << format_duration(now_);
    if (!got) {
      ++refusals_;
      return;
    }
    ++launches_;
    EXPECT_EQ(got->task_index, want->task_index) << policy << " " << step;
    EXPECT_EQ(got->exec, want->exec) << policy << " " << step;
    EXPECT_EQ(got->locality, want->locality) << policy << " " << step;
  }

  const JobDag* dag_;
  JobProfile profile_;
  Topology topo_;
  Rng rng_;
  HdfsPlacement hdfs_;
  ReferenceOracle oracle_;
  std::unique_ptr<CachePolicy> cache_policy_;
  BlockManagerMaster master_;
  JobState state_;
  CostModel cost_;
  LocalityWaits waits_;
  NativeDelayPolicy native_;
  SensitivityAwareDelayPolicy aware_;
  PendingTaskIndex index_;
  std::vector<Cpus> reserved_;
  std::vector<Attempt> running_;
  std::vector<Attempt> copies_;
  std::vector<Attempt> failed_;
  SimTime now_{};
  std::int64_t launches_ = 0;
  std::int64_t refusals_ = 0;
};

class PolicyDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyDifferential, LongLivedPoliciesMatchFreshOnes) {
  Rng dag_rng(GetParam());
  RandomDagParams p;
  p.max_stages = 10;
  p.max_tasks = 16;
  p.max_cpus = Cpus{2};
  p.shuffle_prob = 0.3;
  const Workload w = make_random_dag(dag_rng, p);
  Bytes largest{};
  for (const Rdd& rdd : w.dag.rdds()) {
    largest = std::max(largest, rdd.bytes_per_partition);
  }
  TopologySpec spec;
  spec.racks = 2;
  spec.nodes_per_rack = 2;
  spec.executors_per_node = 2;
  spec.cores_per_executor = Cpus{2};
  // Room for about three of the largest blocks: admissions evict.
  spec.cache_bytes_per_executor = 3 * largest;
  // Inputs on a few hot nodes: executors elsewhere wait on the ladder.
  HdfsSpec hdfs_spec;
  hdfs_spec.replication = 1;
  hdfs_spec.skew = 0.8;
  hdfs_spec.hot_nodes = 2;
  PolicyHarness h(w.dag, spec, hdfs_spec, GetParam(),
                  LocalityWaits::uniform(2 * kSec));
  Rng& rng = h.rng();
  h.check("start");
  for (int step = 0; step < 1500 && !h.state().all_finished(); ++step) {
    // Most steps keep the instant: records are only ever reused within
    // one.
    if (rng.bernoulli(0.15)) {
      h.advance(rng.uniform_range(0, 6) * 250 * kMsec);
      h.expire_blacklists();
      h.check("advance");
    }
    const std::int64_t op = rng.uniform_int(100);
    const char* step_name = "";
    if (op < 30) {
      h.launch_some();
      step_name = "launch";
    } else if (op < 50) {
      h.finish_some();
      step_name = "finish";
    } else if (op < 55) {
      h.fail_some();
      step_name = "transient failure";
    } else if (op < 60) {
      h.speculate();
      step_name = "speculate";
    } else if (op < 65) {
      h.cancel_copy();
      step_name = "cancel speculative copy";
    } else if (op < 70) {
      h.reserve(h.random_exec(), Cpus{2});
      step_name = "free cores fall";
    } else if (op < 75) {
      h.unreserve(h.random_exec(), Cpus{2});
      step_name = "free cores rise";
    } else if (op < 79) {
      h.drop_memory_block();
      step_name = "drop_memory_block";
    } else if (op < 84) {
      h.suspect(h.random_exec());
      step_name = "suspect";
    } else if (op < 89) {
      for (const ExecutorRuntime& e : h.state().executors()) {
        h.readmit(e.id);
      }
      step_name = "readmit";
    } else if (op < 91) {
      h.blacklist(h.random_exec());
      step_name = "blacklist";
    } else if (op < 93) {
      h.crash(h.random_exec());
      step_name = "crash";
    } else if (op < 97) {
      h.retry();
      step_name = "readd_pending";
    } else {
      h.reopen_some();
      step_name = "reopen_task";
    }
    h.check(step_name);
    if (HasFatalFailure()) return;
  }
  // Some shapes never refuse (a shuffle-only DAG has no preferences);
  // the suite as a whole compares thousands of refusals.
  EXPECT_GT(h.launches_compared(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyDifferential,
                         ::testing::Range<std::uint64_t>(300, 324));

/// Fixed shapes, each reached at one instant: one narrow stage over
/// four single-replica HDFS blocks, on two single-executor nodes in two
/// racks. Two blocks sit on `near_`'s node; `far_` lends its cores away,
/// so once `near_` holds only Any-level tasks (the ladder allows Node)
/// the stage is refused, and one more change makes it launchable.
class PolicyDifferentialCase : public ::testing::Test {
 protected:
  PolicyDifferentialCase()
      : dag_(scan_dag()),
        h_(dag_, topology(), HdfsSpec{.replication = 1}, 7,
           LocalityWaits::uniform(3 * kSec)) {
    for (std::int32_t i = 0; i < 4; ++i) {
      if (h_.master().hdfs_replicas(BlockId{RddId(0), i}).at(0) ==
          h_.topo().node_of(near_)) {
        local_.push_back(i);
      }
    }
    h_.reserve(far_, Cpus{4});
  }

  static JobDag scan_dag() {
    JobDagBuilder b("scan");
    const RddId in = b.input_rdd("in", 4, kMiB);
    b.add_stage({.name = "scan",
                 .inputs = {{in, DepKind::Narrow}},
                 .num_tasks = 4,
                 .task_cpus = Cpus{1},
                 .task_duration = kSec,
                 .output_bytes_per_partition = Bytes{0}});
    return b.build();
  }
  static TopologySpec topology() {
    TopologySpec spec;
    spec.racks = 2;
    spec.nodes_per_rack = 1;
    spec.executors_per_node = 1;
    spec.cores_per_executor = Cpus{4};
    return spec;
  }

  /// check(step) must compare a refusal, then `change` and check(after)
  /// a launch.
  template <typename Change>
  void refused_then_launchable(const char* step, Change change,
                               const char* after) {
    const std::int64_t refusals = h_.refusals_compared();
    h_.check(step);
    ASSERT_GT(h_.refusals_compared(), refusals) << step;
    change();
    const std::int64_t launches = h_.launches_compared();
    h_.check(after);
    EXPECT_GT(h_.launches_compared(), launches) << after;
  }

  const StageId scan_{0};
  const ExecutorId near_{0};
  const ExecutorId far_{1};
  JobDag dag_;
  PolicyHarness h_;
  std::vector<std::int32_t> local_;
};

// A suspect whose memory store is empty is re-admitted at the instant
// the stage was refused: the journal gains nothing, yet the executor can
// now take its node-local tasks.
TEST_F(PolicyDifferentialCase, ReadmittedSuspectWithEmptyStore) {
  h_.suspect(near_);
  ASSERT_TRUE(h_.state().executor(near_).suspect());
  ASSERT_EQ(h_.master().manager(near_).num_blocks(), 0);
  refused_then_launchable("suspect", [&] { h_.readmit(near_); }, "readmit");
}

// A failed task re-queued at the instant the stage was refused: only the
// stage's pending set changed.
TEST_F(PolicyDifferentialCase, RequeuedTaskIsAskedAgain) {
  ASSERT_EQ(local_.size(), 2u);
  h_.launch(scan_, local_[0], near_);
  h_.launch(scan_, local_[1], near_);
  h_.fail(scan_, local_[0]);
  refused_then_launchable("transient failure", [&] { h_.retry(); },
                          "readd_pending");
}

// A finished task reopened by lineage recovery at the instant the stage
// was refused: only the stage's pending set changed.
TEST_F(PolicyDifferentialCase, ReopenedTaskIsAskedAgain) {
  ASSERT_EQ(local_.size(), 2u);
  h_.launch(scan_, local_[0], near_);
  h_.finish(scan_, local_[0]);
  h_.launch(scan_, local_[1], near_);
  refused_then_launchable(
      "finish", [&] { h_.reopen(scan_, local_[0]); }, "reopen_task");
}

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

// --- shuffle accounting by source against per-block references ---------------

/// A random DAG with every shape the shuffle accounting tells apart:
/// cacheable and non-cacheable inputs, some with initially cached
/// partitions; narrow and shuffle edges, several per stage; cacheable and
/// non-cacheable outputs; and zero-byte outputs, which no task reads.
/// With `zero_byte_parent`, the first stage's output has zero bytes and
/// every later stage reads it.
JobDag random_read_dag(Rng& rng, bool zero_byte_parent = false) {
  JobDagBuilder b("reads");
  struct Made {
    RddId rdd;
    std::int32_t parts;
  };
  std::vector<Made> made;
  const auto parts = [&] {
    return static_cast<std::int32_t>(rng.uniform_range(1, 5));
  };
  const auto bytes = [&] { return rng.uniform_range(1, 4) * kMiB; };
  constexpr std::size_t kInputs = 3;
  for (std::size_t i = 0; i < kInputs; ++i) {
    const std::int32_t n = parts();
    const RddId in =
        b.input_rdd("in" + std::to_string(i), n, bytes(),
                    static_cast<std::int32_t>(rng.uniform_range(0, n)));
    b.set_rdd_cacheable(in, rng.bernoulli(0.5));
    made.push_back({in, n});
  }
  const std::int64_t num_stages = rng.uniform_range(3, 7);
  for (std::int64_t s = 0; s < num_stages; ++s) {
    const std::int32_t tasks = parts();
    std::vector<RddRef> inputs;
    for (std::size_t i = 0; i < made.size(); ++i) {
      const Made& m = made[i];
      // made[kInputs] is the first stage's output.
      const bool forced = zero_byte_parent && i == kInputs;
      if (!forced && !rng.bernoulli(0.4)) continue;
      const bool narrow = m.parts == tasks && rng.bernoulli(0.5);
      inputs.push_back({m.rdd, narrow ? DepKind::Narrow : DepKind::Shuffle});
    }
    const StageId id = b.add_stage(
        {.name = "s" + std::to_string(s),
         .inputs = std::move(inputs),
         .num_tasks = tasks,
         .task_cpus = Cpus{1},
         .task_duration = kSec,
         .output_bytes_per_partition =
             rng.bernoulli(0.2) || (zero_byte_parent && s == 0) ? Bytes{0}
                                                                : bytes(),
         .cache_output = rng.bernoulli(0.5)});
    made.push_back({b.output_of(id), tasks});
  }
  return b.build();
}

/// A launch's input reads restated block by block from public accessors:
/// every read of task_inputs costed at its lookup() source, and, whenever
/// `plan` is set, stalled until the heal of any partition its source
/// sits across. Throws InvariantError, as lookup() does, for a missing
/// block.
InputReads reference_reads(const JobDag& dag, const Topology& topo,
                           const BlockManagerMaster& master,
                           const FaultPlan* plan, StageId s,
                           std::int32_t task, ExecutorId reader,
                           SimTime now) {
  InputReads want;
  const RackId rack = topo.rack_of(topo.node_of(reader));
  for (const TaskInput& in : dag.task_inputs(s, task)) {
    const auto how = master.lookup(in.block, reader);
    want.bytes_by_source[static_cast<std::size_t>(how.source)] += in.bytes;
    if (!dag.rdd(in.block.rdd).is_input &&
        how.source != BlockSource::LocalMemory) {
      want.serde_bytes += in.bytes;
    }
    if (plan == nullptr) continue;
    const NodeId from = is_memory_source(how.source) ? topo.node_of(how.holder)
                                                     : how.disk_node;
    const SimTime heal =
        plan->cross_partition_heal(rack, topo.rack_of(from), now);
    if (heal > now) {
      want.partition_stall = std::max(want.partition_stall, heal - now);
    }
  }
  return want;
}

/// How often each path was compared, so a run shows it reached them all.
struct ReadCoverage {
  std::int64_t aggregated = 0;  // shuffle parents read from the counts
  std::int64_t in_memory = 0;   // non-cacheable shuffle parents in memory
  std::int64_t stalled = 0;     // reads stalled behind a partition
  std::int64_t missing = 0;     // reads refused for a missing block
};

/// Compares read_inputs with the reference for every (stage, task,
/// executor), with the failure detector off and on.
void compare_reads(const JobDag& dag, const Topology& topo,
                   const BlockManagerMaster& master, const FaultPlan& plan,
                   SimTime now, const char* step, ReadCoverage* seen) {
  for (const Stage& stage : dag.stages()) {
    for (std::int32_t t = 0; t < stage.num_tasks; ++t) {
      const std::vector<TaskInput> inputs = dag.task_inputs(stage.id, t);
      const bool all_exist =
          std::all_of(inputs.begin(), inputs.end(), [&](const TaskInput& in) {
            return master.exists(in.block);
          });
      for (const Executor& e : topo.executors()) {
        const auto where = [&] {
          return ::testing::Message()
                 << "after " << step << ": stage " << stage.id << " task "
                 << t << " on exec " << e.id;
        };
        // Reads with a side effect (a cacheable block, or one served from
        // memory) must reach on_block, in task_inputs order.
        const auto side_effect = [&](const BlockId& block) {
          return dag.rdd(block.rdd).cacheable ||
                 is_memory_source(master.lookup(block, e.id).source);
        };
        for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr),
                                   &plan}) {
          std::vector<BlockId> walked;
          const auto read = [&] {
            return read_inputs(dag, topo, master, p, stage.id, t, e.id, now,
                               [&](const TaskInput& in,
                                   const BlockManagerMaster::Lookup&) {
                                 walked.push_back(in.block);
                               });
          };
          if (!all_exist) {
            EXPECT_THROW((void)read(), InvariantError) << where();
            ++seen->missing;
            continue;
          }
          const InputReads got = read();
          const InputReads want =
              reference_reads(dag, topo, master, p, stage.id, t, e.id, now);
          for (std::size_t src = 0; src < want.bytes_by_source.size();
               ++src) {
            EXPECT_EQ(got.bytes_by_source[src], want.bytes_by_source[src])
                << where() << ", source "
                << block_source_name(static_cast<BlockSource>(src));
          }
          EXPECT_EQ(got.serde_bytes, want.serde_bytes) << where();
          EXPECT_EQ(got.partition_stall, want.partition_stall) << where();
          if (want.partition_stall > SimTime{0}) ++seen->stalled;
          std::vector<BlockId> must;
          for (const TaskInput& in : inputs) {
            if (side_effect(in.block)) must.push_back(in.block);
          }
          walked.erase(std::remove_if(walked.begin(), walked.end(),
                                      [&](const BlockId& block) {
                                        return !side_effect(block);
                                      }),
                       walked.end());
          EXPECT_EQ(walked, must) << where();
        }
        for (const RddRef& ref : stage.inputs) {
          const Rdd& parent = dag.rdd(ref.rdd);
          if (!all_exist || ref.kind != DepKind::Shuffle || parent.cacheable ||
              parent.bytes_per_partition <= Bytes{0}) {
            continue;
          }
          if (master.shuffle_disk_split(ref.rdd, e.id)) {
            ++seen->aggregated;
          } else {
            ++seen->in_memory;
          }
        }
      }
    }
  }
}

/// Drives one master over `dag` through every placement change (produce,
/// memory admit and evict, suspicion flips with re-replication, crashes
/// and lineage recomputes), with two rack partitions scheduled, and
/// compares reads after each step.
void drive_reads(const JobDag& dag, std::uint64_t seed, ReadCoverage* seen) {
  Bytes largest{};
  for (const Rdd& rdd : dag.rdds()) {
    largest = std::max(largest, rdd.bytes_per_partition);
  }
  TopologySpec spec;
  spec.racks = 2;
  spec.nodes_per_rack = 2;
  spec.executors_per_node = 2;
  spec.cores_per_executor = Cpus{4};
  // A few blocks per executor: admissions get refused and blocks evicted.
  spec.cache_bytes_per_executor = 3 * largest;
  const Topology topo(spec);
  Rng rng(seed);
  HdfsSpec hdfs_spec;
  hdfs_spec.replication = static_cast<std::int32_t>(rng.uniform_range(1, 3));
  const HdfsPlacement hdfs(dag, topo, hdfs_spec, rng);
  FaultConfig faults;
  faults.partitions.push_back(PartitionSpec{3 * kSec, 9 * kSec, 0});
  faults.partitions.push_back(PartitionSpec{14 * kSec, 30 * kSec, 1});
  const FaultPlan plan(faults, topo.num_executors(), topo.num_racks(), seed);
  ReferenceOracle oracle(dag);
  const CachePolicyKind kinds[] = {CachePolicyKind::Lru, CachePolicyKind::Lrc,
                                   CachePolicyKind::Mrd, CachePolicyKind::Lrp};
  const auto policy = make_cache_policy(kinds[seed % 4]);
  BlockManagerMaster master(topo, dag, hdfs, oracle, *policy);

  SimTime now{};
  const auto check = [&](const char* step) {
    compare_reads(dag, topo, master, plan, now, step, seen);
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

  master.seed_initial_cache(now);
  check("seed_initial_cache");
  for (const StageId s : dag.topological_order()) {
    oracle.set_current_stage(s);
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
        const ExecutorId v = live_exec();
        const auto& entries = master.manager(v).entries();
        if (!entries.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(static_cast<std::int64_t>(entries.size())));
          EXPECT_TRUE(master.drop_memory_block(entries[i].id, v));
          check("drop_memory_block");
        }
      }
    }
    oracle.mark_stage_finished(s);
    (void)master.proactive_sweep();
    check("proactive_sweep");
    if (rng.bernoulli(0.6)) {
      const ExecutorId x = live_exec();
      master.set_executor_suspect(x, true);
      ExecutorId target = live_exec();
      while (target == x) target = live_exec();
      (void)master.rereplicate_suspect_blocks(target);
      check("rereplicate_suspect_blocks");
      master.set_executor_suspect(x, false);
      if (num_dead + 2 < num_execs && rng.bernoulli(0.5)) {
        const auto drop = master.drop_executor(x);
        dead[static_cast<std::size_t>(x.value())] = 1;
        ++num_dead;
        check("drop_executor");
        // Lineage recovery recomputes some of the lost blocks elsewhere.
        for (const BlockId& lost : drop.lost) {
          if (rng.bernoulli(0.5)) {
            master.on_block_produced(lost, live_exec(), now);
          }
        }
        check("lineage recompute");
      }
    }
  }
}

class ShuffleReadReference : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ShuffleReadReference, ReadsMatchPerBlockWalk) {
  ReadCoverage seen;
  for (std::uint64_t k = 0; k < 4; ++k) {
    Rng rng(GetParam() * 4 + k);
    const JobDag dag = random_read_dag(rng);
    drive_reads(dag, GetParam() * 4 + k, &seen);
  }
  EXPECT_GT(seen.aggregated, 0);
  EXPECT_GT(seen.in_memory, 0);
  EXPECT_GT(seen.stalled, 0);
  EXPECT_GT(seen.missing, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffleReadReference,
                         ::testing::Range<std::uint64_t>(300, 308));

/// The reference oracle restated per block, as it was before shuffle
/// edges shared a counter: one count per (block, reader stage), moved
/// block by block through task_inputs, with peer groups recomputed from
/// a residency set on every query.
class PerBlockRefs {
 public:
  explicit PerBlockRefs(const JobDag& dag)
      : dag_(&dag),
        finished_(dag.num_stages(), 0),
        active_(dag.num_stages(), 1),
        pv_(PriorityValues(dag).values()),
        counts_(static_cast<std::size_t>(dag.num_blocks())),
        resident_(static_cast<std::size_t>(dag.num_blocks()), 0) {
    for (const Stage& s : dag.stages()) {
      for (const RddRef& ref : s.inputs) {
        if (ref.kind == DepKind::Narrow) {
          for (std::int32_t t = 0; t < s.num_tasks; ++t) {
            at(BlockId{ref.rdd, t}).push_back({s.id, 1});
          }
        } else {
          for (std::int32_t p = 0; p < dag.rdd(ref.rdd).num_partitions; ++p) {
            at(BlockId{ref.rdd, p}).push_back({s.id, s.num_tasks});
          }
        }
      }
    }
  }

  void launch(StageId s, std::int32_t task) {
    for (const TaskInput& in : dag_->task_inputs(s, task)) {
      for (auto& [stage, count] : at(in.block)) {
        if (stage == s) {
          if (count > 0) --count;
          break;
        }
      }
    }
  }
  void restore(StageId s, std::int32_t task) {
    finished_[static_cast<std::size_t>(s.value())] = 0;
    for (const TaskInput& in : dag_->task_inputs(s, task)) {
      for (auto& [stage, count] : at(in.block)) {
        if (stage == s) {
          ++count;
          break;
        }
      }
    }
  }
  void finish(StageId s) { finished_[static_cast<std::size_t>(s.value())] = 1; }
  void set_active(StageId s, bool on) {
    active_[static_cast<std::size_t>(s.value())] = on ? 1 : 0;
  }
  void set_current(StageId s) { current_ = s.value(); }
  void set_pv(std::vector<CpuWork> pv) { pv_ = std::move(pv); }
  void set_resident(const BlockId& block, bool on) {
    resident_[ord(block)] = on ? 1 : 0;
  }

  [[nodiscard]] std::vector<StageId> readers(const BlockId& block) const {
    std::vector<StageId> out;
    for (const auto& [stage, count] : at(block)) {
      const auto i = static_cast<std::size_t>(stage.value());
      if (count > 0 && finished_[i] == 0 && active_[i] != 0) {
        out.push_back(stage);
      }
    }
    return out;
  }
  [[nodiscard]] int distance(const BlockId& block) const {
    int best = ReferenceOracle::kNeverUsed;
    for (const StageId s : readers(block)) {
      best = std::min(best, std::max(0, s.value() - current_));
    }
    return best;
  }
  [[nodiscard]] CpuWork priority(const BlockId& block) const {
    CpuWork best{};
    for (const StageId s : readers(block)) {
      best = std::max(best, pv_[static_cast<std::size_t>(s.value())]);
    }
    return best;
  }
  /// Live readers that read `block` through a narrow edge and whose
  /// task's other cacheable narrow inputs are all resident.
  [[nodiscard]] int effective(const BlockId& block) const {
    if (!dag_->rdd(block.rdd).cacheable) return 0;
    int count = 0;
    for (const StageId s : readers(block)) {
      const auto& inputs = dag_->stage(s).inputs;
      const bool narrow_reader =
          std::any_of(inputs.begin(), inputs.end(), [&](const RddRef& ref) {
            return ref.rdd == block.rdd && ref.kind == DepKind::Narrow;
          });
      if (!narrow_reader) continue;
      const bool complete =
          std::all_of(inputs.begin(), inputs.end(), [&](const RddRef& ref) {
            const BlockId peer{ref.rdd, block.partition};
            return ref.kind != DepKind::Narrow ||
                   !dag_->rdd(ref.rdd).cacheable || peer == block ||
                   resident_[ord(peer)] != 0;
          });
      if (complete) ++count;
    }
    return count;
  }

 private:
  [[nodiscard]] std::size_t ord(const BlockId& block) const {
    return static_cast<std::size_t>(dag_->block_ord(block));
  }
  std::vector<std::pair<StageId, std::int32_t>>& at(const BlockId& block) {
    return counts_[ord(block)];
  }
  [[nodiscard]] const std::vector<std::pair<StageId, std::int32_t>>& at(
      const BlockId& block) const {
    return counts_[ord(block)];
  }

  const JobDag* dag_;
  std::vector<char> finished_;
  std::vector<char> active_;
  std::vector<CpuWork> pv_;
  std::int32_t current_ = 0;
  std::vector<std::vector<std::pair<StageId, std::int32_t>>> counts_;
  std::vector<char> resident_;
};

class SharedShuffleCounters
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedShuffleCounters, MatchPerBlockReference) {
  Rng rng(GetParam());
  const JobDag dag = random_read_dag(rng);
  ReferenceOracle oracle(dag);
  oracle.enable_peer_tracking();
  PerBlockRefs want(dag);
  const auto num_stages = static_cast<std::int64_t>(dag.num_stages());
  const auto random_stage = [&] {
    return StageId(static_cast<std::int32_t>(rng.uniform_int(num_stages)));
  };
  const auto random_task = [&](StageId s) {
    return static_cast<std::int32_t>(rng.uniform_int(dag.stage(s).num_tasks));
  };
  std::vector<BlockId> cacheable;
  for (const Rdd& rdd : dag.rdds()) {
    if (!rdd.cacheable) continue;
    for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
      cacheable.push_back(BlockId{rdd.id, p});
    }
  }
  std::int64_t live_shuffle_refs = 0;
  for (int step = 0; step < 400; ++step) {
    const StageId s = random_stage();
    const std::int64_t op = rng.uniform_int(8);
    if (op <= 2) {
      const std::int32_t t = random_task(s);
      oracle.on_task_launched(s, t);
      want.launch(s, t);
    } else if (op == 3) {
      const std::int32_t t = random_task(s);
      oracle.restore_task_refs(s, t);
      want.restore(s, t);
    } else if (op == 4) {
      oracle.mark_stage_finished(s);
      want.finish(s);
    } else if (op == 5) {
      const bool on = rng.bernoulli(0.7);
      oracle.set_stage_active(s, on);
      want.set_active(s, on);
    } else if (op == 6) {
      oracle.set_current_stage(s);
      want.set_current(s);
      std::vector<CpuWork> pv(dag.num_stages());
      for (CpuWork& v : pv) v = CpuWork{rng.uniform_range(0, 5)};
      oracle.set_priority_values(pv);
      want.set_pv(std::move(pv));
    } else if (!cacheable.empty()) {
      const BlockId block = cacheable[static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(cacheable.size())))];
      const bool on = rng.bernoulli(0.5);
      oracle.set_memory_resident(block, on);
      want.set_resident(block, on);
    }
    for (const Rdd& rdd : dag.rdds()) {
      for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
        const BlockId block{rdd.id, p};
        const auto readers = want.readers(block);
        ASSERT_EQ(oracle.live_readers(block), readers)
            << "step " << step << ", block " << block;
        EXPECT_EQ(oracle.remaining_ref_count(block),
                  static_cast<int>(readers.size()));
        EXPECT_EQ(oracle.stage_distance(block), want.distance(block));
        EXPECT_EQ(oracle.reference_priority(block), want.priority(block));
        EXPECT_EQ(oracle.effective_ref_count(block), want.effective(block))
            << "step " << step << ", block " << block;
        for (const StageId r : readers) {
          for (const RddRef& ref : dag.stage(r).inputs) {
            if (ref.rdd == rdd.id && ref.kind == DepKind::Shuffle) {
              ++live_shuffle_refs;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(live_shuffle_refs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedShuffleCounters,
                         ::testing::Range<std::uint64_t>(320, 332));

// --- live reference counts against a walk of each block's records -----------

class OracleLiveCounts : public ::testing::TestWithParam<std::uint64_t> {};

/// Drives an oracle built with some stages gated off through random
/// launches, finishes (of finished stages too), lineage reopens of
/// finished and unfinished stages and gate flips, over a DAG with a
/// zero-byte parent. After every step each block's O(1) count must equal
/// a walk of its records (live_readers) in every build type, and the
/// hook must have reported exactly the zero crossings.
TEST_P(OracleLiveCounts, MatchWalkAndHook) {
  Rng rng(GetParam());
  const JobDag dag = random_read_dag(rng, /*zero_byte_parent=*/true);
  const auto num_stages = static_cast<std::int64_t>(dag.num_stages());
  // The last stage reads the zero-byte parent, so gating it always gates
  // a record.
  std::vector<StageId> inactive;
  for (const Stage& s : dag.stages()) {
    if (rng.bernoulli(0.3) || s.id.value() + 1 == num_stages) {
      inactive.push_back(s.id);
    }
  }
  ReferenceOracle oracle(dag, inactive);
  std::vector<char> active(dag.num_stages(), 1);
  for (const StageId s : inactive) {
    active[static_cast<std::size_t>(s.value())] = 0;
  }
  std::vector<BlockId> blocks;
  for (const Rdd& rdd : dag.rdds()) {
    for (std::int32_t p = 0; p < rdd.num_partitions; ++p) {
      blocks.push_back(BlockId{rdd.id, p});
    }
  }
  const auto check = [&](int step) {
    for (const BlockId& block : blocks) {
      ASSERT_EQ(oracle.remaining_ref_count(block),
                static_cast<int>(oracle.live_readers(block).size()))
          << "step " << step << ", block " << block;
    }
  };
  check(-1);
  if (HasFatalFailure()) return;

  // What the hook last said per block (1 = referenced), and which steps
  // moved a count across zero.
  std::vector<char> referenced(blocks.size(), 0);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    referenced[i] = oracle.live_readers(blocks[i]).empty() ? 0 : 1;
  }
  enum Op { kLaunch, kRestore, kFinish, kGate };
  Op op = kLaunch;
  StageId stage;
  bool was_finished = false;
  std::int64_t shuffle_kills = 0, reopen_revivals = 0, gate_moves = 0,
               finish_kills = 0;
  oracle.set_reference_hook([&](const BlockId& block, bool now_referenced) {
    auto& seen =
        referenced[static_cast<std::size_t>(dag.block_ord(block))];
    EXPECT_NE(seen != 0, now_referenced) << "not a crossing: " << block;
    seen = now_referenced ? 1 : 0;
    const auto& inputs = dag.stage(stage).inputs;
    const bool shuffle_parent =
        std::any_of(inputs.begin(), inputs.end(), [&](const RddRef& ref) {
          return ref.rdd == block.rdd && ref.kind == DepKind::Shuffle;
        });
    if (op == kLaunch && shuffle_parent) ++shuffle_kills;
    if (op == kRestore && was_finished && now_referenced) ++reopen_revivals;
    if (op == kGate) ++gate_moves;
    if (op == kFinish) ++finish_kills;
  });

  for (int step = 0; step < 400; ++step) {
    stage = StageId(static_cast<std::int32_t>(rng.uniform_int(num_stages)));
    was_finished = oracle.stage_finished(stage);
    const auto task = static_cast<std::int32_t>(
        rng.uniform_int(dag.stage(stage).num_tasks));
    const std::int64_t pick = rng.uniform_int(6);
    op = pick <= 2 ? kLaunch : static_cast<Op>(pick - 2);
    switch (op) {
      case kLaunch: oracle.on_task_launched(stage, task); break;
      case kRestore: oracle.restore_task_refs(stage, task); break;
      case kFinish: oracle.mark_stage_finished(stage); break;
      case kGate: {
        auto& on = active[static_cast<std::size_t>(stage.value())];
        on = on != 0 ? 0 : 1;
        oracle.set_stage_active(stage, on != 0);
        break;
      }
    }
    check(step);
    if (HasFatalFailure()) return;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      ASSERT_EQ(referenced[i] != 0, oracle.remaining_ref_count(blocks[i]) > 0)
          << "step " << step << ": the hook missed block " << blocks[i];
    }
  }
  oracle.clear_reference_hook();
  EXPECT_GT(shuffle_kills, 0);
  EXPECT_GT(reopen_revivals, 0);
  EXPECT_GT(gate_moves, 0);
  EXPECT_GT(finish_kills, 0);
  EXPECT_THROW(
      {
        oracle.set_reference_hook([](const BlockId&, bool) {});
        oracle.set_reference_hook([](const BlockId&, bool) {});
      },
      InvariantError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleLiveCounts,
                         ::testing::Range<std::uint64_t>(340, 352));

// --- Eq. (6) bookkeeping -----------------------------------------------------

/// pv_s summed afresh over SuccessorSet_s (Eq. 6), from the w
/// column the test keeps itself.
CpuWork brute_pv(const JobDag& dag, const std::vector<CpuWork>& w,
                 StageId s) {
  CpuWork pv = w[static_cast<std::size_t>(s.value())];
  for (const StageId d : dag.successor_set(s)) {
    pv += w[static_cast<std::size_t>(d.value())];
  }
  return pv;
}

/// Table III's w rule restated: a launch takes one task's share, floored
/// at zero; a retry or reopen gives it back; a finish zeroes it.
struct WorkModel {
  std::vector<CpuWork> w;
  std::vector<CpuWork> share;
  std::int64_t floored = 0;

  void launch(StageId s) {
    CpuWork& v = w[static_cast<std::size_t>(s.value())];
    const CpuWork t = share[static_cast<std::size_t>(s.value())];
    if (v < t) ++floored;
    v = v < t ? CpuWork{0} : v - t;
  }
  void requeue(StageId s) {
    w[static_cast<std::size_t>(s.value())] +=
        share[static_cast<std::size_t>(s.value())];
  }
  void finish(StageId s) { w[static_cast<std::size_t>(s.value())] = {}; }
};

void expect_matches(const JobDag& dag, const PriorityValues& pv,
                    const WorkModel& want, int step) {
  for (const Stage& s : dag.stages()) {
    ASSERT_EQ(pv.work(s.id), want.w[static_cast<std::size_t>(s.id.value())])
        << "step " << step << ", stage " << s.id;
    ASSERT_EQ(pv.value(s.id), brute_pv(dag, want.w, s.id))
        << "step " << step << ", stage " << s.id;
    ASSERT_EQ(pv.values()[static_cast<std::size_t>(s.id.value())],
              pv.value(s.id));
  }
}

class PriorityValuesDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PriorityValuesDifferential, MatchBruteForceEq6) {
  Rng rng(GetParam());
  RandomDagParams params;
  params.max_stages = 16;
  params.max_tasks = 6;
  const Workload wl = make_random_dag(rng, params);
  const JobDag& dag = wl.dag;
  // Coarse estimates off the ground truth: the two constructors disagree,
  // and equal pv values, which the selector breaks by stage id, occur.
  JobProfile profile = exact_profile(dag);
  for (StageEstimate& e : profile.stages) {
    e.task_duration = kSec * rng.uniform_range(1, 2);
  }
  TopologySpec spec;
  spec.nodes_per_rack = 1;
  spec.cores_per_executor = Cpus{4096};
  const Topology topo(spec);
  JobState state(dag, topo, profile);
  const ExecutorId exec(0);
  const DagonSelector dagon;

  WorkModel want;
  for (const Stage& s : dag.stages()) {
    want.w.push_back(profile.workload(s.id, s.num_tasks));
    want.share.push_back(profile.workload(s.id, 1));
  }
  // The ground-truth values, driven with no lifecycle at all: launches
  // past a stage's task count take w below zero and must floor.
  PriorityValues truth(dag);
  WorkModel truth_want;
  for (const Stage& s : dag.stages()) {
    truth_want.w.push_back(s.workload());
    truth_want.share.push_back(s.workload() / s.num_tasks);
  }
  ASSERT_NO_FATAL_FAILURE(
      expect_matches(dag, state.priority_values(), want, -1));
  ASSERT_NO_FATAL_FAILURE(expect_matches(dag, truth, truth_want, -1));

  // Tasks of `s` in `status`, in index order.
  const auto tasks_in = [&](StageId s, TaskStatus status) {
    std::vector<std::int32_t> out;
    const StageRuntime& rt = state.stage(s);
    for (std::int32_t t = 0; t < rt.num_tasks; ++t) {
      if (rt.status_of(t) == status) out.push_back(t);
    }
    return out;
  };
  const auto pick = [&](const std::vector<std::int32_t>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(from.size())))];
  };
  const auto num_stages = static_cast<std::int64_t>(dag.num_stages());
  SimTime now{};
  std::int64_t orders_checked = 0;
  std::int64_t steps_by_kind[4] = {};
  for (int step = 0; step < 600; ++step) {
    now += kSec;
    const StageId s(static_cast<std::int32_t>(rng.uniform_int(num_stages)));
    const StageRuntime& rt = state.stage(s);
    const std::int64_t op = rng.uniform_int(8);
    if (op <= 2 && rt.ready && rt.has_pending()) {
      state.mark_launched(s, pick(tasks_in(s, TaskStatus::Pending)), exec,
                          now);
      want.launch(s);
      ++steps_by_kind[0];
    } else if (op <= 4 && rt.running > 0) {
      const std::int32_t t = pick(tasks_in(s, TaskStatus::Running));
      if (state.mark_finished(s, t, exec, Locality::Any, now - kSec, now)) {
        want.finish(s);
        state.refresh_ready(now);
      }
      ++steps_by_kind[1];
    } else if (op == 5 && rt.running > 0) {
      // A failed attempt's teardown, as the driver's, then the retry.
      const std::int32_t t = pick(tasks_in(s, TaskStatus::Running));
      state.mark_failed(s, t);
      --state.stage(s).running;
      state.add_free_cores(exec, dag.stage(s).task_cpus);
      state.readd_pending(s, t);
      state.demote_unready();
      want.requeue(s);
      ++steps_by_kind[2];
    } else if (op == 6 && rt.finished_tasks > 0) {
      state.reopen_task(s, pick(tasks_in(s, TaskStatus::Finished)));
      state.demote_unready();
      want.requeue(s);
      ++steps_by_kind[3];
    } else {
      // No lifecycle for the bare values: any of the three updates.
      const std::int64_t bare = rng.uniform_int(6);
      if (bare <= 3) {
        truth.on_launch(s);
        truth_want.launch(s);
      } else if (bare == 4) {
        truth.on_requeue(s);
        truth_want.requeue(s);
      } else {
        truth.on_finish(s);
        truth_want.finish(s);
      }
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_matches(dag, state.priority_values(), want, step));
    ASSERT_NO_FATAL_FAILURE(expect_matches(dag, truth, truth_want, step));

    std::vector<StageId> brute;
    for (const Stage& each : dag.stages()) {
      const StageRuntime& r = state.stage(each.id);
      if (r.ready && !r.finished && r.has_pending()) brute.push_back(each.id);
    }
    std::sort(brute.begin(), brute.end(), [&](StageId a, StageId b) {
      const CpuWork pa = brute_pv(dag, want.w, a);
      const CpuWork pb = brute_pv(dag, want.w, b);
      return pa != pb ? pa > pb : a < b;
    });
    ASSERT_EQ(dagon.order(state), brute) << "step " << step;
    if (brute.size() >= 2) ++orders_checked;
  }
  for (const std::int64_t n : steps_by_kind) EXPECT_GT(n, 0);
  EXPECT_GT(truth_want.floored, 0);
  // Two roots are two schedulable stages at t=0, so an order to compare.
  if (dag.root_stages().size() >= 2) {
    EXPECT_GT(orders_checked, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorityValuesDifferential,
                         ::testing::Range<std::uint64_t>(340, 352));

}  // namespace
}  // namespace dagon
