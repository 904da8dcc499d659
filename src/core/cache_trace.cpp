#include "core/cache_trace.hpp"

#include <algorithm>
#include <set>

#include "cache/block_manager.hpp"
#include "common/error.hpp"
#include "dag/priority_values.hpp"

namespace dagon {

std::string block_label(const JobDag& dag, const BlockId& b) {
  return dag.rdd(b.rdd).name + std::to_string(b.partition + 1);
}

CacheTraceResult run_cache_trace(const JobDag& dag,
                                 const std::vector<TraceLaunch>& schedule,
                                 CachePolicyKind policy_kind,
                                 std::int32_t capacity_blocks) {
  DAGON_CHECK(capacity_blocks > 0);
  // Uniform block size across the DAG (the paper's simplification).
  Bytes block_bytes{};
  for (const Rdd& r : dag.rdds()) {
    if (r.bytes_per_partition > Bytes{0}) {
      if (block_bytes == Bytes{0}) block_bytes = r.bytes_per_partition;
      DAGON_CHECK_MSG(r.bytes_per_partition == block_bytes,
                      "cache trace requires uniform block sizes");
    }
  }
  DAGON_CHECK(block_bytes > Bytes{0});

  const auto policy = make_cache_policy(policy_kind);
  ReferenceOracle oracle(dag);
  PriorityValues pv(dag);
  BlockManager bm(ExecutorId(0), capacity_blocks * block_bytes, *policy);

  // Blocks that exist (readable / prefetchable): inputs + written output.
  std::set<BlockId> on_disk;
  for (const Rdd& r : dag.rdds()) {
    if (!r.is_input) continue;
    for (std::int32_t p = 0; p < r.num_partitions; ++p) {
      on_disk.insert(BlockId{r.id, p});
    }
    for (std::int32_t p = 0; p < r.initially_cached_partitions; ++p) {
      // Seeded before the job starts: strictly older than any access.
      const auto res =
          bm.insert(BlockId{r.id, p}, block_bytes, SimTime{-1}, oracle);
      DAGON_CHECK(res.admitted);
    }
  }

  struct Running {
    SimTime finish;
    StageId stage;
    std::int32_t task;
  };
  std::vector<Running> running;
  std::vector<std::int32_t> done(dag.num_stages(), 0);

  CacheTraceResult result;
  SimTime now{};
  // Sub-step access clock: LRU recency within one time step follows the
  // order in which reads/writes actually happen.
  SimTime lamport{};

  const auto process_finishes = [&](SimTime until) {
    std::sort(running.begin(), running.end(),
              [](const Running& a, const Running& b) {
                if (a.finish != b.finish) return a.finish < b.finish;
                if (a.stage != b.stage) return a.stage < b.stage;
                return a.task < b.task;
              });
    std::vector<Running> still;
    for (const Running& r : running) {
      if (r.finish > until) {
        still.push_back(r);
        continue;
      }
      const Stage& s = dag.stage(r.stage);
      const Rdd& out = dag.rdd(s.output);
      const BlockId block{out.id, r.task};
      if (out.bytes_per_partition > Bytes{0}) {
        on_disk.insert(block);
        if (out.cacheable) {
          bm.insert(block, block_bytes, r.finish + lamport++, oracle);
        }
      }
      if (++done[static_cast<std::size_t>(r.stage.value())] ==
          s.num_tasks) {
        oracle.mark_stage_finished(r.stage);
      }
      // Sweep after every completion so dead blocks free space exactly
      // when the paper's walk-through expects.
      if (policy->proactive_eviction()) bm.evict_dead(oracle);
    }
    running = std::move(still);
  };

  const auto prefetch_loop = [&](SimTime at) {
    for (;;) {
      std::optional<BlockId> best;
      double best_priority = 0.0;
      const double floor = bm.min_retention(oracle);
      for (const BlockId& b : on_disk) {
        if (bm.contains(b)) continue;
        if (!dag.rdd(b.rdd).cacheable) continue;
        const auto priority = policy->prefetch_priority(b, oracle);
        if (!priority) continue;
        if (block_bytes > bm.free_bytes() && *priority <= floor) continue;
        if (!best || *priority > best_priority ||
            (*priority == best_priority && b < *best)) {
          best = b;
          best_priority = *priority;
        }
      }
      if (!best) return;
      const auto res = bm.insert(*best, block_bytes, at + lamport++, oracle,
                                 /*strict_admission=*/true);
      if (!res.admitted) return;
    }
  };

  for (const TraceLaunch& step : schedule) {
    DAGON_CHECK_MSG(step.time >= now, "trace steps must be time-ordered");
    now = step.time;
    process_finishes(now);
    oracle.set_current_stage(step.stage);
    prefetch_loop(now);

    TraceRow row;
    row.time = now;
    const Stage& s = dag.stage(step.stage);
    for (std::size_t i = 0; i < step.tasks.size(); ++i) {
      row.launched += (i ? "," : "") + s.name;
    }

    // Distinct blocks this step reads, in id order.
    std::set<BlockId> reads;
    for (const std::int32_t t : step.tasks) {
      for (const TaskInput& in : dag.task_inputs(step.stage, t)) {
        reads.insert(in.block);
      }
    }
    for (const BlockId& b : reads) {
      const bool hit = bm.contains(b);
      row.accesses.emplace_back(b, hit);
      ++result.total_accesses;
      if (hit) {
        ++result.total_hits;
        ++row.hits;
        bm.touch(b, now + lamport++);
      } else if (dag.rdd(b.rdd).cacheable) {
        bm.insert(b, block_bytes, now + lamport++, oracle);
      }
    }

    // Consume references and pv as the tasks start.
    for (const std::int32_t t : step.tasks) {
      oracle.on_task_launched(step.stage, t);
      pv.on_launch(step.stage);
      running.push_back(
          Running{now + s.task_compute_time(t), step.stage, t});
    }
    oracle.set_priority_values(pv.values());

    row.cache_after.reserve(bm.num_blocks());
    for (const BlockManager::Entry& e : bm.entries()) {
      row.cache_after.push_back(e.id);
    }
    result.rows.push_back(std::move(row));
  }
  process_finishes(kTimeInfinity);
  return result;
}

std::vector<TraceLaunch> fifo_fig1_schedule(SimTime minute) {
  return {
      {0 * minute, StageId(0), {0, 1, 2}},
      {4 * minute, StageId(1), {0, 1}},
      {6 * minute, StageId(1), {2}},
      {8 * minute, StageId(2), {0, 1}},
      {12 * minute, StageId(3), {0}},
  };
}

std::vector<TraceLaunch> dag_aware_fig1_schedule(SimTime minute) {
  // Order within each instant follows Algorithm 1's decision sequence
  // (Table III: stage 2 first at t=0).
  return {
      {0 * minute, StageId(1), {0, 1}},
      {0 * minute, StageId(0), {0}},
      {2 * minute, StageId(1), {2}},
      {2 * minute, StageId(0), {1}},
      {4 * minute, StageId(2), {0, 1}},
      {4 * minute, StageId(0), {2}},
      {8 * minute, StageId(3), {0}},
  };
}

}  // namespace dagon
