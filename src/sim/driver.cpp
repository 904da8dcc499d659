#include "sim/driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/fsm.hpp"
#include "common/log.hpp"
#include "dag/dag_analysis.hpp"
#include "sched/task_locality.hpp"
#include "sim/input_reads.hpp"

namespace dagon {

namespace {

/// Rng::fork stream id reserved for speed-tier membership draws.
/// Dedicated (like the fault streams) so configuring tiers never
/// perturbs HDFS placement or duration noise, and tiers-off runs never
/// draw from it at all.
constexpr std::uint64_t kTierRngStream = 0x7165;

/// Every serving job's stages: each job starts gated, and run() ungates
/// the submit-at-0 jobs before the first schedule pass.
std::vector<StageId> serving_stages(const SimConfig& config) {
  std::vector<StageId> stages;
  for (const SimConfig::ServingJob& job : config.serving.jobs) {
    stages.insert(stages.end(), job.stages.begin(), job.stages.end());
  }
  return stages;
}

}  // namespace

SimDriver::SimDriver(const JobDag& dag, const JobProfile& profile,
                     const SimConfig& config)
    : config_(config),
      dag_(&dag),
      profile_(profile),
      topo_(config.topology),
      rng_(config.seed),
      cost_(config.cost),
      hdfs_(dag, topo_, config.hdfs, rng_),
      oracle_(dag, serving_stages(config)),
      policy_(make_cache_policy(config.cache)),
      master_(topo_, dag, hdfs_, oracle_, *policy_, config.cache_enabled),
      state_(dag, topo_, profile_),
      selector_(make_stage_selector(config.scheduler, dag, profile_,
                                    config.topology.cores_per_executor)),
      delay_(make_delay_policy(config.delay, config.waits, cost_,
                               config.ect_slack)),
      fault_plan_(config.faults, topo_.num_executors(), topo_.num_racks(),
                  config.seed) {
  validate();
  // Release-build lifecycle enforcement: illegal transitions in
  // job_state / cache master / the driver itself land in these counters
  // and poison the fingerprint (see metrics_fingerprint).
  state_.set_fsm_violations(&metrics_.fsm.task);
  master_.set_fsm_violations(&metrics_.fsm.block);
  if (fault_plan_.monitors_heartbeats()) {
    detector_.emplace(config_.faults.heartbeat_interval,
                      config_.faults.suspect_phi, config_.faults.dead_phi);
  }
  metrics_.faults.per_executor.resize(topo_.num_executors());
  if (config_.tail.enabled()) assign_speed_tiers();
  if (config_.tail.escalate) {
    // Mark the DAG's critical chain: stage s is critical when the
    // longest root-to-s prefix plus the cp-length through s spans the
    // whole critical path (so ties mark every maximal chain).
    const std::vector<SimTime> cp = critical_path_lengths(dag);
    SimTime total{};
    for (const SimTime v : cp) total = std::max(total, v);
    std::vector<SimTime> up(dag.num_stages());
    for (const StageId sid : dag.topological_order()) {
      const Stage& st = dag.stage(sid);
      SimTime longest_task{};
      for (std::int32_t t = 0; t < st.num_tasks; ++t) {
        longest_task = std::max(longest_task, st.task_compute_time(t));
      }
      for (const StageId c : st.children) {
        SimTime& u = up[static_cast<std::size_t>(c.value())];
        u = std::max(u,
                     up[static_cast<std::size_t>(sid.value())] + longest_task);
      }
    }
    stage_critical_.assign(dag.num_stages(), 0);
    for (std::size_t i = 0; i < dag.num_stages(); ++i) {
      if (up[i] + cp[i] == total) stage_critical_[i] = 1;
    }
    stage_last_launch_.assign(dag.num_stages(), SimTime{-1});
  }
  // LERC scores blocks by effective reference count, which needs the
  // oracle's peer-group residency mirror. Enabled only for LERC so every
  // other policy's runs stay bit-identical to pre-LERC builds.
  if (config_.cache == CachePolicyKind::Lerc) {
    oracle_.enable_peer_tracking();
  }
  serving_ = config_.serving.enabled();
  if (serving_) {
    stage_job_.assign(dag.num_stages(), -1);
    jobs_.resize(config_.serving.jobs.size());
    for (std::size_t j = 0; j < config_.serving.jobs.size(); ++j) {
      const SimConfig::ServingJob& job = config_.serving.jobs[j];
      jobs_[j].submit_time = std::max(SimTime{0}, job.submit_at);
      jobs_[j].unfinished_stages =
          static_cast<std::int32_t>(job.stages.size());
      for (const StageId s : job.stages) {
        stage_job_[static_cast<std::size_t>(s.value())] =
            static_cast<std::int32_t>(j);
        // Every job starts gated (in the oracle too, from its
        // constructor); run() ungates submit-at-0 jobs before the first
        // schedule pass and queues JobSubmit for the rest.
        state_.set_stage_gated(s, true);
      }
    }
  }
  task_offset_.reserve(dag.num_stages());
  std::int64_t total_tasks = 0;
  for (const Stage& s : dag.stages()) {
    task_offset_.push_back(total_tasks);
    total_tasks += s.num_tasks;
  }
  attempt_first_.assign(static_cast<std::size_t>(total_tasks), -1);
  attempt_last_.assign(static_cast<std::size_t>(total_tasks), -1);
  attempt_next_.reserve(static_cast<std::size_t>(total_tasks));
  running_prev_.reserve(static_cast<std::size_t>(total_tasks));
  running_next_.reserve(static_cast<std::size_t>(total_tasks));
  attempts_.reserve(static_cast<std::size_t>(total_tasks));
  retry_counts_.assign(static_cast<std::size_t>(total_tasks), 0);
  prefetch_inflight_.assign(static_cast<std::size_t>(dag.num_blocks()), 0);
  // Pre-size the event queue from the task count; the heap still grows
  // past the clamp if a run ever holds more events at once.
  queue_.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(total_tasks + 64, 1 << 16)));
  metrics_.total_cores = topo_.total_cores();
  if (config_.per_executor_profiles) {
    metrics_.executor_profiles.resize(topo_.num_executors());
    for (const Executor& e : topo_.executors()) {
      metrics_.executor_profiles[static_cast<std::size_t>(e.id.value())].id =
          e.id;
    }
  }
}

void SimDriver::validate() const {
  Cpus max_cores{};
  for (const Executor& e : topo_.executors()) {
    max_cores = std::max(max_cores, e.cores);
  }
  for (const Stage& s : dag_->stages()) {
    if (s.task_cpus > max_cores) {
      throw ConfigError("stage '" + s.name +
                        "' demands more vCPUs than any executor has");
    }
  }
  if (config_.tick_interval <= SimTime{0}) {
    throw ConfigError("tick_interval must be positive");
  }
  if (config_.max_sim_time <= SimTime{0}) {
    throw ConfigError("max_sim_time must be positive");
  }
  if (config_.waits.process < SimTime{0} || config_.waits.node < SimTime{0} ||
      config_.waits.rack < SimTime{0}) {
    throw ConfigError("locality waits must be non-negative");
  }
  // Each floating-point check states what a valid value satisfies and
  // negates it, so a NaN (for which every comparison is false) fails it.
  // Factors that scale a SimTime must also be finite.
  if (!(config_.duration_noise >= 0.0 &&
        std::isfinite(config_.duration_noise))) {
    throw ConfigError("duration_noise must be finite and non-negative");
  }
  if (!(config_.ect_slack > 0.0 && std::isfinite(config_.ect_slack))) {
    throw ConfigError("ect_slack must be finite and positive");
  }
  if (!(config_.speculation.quantile >= 0.0 &&
        config_.speculation.quantile <= 1.0)) {
    throw ConfigError("speculation quantile must be in [0, 1]");
  }
  if (!(config_.speculation.multiplier > 0.0 &&
        std::isfinite(config_.speculation.multiplier))) {
    throw ConfigError("speculation multiplier must be finite and positive");
  }
  double tier_total = 0.0;
  double tier_mult = 1.0;  // executors outside every tier run at 1.0
  // dagonlint: allow(float-accum): config validation over a fixed,
  // spec-ordered tier list; the sum never feeds back into the sim.
  for (const SimConfig::ExecTier& tier : config_.tail.tiers) {
    if (!(tier.fraction >= 0.0 && tier.fraction <= 1.0)) {
      throw ConfigError("exec tier '" + tier.name +
                        "' fraction must be in [0, 1]");
    }
    if (!(tier.mult > 0.0 && std::isfinite(tier.mult))) {
      throw ConfigError("exec tier '" + tier.name +
                        "' mult must be finite and positive");
    }
    tier_total += tier.fraction;
    tier_mult = std::max(tier_mult, tier.mult);
  }
  if (tier_total > 1.0 + 1e-9) {
    throw ConfigError("exec tier fractions must sum to <= 1");
  }
  if (config_.tail.escalation_wait <= SimTime{0}) {
    throw ConfigError("tail.escalation_wait must be positive");
  }
  if (config_.serving.enabled()) {
    std::vector<char> owned(dag_->num_stages(), 0);
    for (const SimConfig::ServingJob& job : config_.serving.jobs) {
      if (job.weight < 1) {
        throw ConfigError("serving job '" + job.name +
                          "' needs weight >= 1");
      }
      if (job.stages.empty()) {
        throw ConfigError("serving job '" + job.name + "' has no stages");
      }
      for (const StageId s : job.stages) {
        if (!s.valid() ||
            static_cast<std::size_t>(s.value()) >= owned.size()) {
          throw ConfigError("serving job '" + job.name +
                            "' lists an unknown stage");
        }
        if (owned[static_cast<std::size_t>(s.value())] != 0) {
          throw ConfigError("serving jobs must partition the DAG: stage "
                            "owned twice");
        }
        owned[static_cast<std::size_t>(s.value())] = 1;
      }
    }
    for (const char o : owned) {
      if (o == 0) {
        throw ConfigError(
            "serving jobs must partition the DAG: unowned stage");
      }
    }
  }
  SimTime prev{-1};
  for (const SimConfig::CapacityPhase& phase : config_.capacity_phases) {
    if (phase.at < SimTime{0} || phase.at <= prev) {
      throw ConfigError("capacity_phases must be sorted by time");
    }
    if (!(phase.reserved_fraction >= 0.0 && phase.reserved_fraction < 1.0)) {
      throw ConfigError("reserved_fraction must be in [0, 1)");
    }
    prev = phase.at;
  }
  // launch_task scales a task's compute time by duration noise, its
  // executor's tier and degrade slowdowns, and a heavy-tail draw. The
  // longest task at the worst product must fit a quarter of SimTime's
  // range, leaving the rest for `now + fetch`. Each factor is finite.
  double degrade = 1.0;
  for (const DegradeSpec& d : config_.faults.degrades) {
    double overlap = 1.0;  // windows on one executor (-1: any) multiply
    // dagonlint: allow(float-accum): config validation over the fixed,
    // spec-ordered degrade list; the product never feeds the sim.
    for (const DegradeSpec& o : config_.faults.degrades) {
      const bool same = o.executor == d.executor || o.executor < 0 ||
                        d.executor < 0;
      if (same && o.at <= d.at && d.at < o.until) overlap *= o.slowdown;
    }
    degrade = std::max(degrade, overlap);
  }
  const std::pair<const char*, double> factors[] = {
      // Rng::normal's Box–Muller draws |z| <= sqrt(-2 ln 2^-53) < 8.58.
      {"duration_noise", 1.0 + 8.58 * config_.duration_noise},
      {"exec tier mult", tier_mult},
      {"faults.heavy_tail_mult", config_.faults.heavy_tail_prob > 0.0
                                     ? config_.faults.heavy_tail_mult
                                     : 1.0},
      {"faults.degrades slowdown", degrade},
  };
  SimTime longest{};
  for (const Stage& s : dag_->stages()) {
    for (std::int32_t t = 0; t < s.num_tasks; ++t) {
      longest = std::max(longest, s.task_compute_time(t));
    }
  }
  double scaled = static_cast<double>(longest.count());
  // dagonlint: allow(float-accum): four config factors in a fixed order;
  // the product only decides whether to reject the config.
  for (const auto& [knob, factor] : factors) {
    scaled *= factor;
    if (scaled > static_cast<double>(kTimeInfinity.count()) / 4) {
      throw ConfigError(std::string(knob) + " too large: it scales the " +
                        format_duration(longest) +
                        " longest task out of SimTime's range");
    }
  }
}

RunMetrics SimDriver::run() {
  DAGON_CHECK_MSG(!ran_, "SimDriver::run() is single-shot");
  ran_ = true;

  master_.seed_initial_cache(SimTime{0});
  if (serving_) {
    for (std::size_t j = 0; j < config_.serving.jobs.size(); ++j) {
      const SimTime at = config_.serving.jobs[j].submit_at;
      if (at <= SimTime{0}) {
        // Already here at start of time: ungate directly, no event.
        handle_job_submit(static_cast<std::int32_t>(j), SimTime{0});
      } else {
        queue_.push(Event{at, EventType::JobSubmit, TaskId::invalid(),
                          ExecutorId::invalid(), BlockId{},
                          static_cast<std::int32_t>(j)});
      }
    }
  }
  state_.refresh_ready(SimTime{0});
  push_priority_update();
  schedule_loop(SimTime{0});
  issue_prefetches(SimTime{0});
  if (config_.per_executor_profiles) sample_pending(SimTime{0});
  queue_.push(Event{config_.tick_interval, EventType::Tick,
                    TaskId::invalid(), ExecutorId::invalid(), BlockId{}});
  for (std::size_t i = 0; i < config_.capacity_phases.size(); ++i) {
    queue_.push(Event{config_.capacity_phases[i].at,
                      EventType::CapacityChange, TaskId::invalid(),
                      ExecutorId::invalid(), BlockId{},
                      static_cast<std::int32_t>(i)});
  }
  for (const FaultPlan::Crash& c : fault_plan_.crashes()) {
    queue_.push(Event{c.at, EventType::ExecutorCrash, TaskId::invalid(),
                      c.exec, BlockId{}});
  }
  if (fault_plan_.samples_block_loss()) {
    queue_.push(Event{config_.faults.block_loss_interval,
                      EventType::FaultTick, TaskId::invalid(),
                      ExecutorId::invalid(), BlockId{}});
  }
  if (detector_) {
    for (const Executor& e : topo_.executors()) {
      detector_->track(e.id, SimTime{0});
      queue_.push(Event{config_.faults.heartbeat_interval,
                        EventType::Heartbeat, TaskId::invalid(), e.id,
                        BlockId{}});
    }
  }

  SimTime now{};
  Event ev;
  while (!state_.all_finished()) {
    DAGON_CHECK_MSG(queue_.pop_into(ev),
                    "simulation deadlock: job unfinished, no events");
    now = ev.time;
    if (now > config_.max_sim_time) {
      throw InvariantError("simulation exceeded max_sim_time — livelock?");
    }
    ++metrics_.sim_events;
    switch (ev.type) {
      case EventType::TaskFinish:
        // A completion behind an active partition is invisible to the
        // driver until the partition heals.
        if (detector_ && defer_partitioned_report(ev, now)) break;
        handle_task_finish(ev.task, now);
        break;
      case EventType::PrefetchDone:
        handle_prefetch_done(ev, now);
        break;
      case EventType::CapacityChange:
        handle_capacity_change(ev.aux, now);
        break;
      case EventType::Tick:
        if (!state_.all_finished()) {
          if (detector_) evaluate_suspicions(now);
          expire_blacklists(now);
          try_speculation(now);
          if (config_.tail.escalate) try_escalation(now);
          if (config_.per_executor_profiles) sample_pending(now);
          queue_.push(Event{now + config_.tick_interval, EventType::Tick,
                            TaskId::invalid(), ExecutorId::invalid(),
                            BlockId{}});
        }
        break;
      case EventType::ExecutorCrash:
        handle_executor_crash(ev.exec, now);
        break;
      case EventType::TaskFail:
        if (detector_ && defer_partitioned_report(ev, now)) break;
        fail_attempt(ev.task, now, /*from_crash=*/false);
        break;
      case EventType::TaskRetry:
        handle_task_retry(StageId(ev.aux), ev.aux2, now);
        break;
      case EventType::FaultTick:
        handle_fault_tick(now);
        break;
      case EventType::Heartbeat:
        handle_heartbeat(ev.exec, now);
        break;
      case EventType::JobSubmit:
        handle_job_submit(ev.aux, now);
        break;
      case EventType::JobFinish:
        // Bookkeeping already ran at the job's final TaskFinish; the
        // event makes the completion visible in the event stream.
        DAGON_DEBUG("t=" << format_duration(now) << " job "
                         << config_.serving.jobs[static_cast<std::size_t>(
                                                     ev.aux)]
                                .name
                         << " finished");
        break;
    }
    schedule_loop(now);
    // Proactive sweeps and prefetch passes are O(cached blocks) /
    // O(candidates x nodes): run them after every event except task
    // finishes and heartbeats (which arrive once per executor per
    // interval). A task finish that completes a stage runs only the
    // proactive sweep, inside handle_task_finish.
    if (ev.type != EventType::TaskFinish &&
        ev.type != EventType::Heartbeat) {
      master_.proactive_sweep();
      issue_prefetches(now);
    }
  }
  verify_quiescent();
  finalize_metrics(now);
  return std::move(metrics_);
}

void SimDriver::schedule_loop(SimTime now) {
  // Algorithm 1: repeat {order stages; first admissible launch; restart}
  // until no stage can place a task.
  const bool fair = serving_ && config_.serving.fair_share;
  bool progress = true;
  while (progress) {
    progress = false;
    if (!state_.any_free_cores()) break;
    const std::vector<StageId> order = selector_->order(state_);
    // Without fair share, one pass over every stage (job -1). Weighted
    // fair share instead offers the next slot to jobs in ascending
    // running_cores/weight order (exact int64 cross-multiplication; ties
    // to the lower job index), falling through to the next job when a
    // job has no admissible task — the loop stays work-conserving.
    // Within one job, the stage selector's order is preserved.
    job_order_.assign(1, -1);
    if (fair) {
      job_order_.clear();
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        if (jobs_[j].submitted && jobs_[j].unfinished_stages > 0) {
          job_order_.push_back(static_cast<std::int32_t>(j));
        }
      }
      std::sort(job_order_.begin(), job_order_.end(),
                [&](std::int32_t a, std::int32_t b) {
                  const auto ca = static_cast<std::int64_t>(
                      jobs_[static_cast<std::size_t>(a)].running_cores.count());
                  const auto cb = static_cast<std::int64_t>(
                      jobs_[static_cast<std::size_t>(b)].running_cores.count());
                  const auto wa = static_cast<std::int64_t>(
                      config_.serving.jobs[static_cast<std::size_t>(a)]
                          .weight);
                  const auto wb = static_cast<std::int64_t>(
                      config_.serving.jobs[static_cast<std::size_t>(b)]
                          .weight);
                  if (ca * wb != cb * wa) return ca * wb < cb * wa;
                  return a < b;
                });
    }
    for (const std::int32_t j : job_order_) {
      for (const StageId s : order) {
        if (j >= 0 && stage_job_[static_cast<std::size_t>(s.value())] != j) {
          continue;
        }
        const auto a = delay_->find(state_, master_, s, now);
        if (a) {
          launch_task(s, *a, now, /*speculative=*/false);
          progress = true;
          break;
        }
      }
      if (progress) break;
    }
  }
}

void SimDriver::launch_task(StageId s, const Assignment& a, SimTime now,
                            bool speculative) {
  // Input fetches: cost + cache accounting + cache fills. Fetches from
  // one source category are pipelined (Spark batches shuffle fetches per
  // remote endpoint), so per-fetch latency is paid once per category,
  // not once per block: bytes are summed and costed in one call.
  // Gray faults: a degraded executor's transfers and compute are scaled
  // by the slowdown factor; a fetch whose best source sits across an
  // active partition stalls until the heal. Speed tiers compose
  // multiplicatively (a fast tier's mult < 1 speeds everything up).
  const double degrade = fault_plan_.degrade_factor(a.exec, now);
  const double slow = degrade * state_.executor(a.exec).speed_mult;
  // Effective-hit accounting (LERC's metric): the read is effective only
  // when EVERY cacheable narrow input is served from cluster memory —
  // a remote-memory read is still a BlockManager cache hit; only a disk
  // read or recompute breaks the peer group's effectiveness.
  bool any_cacheable_narrow = false;
  bool all_inputs_memory = true;
  const InputReads reads = read_inputs(
      *dag_, topo_, master_, detector_ ? &fault_plan_ : nullptr, s,
      a.task_index, a.exec, now,
      [&](const TaskInput& in, const BlockManagerMaster::Lookup& lookup) {
        // Cache statistics cover persisted-RDD block *gets* only (narrow
        // reads of cacheable RDDs), matching Spark's BlockManager
        // accounting: shuffle fetches and unpersisted inputs never count.
        if (in.kind == DepKind::Narrow && dag_->rdd(in.block.rdd).cacheable) {
          ++metrics_.cache.total_reads;
          any_cacheable_narrow = true;
          if (lookup.source == BlockSource::LocalMemory) {
            ++metrics_.cache.local_memory_hits;
          } else if (is_memory_source(lookup.source)) {
            ++metrics_.cache.other_memory_hits;
          } else {
            ++metrics_.cache.disk_reads;
            all_inputs_memory = false;
          }
        }
        master_.on_block_read(in.block, a.exec, lookup, now);
      });
  if (any_cacheable_narrow) {
    ++metrics_.cache.effective_task_reads;
    if (all_inputs_memory) ++metrics_.cache.effective_task_hits;
    if (serving_) {
      JobRuntime& j = jobs_[static_cast<std::size_t>(job_of(s))];
      ++j.effective_task_reads;
      if (all_inputs_memory) ++j.effective_task_hits;
    }
  }
  SimTime fetch{};
  for (std::size_t src = 0; src < reads.bytes_by_source.size(); ++src) {
    if (reads.bytes_by_source[src] > Bytes{0}) {
      fetch += cost_.fetch_time(reads.bytes_by_source[src],
                                static_cast<BlockSource>(src), 0.0, slow);
    }
  }
  fetch += time_from_usec(cost_.spec().serde_sec_per_byte *
                          static_cast<double>(reads.serde_bytes.count()) *
                          static_cast<double>(kSec.count()) * slow);
  if (reads.partition_stall > SimTime{0}) {
    fetch += reads.partition_stall;
    ++metrics_.faults.partition_stalled_fetches;
  }

  SimTime compute = dag_->stage(s).task_compute_time(a.task_index);
  if (config_.duration_noise > 0.0) {
    const double factor =
        std::max(0.1, rng_.normal(1.0, config_.duration_noise));
    compute = scale_time(compute, factor);
  }
  if (slow != 1.0) {
    compute = scale_time(compute, slow);
  }
  if (degrade > 1.0) ++metrics_.faults.degraded_launches;
  // Heavy-tail injection: one dedicated-stream draw per attempt. The
  // multiplier sticks to THIS attempt only, so a hedge launched later
  // redraws and can genuinely escape the tail.
  if (fault_plan_.samples_heavy_tail() && fault_plan_.draw_heavy_tail()) {
    compute = scale_time(compute, config_.faults.heavy_tail_mult);
    ++metrics_.faults.heavy_tail_injections;
  }

  const TaskId id(static_cast<std::int64_t>(attempts_.size()));
  TaskRuntime attempt;
  attempt.stage = s;
  attempt.index = a.task_index;
  fsm::transition(attempt.status, TaskStatus::Running, id.value(),
                  &metrics_.fsm.task);
  attempt.executor = a.exec;
  attempt.locality = a.locality;
  attempt.launch_time = now;
  attempt.fetch_time = fetch;
  attempt.compute_time = compute;
  attempt.speculative = speculative;
  attempts_.push_back(attempt);
  attempt_next_.push_back(-1);
  running_prev_.push_back(running_tail_);
  running_next_.push_back(-1);
  if (running_tail_ >= 0) {
    running_next_[static_cast<std::size_t>(running_tail_)] = id.value();
  } else {
    running_head_ = id.value();
  }
  running_tail_ = id.value();
  const std::size_t ord = task_ord(s, a.task_index);
  if (attempt_first_[ord] < 0) {
    attempt_first_[ord] = id.value();
  } else {
    attempt_next_[static_cast<std::size_t>(attempt_last_[ord])] = id.value();
  }
  attempt_last_[ord] = id.value();

  const Cpus demand = dag_->stage(s).task_cpus;
  if (speculative) {
    DAGON_CHECK(state_.executor(a.exec).free_cores() >= demand);
    state_.add_free_cores(a.exec, -demand);
    ++state_.stage(s).running;
    if (config_.speculation.hedge) ++metrics_.hedge.hedges_launched;
  } else {
    if (config_.tail.escalate) {
      stage_last_launch_[static_cast<std::size_t>(s.value())] = now;
    }
    state_.mark_launched(s, a.task_index, a.exec, now);
    delay_->on_launch(state_, master_, s, a.locality, now);
    oracle_.on_task_launched(s, a.task_index);
    oracle_.set_current_stage(s);
    push_priority_update();
  }

  if (serving_) {
    JobRuntime& j = jobs_[static_cast<std::size_t>(job_of(s))];
    j.running_cores += demand;
    if (j.first_launch < SimTime{0}) j.first_launch = now;
  }

  metrics_.busy_cores.add(now, static_cast<double>(demand.count()));
  metrics_.running_tasks.add(now, 1.0);
  ++metrics_.locality_histogram[static_cast<std::size_t>(a.locality)];
  if (config_.per_executor_profiles) {
    metrics_.executor_profiles[static_cast<std::size_t>(a.exec.value())]
        .busy_cores.add(now, static_cast<double>(demand.count()));
  }

  // Transient-failure draw (dedicated RNG stream: fault-free runs never
  // reach this). A doomed attempt gets a TaskFail event at a random
  // point of its lifetime instead of a TaskFinish.
  SimTime terminal_at = now + fetch + compute;
  EventType terminal = EventType::TaskFinish;
  if (fault_plan_.samples_task_failures() &&
      fault_plan_.draw_task_failure()) {
    const double point = fault_plan_.draw_failure_point();
    terminal_at =
        now + std::max(SimTime{1},
                       time_from_usec(point * static_cast<double>(
                                                  (fetch + compute).count())));
    terminal = EventType::TaskFail;
  }
  queue_.push(Event{terminal_at, terminal, id, ExecutorId::invalid(),
                    BlockId{}});
  DAGON_TRACE("t=" << format_duration(now) << " launch stage " << s
                   << " task " << a.task_index << " on exec " << a.exec
                   << " @" << locality_name(a.locality)
                   << (speculative ? " (speculative)" : ""));
}

void SimDriver::handle_task_finish(TaskId id, SimTime now) {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < attempts_.size());
  TaskRuntime& attempt = attempts_[static_cast<std::size_t>(id.value())];
  // Cancelled = lost a hedge/speculation race; Failed = crashed earlier.
  // Either way the attempt's terminal event is stale — ignore it.
  if (attempt.status == TaskStatus::Cancelled) return;
  if (attempt.status == TaskStatus::Failed) return;
  DAGON_CHECK(attempt.status == TaskStatus::Running);
  fsm::transition(attempt.status, TaskStatus::Finished, id.value(),
                  &metrics_.fsm.task);
  attempt.finish_time = now;
  if (config_.speculation.hedge && attempt.speculative) {
    ++metrics_.hedge.hedges_won;
  }

  const StageId s = attempt.stage;
  const std::int32_t index = attempt.index;

  // Cancel the losing twin attempts before stage bookkeeping.
  for (std::int64_t other = attempt_first_[task_ord(s, index)]; other >= 0;
       other = attempt_next_[static_cast<std::size_t>(other)]) {
    if (TaskId(other) == id) continue;
    cancel_attempt(TaskId(other), now);
  }

  // The first finish of a task index moves it to Finished (its twins
  // were just cancelled), so this is the one materialization of the
  // index's output block until lineage recovery reopens it.
  const bool stage_done =
      state_.mark_finished(s, index, attempt.executor, attempt.locality,
                           attempt.launch_time, now);
  release_attempt(id, now);
  const Rdd& out = dag_->rdd(dag_->stage(s).output);
  if (out.bytes_per_partition > Bytes{0}) {
    master_.on_block_produced(BlockId{out.id, index}, attempt.executor, now);
  }

  if (stage_done) {
    oracle_.mark_stage_finished(s);
    state_.refresh_ready(now);
    master_.proactive_sweep();
    DAGON_DEBUG("t=" << format_duration(now) << " stage " << s << " ("
                     << dag_->stage(s).name << ") finished");
    if (serving_) {
      const std::int32_t ji = job_of(s);
      JobRuntime& j = jobs_[static_cast<std::size_t>(ji)];
      DAGON_CHECK(j.unfinished_stages > 0);
      if (--j.unfinished_stages == 0) {
        j.finished = now;
        queue_.push(Event{now, EventType::JobFinish, TaskId::invalid(),
                          ExecutorId::invalid(), BlockId{}, ji});
      }
    }
  }
  push_priority_update();
}

void SimDriver::cancel_attempt(TaskId id, SimTime now) {
  TaskRuntime& attempt = attempts_[static_cast<std::size_t>(id.value())];
  if (attempt.status != TaskStatus::Running) return;
  // Cancellation-on-first-finish: the losing sibling is torn down
  // through the one sanctioned Running → Cancelled edge and its cores
  // return immediately; its in-flight terminal event later early-returns
  // on the Cancelled status.
  fsm::transition(attempt.status, TaskStatus::Cancelled, id.value(),
                  &metrics_.fsm.task);
  attempt.finish_time = now;
  const Cpus demand = dag_->stage(attempt.stage).task_cpus;
  if (config_.speculation.hedge) {
    ++metrics_.hedge.hedges_cancelled;
    // Work burned on the loser: cores held × time run (core-µs).
    metrics_.hedge.wasted_core_us += demand * (now - attempt.launch_time);
  }
  state_.add_free_cores(attempt.executor, demand);
  --state_.stage(attempt.stage).running;
  release_attempt(id, now);
}

void SimDriver::release_attempt(TaskId id, SimTime now) {
  const auto i = static_cast<std::size_t>(id.value());
  const TaskRuntime& attempt = attempts_[i];
  const std::int64_t prev = running_prev_[i];
  const std::int64_t next = running_next_[i];
  if (prev >= 0) {
    running_next_[static_cast<std::size_t>(prev)] = next;
  } else {
    running_head_ = next;
  }
  if (next >= 0) {
    running_prev_[static_cast<std::size_t>(next)] = prev;
  } else {
    running_tail_ = prev;
  }
  const Cpus demand = dag_->stage(attempt.stage).task_cpus;
  claim_reservation(attempt.executor, now);
  if (serving_) {
    jobs_[static_cast<std::size_t>(job_of(attempt.stage))].running_cores -=
        demand;
  }
  metrics_.busy_cores.add(now, -static_cast<double>(demand.count()));
  metrics_.running_tasks.add(now, -1.0);
  if (config_.per_executor_profiles) {
    metrics_.executor_profiles[static_cast<std::size_t>(
                                   attempt.executor.value())]
        .busy_cores.add(now, -static_cast<double>(demand.count()));
  }
}

void SimDriver::handle_capacity_change(std::int32_t index, SimTime now) {
  DAGON_CHECK(index >= 0 && static_cast<std::size_t>(index) <
                                config_.capacity_phases.size());
  const double fraction =
      config_.capacity_phases[static_cast<std::size_t>(index)]
          .reserved_fraction;
  for (ExecutorRuntime& e : state_.executors()) {
    if (!e.alive()) continue;  // crashed executors have no cores to reserve
    const Cpus cores = topo_.executor(e.id).cores;
    const Cpus target =
        cpus_from_double(fraction * static_cast<double>(cores.count()) + 0.5);
    const Cpus current = e.reserved_cores + e.pending_reservation;
    Cpus delta = target - current;
    if (delta > Cpus{0}) {
      const Cpus take = std::min(e.free_cores(), delta);
      state_.add_free_cores(e.id, -take);
      e.reserved_cores += take;
      e.pending_reservation += delta - take;
      metrics_.reserved_cores.add(now, static_cast<double>(take.count()));
    } else if (delta < Cpus{0}) {
      // Release pending demand first, then actual reservations.
      const Cpus from_pending = std::min(e.pending_reservation, -delta);
      e.pending_reservation -= from_pending;
      delta += from_pending;
      if (delta < Cpus{0}) {
        const Cpus release = std::min(e.reserved_cores, -delta);
        e.reserved_cores -= release;
        state_.add_free_cores(e.id, release);
        metrics_.reserved_cores.add(now, -static_cast<double>(release.count()));
      }
    }
  }
}

void SimDriver::claim_reservation(ExecutorId exec, SimTime now) {
  ExecutorRuntime& e = state_.executor(exec);
  if (!e.alive() || e.pending_reservation <= Cpus{0}) return;
  const Cpus take = std::min(e.free_cores(), e.pending_reservation);
  if (take > Cpus{0}) {
    state_.add_free_cores(exec, -take);
    e.reserved_cores += take;
    e.pending_reservation -= take;
    metrics_.reserved_cores.add(now, static_cast<double>(take.count()));
  }
}

void SimDriver::handle_prefetch_done(const Event& e, SimTime now) {
  prefetch_inflight_[static_cast<std::size_t>(dag_->block_ord(e.block))] = 0;
  ExecutorRuntime& ex = state_.executor(e.exec);
  ex.prefetching.reset();
  // The executor died while the IO was in flight: the data never landed.
  if (!ex.alive()) return;
  master_.finish_prefetch(e.block, e.exec, now);
}

void SimDriver::issue_prefetches(SimTime now) {
  // An empty candidate set ranks empty, and an empty ranking picks
  // nothing: skip the pass, or the node, when its set is empty.
  if (!config_.prefetch_enabled || !master_.prefetches() ||
      master_.prefetch_indexed() == 0) {
    return;
  }
  // The pass only marks blocks in flight, occupies IO channels and
  // pushes events; nothing a ranking reads (the candidate index, free
  // bytes, the oracle) changes, so a ranking stays exact for the whole
  // pass. A node's executors have consecutive ids, so re-ranking when
  // the node changes ranks each node once.
  NodeId ranked = NodeId::invalid();
  for (ExecutorRuntime& e : state_.executors()) {
    // Suspect executors get no prefetch IO: filling a possibly-dying
    // cache wastes the channel.
    if (!e.alive() || e.suspect() || e.prefetching.has_value()) continue;
    const NodeId node = topo_.node_of(e.id);
    if (master_.prefetch_node_empty(node)) continue;
    if (node != ranked) {
      master_.rank_prefetch_candidates(node, prefetch_ranking_);
      ranked = node;
    }
    const auto choice =
        prefetch_ranking_.pick(master_.manager(e.id).free_bytes());
    if (!choice) continue;
    const auto block_ord =
        static_cast<std::size_t>(dag_->block_ord(choice->block));
    if (prefetch_inflight_[block_ord] != 0) continue;
    prefetch_inflight_[block_ord] = 1;
    e.prefetching = choice->block;
    const SimTime fetch =
        cost_.fetch_time(choice->bytes, BlockSource::LocalDisk);
    queue_.push(Event{now + fetch, EventType::PrefetchDone,
                      TaskId::invalid(), e.id, choice->block});
  }
}

void SimDriver::try_speculation(SimTime now) {
  if (!config_.speculation.enabled) return;
  std::vector<TaskRuntime> running;
  std::vector<bool> impaired;
  for_each_running([&](std::int64_t id) {
    const TaskRuntime& a = attempts_[static_cast<std::size_t>(id)];
    running.push_back(a);
    // Attempts on suspect or degraded executors are straggler
    // candidates with a relaxed threshold (gray-failure defense).
    impaired.push_back(state_.executor(a.executor).suspect() ||
                       fault_plan_.degrade_factor(a.executor, now) > 1.0);
  });
  for (const SpeculationCandidate& c : speculation_candidates(
           state_, running, impaired, config_.speculation, now)) {
    // Already has a live speculative copy?
    bool has_copy = false;
    for (std::int64_t id = attempt_first_[task_ord(c.stage, c.task_index)];
         id >= 0; id = attempt_next_[static_cast<std::size_t>(id)]) {
      const TaskRuntime& a = attempts_[static_cast<std::size_t>(id)];
      if (a.status == TaskStatus::Running && a.speculative) {
        has_copy = true;
        break;
      }
    }
    if (has_copy) continue;
    // Under faults the candidate's inputs may have just died with an
    // executor; the recompute is pending and a copy launched now would
    // read a missing block.
    if (!inputs_exist(c.stage, c.task_index)) continue;
    // Place the copy on the free executor with the best locality for the
    // task's input data (§IV: "close to the input data"). Hedge mode
    // instead optimizes the straggler escape: never co-locate with a
    // live sibling attempt, fastest tier first, locality as tiebreak.
    const auto best =
        place_copy(c.stage, c.task_index, now, config_.speculation.hedge,
                   std::numeric_limits<double>::infinity());
    if (best) launch_task(c.stage, *best, now, /*speculative=*/true);
  }
}

std::optional<Assignment> SimDriver::place_copy(
    StageId s, std::int32_t index, SimTime now, bool by_tier,
    double mult_below) const {
  const Cpus demand = dag_->stage(s).task_cpus;
  const auto hosts_live_attempt = [&](ExecutorId exec) {
    for (std::int64_t id = attempt_first_[task_ord(s, index)]; id >= 0;
         id = attempt_next_[static_cast<std::size_t>(id)]) {
      const TaskRuntime& a = attempts_[static_cast<std::size_t>(id)];
      if (a.status == TaskStatus::Running && a.executor == exec) return true;
    }
    return false;
  };
  std::optional<Assignment> best;
  double best_mult = 1.0;
  for (const ExecutorRuntime& e : state_.executors()) {
    if (!e.schedulable(now) || e.free_cores() < demand) continue;
    if (by_tier && (e.speed_mult >= mult_below || hosts_live_attempt(e.id))) {
      continue;
    }
    const Locality l = task_locality_on(*dag_, master_, topo_, s, index, e.id);
    const double mult = by_tier ? e.speed_mult : 1.0;
    if (!best || mult < best_mult ||
        (mult == best_mult &&
         static_cast<int>(l) < static_cast<int>(best->locality))) {
      best = Assignment{index, e.id, l};
      best_mult = mult;
    }
  }
  return best;
}

bool SimDriver::inputs_exist(StageId s, std::int32_t index) const {
  bool all = true;
  dag_->for_each_task_input(s, index, [&](const TaskInput& in) {
    all = all && master_.exists(in.block);
  });
  return all;
}

void SimDriver::assign_speed_tiers() {
  // Dedicated forked stream so tier placement never perturbs the
  // scheduling/fault RNG sequences (same discipline as kFaultRngStream).
  Rng tier_rng = Rng(config_.seed).fork(kTierRngStream);
  const std::size_t n = state_.executors().size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // Fisher–Yates so tier membership is an unbiased random subset.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        tier_rng.uniform_int(static_cast<std::int64_t>(i)));
    std::swap(order[i - 1], order[j]);
  }
  std::size_t next = 0;
  for (std::size_t t = 0; t < config_.tail.tiers.size(); ++t) {
    const SimConfig::ExecTier& tier = config_.tail.tiers[t];
    // dagonlint: allow(narrowing-cast): rounded tier headcount, a dimensionless executor count
    std::size_t count = static_cast<std::size_t>(
        tier.fraction * static_cast<double>(n) + 0.5);
    count = std::min(count, n - next);
    for (std::size_t k = 0; k < count; ++k, ++next) {
      ExecutorRuntime& e = state_.executors()[order[next]];
      e.speed_tier = static_cast<std::int32_t>(t);
      e.speed_mult = tier.mult;
    }
  }
}

void SimDriver::try_escalation(SimTime now) {
  for (const StageId s : state_.schedulable_stages()) {
    if (stage_critical_[static_cast<std::size_t>(s.value())] == 0) continue;
    const StageRuntime& rt = state_.stage(s);
    if (rt.pending.empty()) continue;
    // Delay-scheduling-style patience: escalate only once the stage's
    // head-of-line task has sat past the configured wait with no
    // ordinary launch relieving the queue.
    const SimTime since = std::max(
        rt.ready_time,
        stage_last_launch_[static_cast<std::size_t>(s.value())]);
    if (since < SimTime{0} || now - since < config_.tail.escalation_wait) {
      continue;
    }
    const std::int32_t index = *rt.pending.begin();
    if (!inputs_exist(s, index)) continue;
    // Only escalate onto a strictly faster tier — an escalation onto
    // baseline hardware is just a worse-locality ordinary launch.
    const auto best = place_copy(s, index, now, /*by_tier=*/true, 1.0);
    if (!best) continue;
    ++metrics_.hedge.escalations;
    launch_task(s, *best, now, /*speculative=*/false);
  }
}

void SimDriver::handle_executor_crash(ExecutorId exec, SimTime now) {
  ExecutorRuntime& e = state_.executor(exec);
  if (!e.alive()) return;
  std::int64_t alive = 0;
  for (const ExecutorRuntime& other : state_.executors()) {
    if (other.alive()) ++alive;
  }
  DAGON_CHECK_MSG(alive > 1, "fault plan would crash the last executor");
  // Tear down the gray-failure state first so suspicion/blacklist flags
  // never survive on a dead executor.
  if (e.suspect()) clear_suspicion(exec, now, /*recovered=*/false);
  e.blacklisted_until = SimTime{0};
  e.blacklist_failures = 0;
  if (detector_) detector_->stop(exec);
  ++metrics_.faults.executor_crashes;
  ++exec_faults(exec).crashes;
  DAGON_DEBUG("t=" << format_duration(now) << " executor " << exec
                   << " crashed");

  // 1. Fail every attempt running on the victim (returns their cores to
  // the still-alive bookkeeping, schedules retries).
  std::vector<TaskId> victims;
  for_each_running([&](std::int64_t id) {
    if (attempts_[static_cast<std::size_t>(id)].executor == exec) {
      victims.push_back(TaskId(id));
    }
  });
  for (const TaskId id : victims) fail_attempt(id, now, /*from_crash=*/true);

  // 2. Remove the executor from the cluster for good. Suspicion was
  // cleared above, so the edge here is always Healthy → Dead.
  state_.set_health(exec, ExecutorHealth::Dead, &metrics_.fsm.executor);
  if (e.reserved_cores > Cpus{0}) {
    metrics_.reserved_cores.add(now,
                                -static_cast<double>(e.reserved_cores.count()));
  }
  e.reserved_cores = Cpus{0};
  e.pending_reservation = Cpus{0};
  state_.set_free_cores(exec, Cpus{0});

  // 3. Drop its blocks. Blocks whose last copy died are recomputed from
  // lineage — eagerly when a live reader still wants them, lazily (via
  // ensure_inputs_available at retry time) otherwise.
  const auto drop = master_.drop_executor(exec);
  metrics_.faults.memory_blocks_lost += drop.memory_dropped;
  metrics_.faults.disk_copies_lost += drop.disk_dropped;
  metrics_.faults.rereplications += drop.rereplicated;
  metrics_.faults.blocks_fully_lost +=
      static_cast<std::int64_t>(drop.lost.size());
  for (const BlockId& block : drop.lost) {
    if (oracle_.remaining_ref_count(block) > 0) recover_block(block, now);
  }
  // Stages whose parents were re-opened must wait for the recompute.
  state_.demote_unready();
  push_priority_update();
}

void SimDriver::fail_attempt(TaskId id, SimTime now, bool from_crash) {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < attempts_.size());
  TaskRuntime& attempt = attempts_[static_cast<std::size_t>(id.value())];
  if (attempt.status != TaskStatus::Running) {
    return;  // lost a speculation race / already failed via the crash
  }
  fsm::transition(attempt.status, TaskStatus::Failed, id.value(),
                  &metrics_.fsm.task);
  attempt.finish_time = now;

  const StageId s = attempt.stage;
  const std::int32_t index = attempt.index;
  state_.add_free_cores(attempt.executor, dag_->stage(s).task_cpus);
  --state_.stage(s).running;
  release_attempt(id, now);
  if (from_crash) {
    ++metrics_.faults.crash_failures;
  } else {
    ++metrics_.faults.transient_failures;
    ++exec_faults(attempt.executor).transient_failures;
    note_attempt_failure(attempt.executor, now);
  }
  DAGON_DEBUG("t=" << format_duration(now) << " stage " << s << " task "
                   << index << " failed on exec " << attempt.executor
                   << (from_crash ? " (executor crash)" : " (transient)"));

  // Retry only when nothing else can still complete the index: no twin
  // attempt running, index not already finished.
  if (state_.stage(s).status_of(index) != TaskStatus::Finished &&
      !has_live_attempt(s, index)) {
    // Nothing can still complete the index: it fails at the task level
    // too (Running → Failed); the retry requeue moves it back to
    // Pending.
    state_.mark_failed(s, index);
    schedule_retry(s, index, now);
  }
}

void SimDriver::schedule_retry(StageId s, std::int32_t index, SimTime now) {
  std::int32_t& count = retry_counts_[task_ord(s, index)];
  if (count >= config_.faults.max_task_retries) {
    throw InvariantError("task exceeded max_task_retries — job failed");
  }
  const SimTime backoff = fault_plan_.retry_backoff(count);
  ++count;
  ++metrics_.faults.retries;
  queue_.push(Event{now + backoff, EventType::TaskRetry, TaskId::invalid(),
                    ExecutorId::invalid(), BlockId{}, s.value(), index});
}

void SimDriver::handle_task_retry(StageId s, std::int32_t index,
                                  SimTime now) {
  // The index may have completed (a twin finished), be running again, or
  // have been re-queued by lineage recovery while the backoff ran.
  if (state_.stage(s).status_of(index) == TaskStatus::Finished) return;
  if (has_live_attempt(s, index)) return;
  if (state_.stage(s).pending.contains(index)) return;
  // A crash between failure and retry may have destroyed the inputs.
  ensure_inputs_available(s, index, now);
  // The failed launch consumed this task's block references; make them
  // live again so cache policies keep the inputs warm for the re-run.
  oracle_.restore_task_refs(s, index);
  state_.readd_pending(s, index);
  state_.demote_unready();
  push_priority_update();
  DAGON_DEBUG("t=" << format_duration(now) << " retrying stage " << s
                   << " task " << index);
}

void SimDriver::handle_fault_tick(SimTime now) {
  const SimTime interval = config_.faults.block_loss_interval;
  for (const ExecutorRuntime& e : state_.executors()) {
    if (!e.alive()) continue;
    const BlockManager& mgr = master_.manager(e.id);
    // Snapshot ids first (ascending storage order): the loop body drops
    // blocks, which would invalidate a live walk of the store.
    std::vector<BlockId> cached;
    cached.reserve(mgr.num_blocks());
    for (const BlockManager::Entry& be : mgr.entries()) {
      cached.push_back(be.id);
    }
    for (const BlockId& block : cached) {
      if (!fault_plan_.draw_block_loss(master_.block_bytes(block),
                                       interval)) {
        continue;
      }
      // Memory-only loss: the durable disk copy survives, so no
      // recovery is needed — the next reader pays a disk read.
      master_.drop_memory_block(block, e.id);
      ++metrics_.faults.memory_blocks_lost;
      DAGON_TRACE("t=" << format_duration(now) << " lost cached block "
                       << block << " on exec " << e.id);
    }
  }
  queue_.push(Event{now + interval, EventType::FaultTick, TaskId::invalid(),
                    ExecutorId::invalid(), BlockId{}});
}

void SimDriver::ensure_inputs_available(StageId s, std::int32_t index,
                                        SimTime now) {
  dag_->for_each_task_input(s, index, [&](const TaskInput& in) {
    if (!master_.exists(in.block)) recover_block(in.block, now);
  });
}

void SimDriver::recover_block(const BlockId& block, SimTime now) {
  if (master_.exists(block)) return;
  const Rdd& rdd = dag_->rdd(block.rdd);
  // Zero-byte outputs are never materialized (and never read): nothing
  // to recover.
  if (rdd.bytes_per_partition <= Bytes{0}) return;
  const auto producer = dag_->producer_of(block.rdd);
  DAGON_CHECK_MSG(producer.has_value(),
                  "lost block " << block << " has no producer stage");
  const StageId s = *producer;
  const std::int32_t p = block.partition;
  if (state_.stage(s).status_of(p) != TaskStatus::Finished) {
    return;  // recompute already pending (or running)
  }
  const bool was_finished = state_.stage(s).finished;
  state_.reopen_task(s, p);
  oracle_.restore_task_refs(s, p);
  // A re-opened stage un-finishes its job: completion will be detected
  // (and a fresh JobFinish emitted) when the recompute lands.
  if (serving_ && was_finished) {
    JobRuntime& j = jobs_[static_cast<std::size_t>(job_of(s))];
    if (j.unfinished_stages++ == 0) j.finished = SimTime{-1};
  }
  ++metrics_.faults.lineage_recomputes;
  DAGON_DEBUG("t=" << format_duration(now) << " recomputing stage " << s
                   << " task " << p << " for lost block " << block);
  // The recompute reads the producer's own inputs — recurse if the same
  // crash destroyed those too (bounded by DAG depth; raw inputs always
  // survive on HDFS).
  ensure_inputs_available(s, p, now);
}

bool SimDriver::has_live_attempt(StageId s, std::int32_t index) const {
  for (std::int64_t id = attempt_first_[task_ord(s, index)]; id >= 0;
       id = attempt_next_[static_cast<std::size_t>(id)]) {
    if (attempts_[static_cast<std::size_t>(id)].status ==
        TaskStatus::Running) {
      return true;
    }
  }
  return false;
}

bool SimDriver::defer_partitioned_report(const Event& e, SimTime now) {
  DAGON_CHECK(e.task.valid() &&
              static_cast<std::size_t>(e.task.value()) < attempts_.size());
  const TaskRuntime& a = attempts_[static_cast<std::size_t>(e.task.value())];
  // Cancelled / already-failed attempts fall through to the handler's
  // normal early-return; only a live attempt's report can be held back.
  if (a.status != TaskStatus::Running) return false;
  const SimTime heal =
      fault_plan_.partitioned_until(rack_of_exec(a.executor), now);
  if (heal <= now) return false;
  ++metrics_.faults.deferred_reports;
  Event deferred = e;
  deferred.time = heal;  // re-examined at heal (partitions may overlap)
  queue_.push(deferred);
  DAGON_TRACE("t=" << format_duration(now) << " deferring report of stage "
                   << a.stage << " task " << a.index
                   << " to heal at " << format_duration(heal));
  return true;
}

void SimDriver::handle_heartbeat(ExecutorId exec, SimTime now) {
  const ExecutorRuntime& e = state_.executor(exec);
  // Dead executors emit no heartbeats; a late declared-dead executor
  // never re-registers (Spark would refuse the stale executor id too).
  if (!e.alive()) return;
  if (fault_plan_.partitioned_until(rack_of_exec(exec), now) > now) {
    ++metrics_.faults.heartbeats_dropped;
  } else {
    detector_->record_heartbeat(exec, now);
    // Re-classify on arrival so a resumed executor is re-admitted
    // immediately, not at the next tick.
    evaluate_executor(exec, now);
  }
  // The emission cadence itself degrades with the executor: a slowed
  // executor heartbeats late, which is exactly what makes it suspicious.
  const double slow = fault_plan_.degrade_factor(exec, now);
  const SimTime interval =
      scale_time(config_.faults.heartbeat_interval, slow);
  queue_.push(Event{now + interval, EventType::Heartbeat, TaskId::invalid(),
                    exec, BlockId{}});
}

void SimDriver::evaluate_suspicions(SimTime now) {
  for (const ExecutorRuntime& e : state_.executors()) {
    if (e.alive()) evaluate_executor(e.id, now);
  }
}

void SimDriver::evaluate_executor(ExecutorId exec, SimTime now) {
  ExecutorRuntime& e = state_.executor(exec);
  if (!e.alive()) return;
  switch (detector_->classify(exec, now)) {
    case FailureDetector::State::Healthy:
      if (e.suspect()) clear_suspicion(exec, now, /*recovered=*/true);
      break;
    case FailureDetector::State::Suspect:
      if (!e.suspect()) enter_suspicion(exec, now);
      break;
    case FailureDetector::State::Dead:
      declare_dead(exec, now);
      break;
  }
}

void SimDriver::enter_suspicion(ExecutorId exec, SimTime now) {
  state_.set_health(exec, ExecutorHealth::Suspect, &metrics_.fsm.executor);
  master_.set_executor_suspect(exec, true);
  ++metrics_.faults.suspicions;
  ++exec_faults(exec).suspicions;
  DAGON_DEBUG("t=" << format_duration(now) << " executor " << exec
                   << " suspected (phi=" << detector_->phi(exec, now)
                   << ")");
  // Proactive re-replication: give every block whose copies all sit on
  // suspect executors a durable copy on the first healthy executor, so a
  // later death costs zero lineage recomputes. (The copy is modelled as
  // instantaneous; its bytes are reported, not charged to the network.)
  ExecutorId target = ExecutorId::invalid();
  for (const ExecutorRuntime& other : state_.executors()) {
    if (other.alive() && !other.suspect()) {
      target = other.id;
      break;
    }
  }
  if (!target.valid()) return;  // every survivor suspect: nowhere to copy
  const auto rr = master_.rereplicate_suspect_blocks(target);
  if (rr.blocks > 0) {
    metrics_.faults.proactive_rereplications += rr.blocks;
    metrics_.faults.rereplicated_bytes += rr.bytes;
    exec_faults(exec).rereplicated_blocks += rr.blocks;
    exec_faults(exec).rereplicated_bytes += rr.bytes;
    DAGON_DEBUG("t=" << format_duration(now) << " re-replicated "
                     << rr.blocks << " at-risk blocks to exec " << target);
  }
}

void SimDriver::clear_suspicion(ExecutorId exec, SimTime now,
                                bool recovered) {
  state_.set_health(exec, ExecutorHealth::Healthy, &metrics_.fsm.executor);
  master_.set_executor_suspect(exec, false);
  if (recovered) {
    ++metrics_.faults.false_suspicions;
    ++exec_faults(exec).false_suspicions;
    DAGON_DEBUG("t=" << format_duration(now) << " executor " << exec
                     << " resumed heartbeating; re-admitted");
  }
}

void SimDriver::declare_dead(ExecutorId exec, SimTime now) {
  // Never kill the last survivor on silence alone (e.g. every rack
  // partitioned at once): keep it suspect and let the heal decide.
  std::int64_t alive = 0;
  for (const ExecutorRuntime& other : state_.executors()) {
    if (other.alive()) ++alive;
  }
  if (alive <= 1) return;
  ++metrics_.faults.executors_declared_dead;
  DAGON_DEBUG("t=" << format_duration(now) << " executor " << exec
                   << " declared dead (phi=" << detector_->phi(exec, now)
                   << ")");
  // Exactly the planned-crash recovery path: fail attempts, drop blocks,
  // recompute what died (handle_executor_crash also stops the detector).
  handle_executor_crash(exec, now);
}

void SimDriver::note_attempt_failure(ExecutorId exec, SimTime now) {
  const std::int32_t threshold = config_.faults.blacklist_threshold;
  if (threshold <= 0) return;
  ExecutorRuntime& e = state_.executor(exec);
  if (!e.alive()) return;
  ++e.blacklist_failures;
  if (e.blacklisted_until <= now && e.blacklist_failures >= threshold) {
    e.blacklisted_until = now + config_.faults.blacklist_probation;
    ++metrics_.faults.blacklist_entries;
    ++exec_faults(exec).blacklist_entries;
    DAGON_DEBUG("t=" << format_duration(now) << " executor " << exec
                     << " blacklisted until "
                     << format_duration(e.blacklisted_until));
  }
}

void SimDriver::expire_blacklists(SimTime now) {
  if (config_.faults.blacklist_threshold <= 0) return;
  for (ExecutorRuntime& e : state_.executors()) {
    if (!e.alive() || e.blacklisted_until == SimTime{0} ||
        e.blacklisted_until > now) {
      continue;
    }
    // Probation over: clean slate.
    e.blacklisted_until = SimTime{0};
    e.blacklist_failures = 0;
    ++metrics_.faults.blacklist_exits;
    ++exec_faults(e.id).blacklist_exits;
    DAGON_DEBUG("t=" << format_duration(now) << " executor " << e.id
                     << " leaves blacklist probation");
  }
}

void SimDriver::handle_job_submit(std::int32_t job, SimTime now) {
  DAGON_CHECK(job >= 0 &&
              static_cast<std::size_t>(job) < jobs_.size());
  JobRuntime& j = jobs_[static_cast<std::size_t>(job)];
  DAGON_CHECK_MSG(!j.submitted, "job submitted twice");
  j.submitted = true;
  j.submit_time = now;
  for (const StageId s :
       config_.serving.jobs[static_cast<std::size_t>(job)].stages) {
    state_.set_stage_gated(s, false);
    oracle_.set_stage_active(s, true);
  }
  // Promotion runs the normal parent check, so root stages of the job
  // become schedulable now and downstream stages wait as usual.
  state_.refresh_ready(now);
  push_priority_update();
  DAGON_DEBUG("t=" << format_duration(now) << " job "
                   << config_.serving.jobs[static_cast<std::size_t>(job)]
                          .name
                   << " submitted");
}

void SimDriver::verify_quiescent() const {
  DAGON_CHECK_MSG(metrics_.busy_cores.value() == 0.0,
                  "end of run: busy_cores did not return to zero");
  DAGON_CHECK_MSG(metrics_.running_tasks.value() == 0.0,
                  "end of run: running_tasks did not return to zero");
  for (const ExecutorRuntime& e : state_.executors()) {
    if (e.alive()) {
      DAGON_CHECK_MSG(
          e.free_cores() + e.reserved_cores == topo_.executor(e.id).cores,
          "end of run: cores leaked on executor " << e.id);
      DAGON_CHECK_MSG(e.pending_reservation == Cpus{0},
                      "end of run: unclaimed reservation on executor "
                          << e.id);
    } else {
      DAGON_CHECK_MSG(e.free_cores() == Cpus{0} &&
                          e.reserved_cores == Cpus{0} &&
                          e.pending_reservation == Cpus{0},
                      "end of run: crashed executor " << e.id
                                                      << " holds cores");
      DAGON_CHECK_MSG(!e.suspect(), "end of run: dead executor "
                                      << e.id << " still marked suspect");
    }
    DAGON_CHECK_MSG(e.suspect() == master_.executor_suspect(e.id),
                    "end of run: suspect flag for executor "
                        << e.id << " diverged between driver and master");
  }
  for (const StageRuntime& s : state_.stages()) {
    DAGON_CHECK_MSG(s.finished && s.running == 0 && s.pending.empty() &&
                        s.finished_tasks == s.num_tasks,
                    "end of run: stage " << s.id << " not quiescent");
    for (std::int32_t t = 0; t < s.num_tasks; ++t) {
      DAGON_CHECK_MSG(s.status_of(t) == TaskStatus::Finished,
                      "end of run: stage " << s.id << " task " << t
                                           << " is "
                                           << to_string(s.status_of(t)));
    }
  }
  if (serving_) {
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobRuntime& job = jobs_[j];
      DAGON_CHECK_MSG(job.submitted && job.unfinished_stages == 0 &&
                          job.finished >= SimTime{0},
                      "end of run: serving job " << j << " incomplete");
      DAGON_CHECK_MSG(job.running_cores == Cpus{0},
                      "end of run: serving job " << j << " holds cores");
      DAGON_CHECK_MSG(job.effective_task_hits <= job.effective_task_reads,
                      "end of run: job " << j
                                         << " effective-hit accounting");
    }
  }
  // Residency lifecycle must agree with the copy maps at quiescence.
  master_.verify_residency();
  DAGON_CHECK_MSG(!metrics_.fsm.any(),
                  "end of run: lifecycle transition breaches counted");
  for (const TaskRuntime& a : attempts_) {
    DAGON_CHECK_MSG(a.status != TaskStatus::Running,
                    "end of run: attempt of stage "
                        << a.stage << " task " << a.index
                        << " still running");
  }
  DAGON_CHECK_MSG(running_head_ < 0,
                  "end of run: attempt " << running_head_
                                         << " left on the running list");
  if (config_.per_executor_profiles) {
    for (const ExecutorProfile& p : metrics_.executor_profiles) {
      DAGON_CHECK_MSG(p.busy_cores.value() == 0.0,
                      "end of run: executor " << p.id
                                              << " profile still busy");
    }
  }
}

void SimDriver::push_priority_update() {
  // The epoch moves with every update to w_i, so pushes on events that
  // launched or finished nothing are skipped entirely.
  const PriorityValues& pv = state_.priority_values();
  if (pv.epoch() == pushed_pv_epoch_) return;
  pushed_pv_epoch_ = pv.epoch();
  oracle_.set_priority_values(pv.values());
}

void SimDriver::sample_pending(SimTime now) {
  for (const Executor& exec : topo_.executors()) {
    PendingSample sample;
    sample.time = now;
    for (const StageId s : state_.schedulable_stages()) {
      for (const std::int32_t index : state_.stage(s).pending) {
        const Locality l =
            task_locality_on(*dag_, master_, topo_, s, index, exec.id);
        if (l == Locality::Process || l == Locality::Node) {
          ++sample.node_local;
        } else if (l == Locality::Rack) {
          ++sample.rack_local;
        }
      }
    }
    metrics_.executor_profiles[static_cast<std::size_t>(exec.id.value())]
        .pending.push_back(sample);
  }
}

void SimDriver::finalize_metrics(SimTime end) {
  metrics_.jct = end;
  metrics_.busy_cores.set(end, metrics_.busy_cores.value());
  metrics_.running_tasks.set(end, metrics_.running_tasks.value());
  metrics_.reserved_cores.set(end, metrics_.reserved_cores.value());

  metrics_.stages.reserve(dag_->num_stages());
  for (const Stage& s : dag_->stages()) {
    const StageRuntime& rt = state_.stage(s.id);
    StageRecord record;
    record.id = s.id;
    record.name = s.name;
    record.ready_time = rt.ready_time;
    record.first_launch = rt.first_launch;
    record.finish_time = rt.finish_time;
    metrics_.stages.push_back(std::move(record));
  }

  metrics_.tasks.reserve(attempts_.size());
  for (const TaskRuntime& a : attempts_) {
    TaskRecord record;
    record.stage = a.stage;
    record.index = a.index;
    record.exec = a.executor;
    record.locality = a.locality;
    record.launch = a.launch_time;
    record.finish = a.finish_time;
    record.fetch_time = a.fetch_time;
    record.compute_time = a.compute_time;
    record.speculative = a.speculative;
    record.cancelled = a.status == TaskStatus::Cancelled;
    record.failed = a.status == TaskStatus::Failed;
    metrics_.tasks.push_back(record);
  }

  const auto& counters = master_.counters();
  metrics_.cache.insertions = counters.insertions;
  metrics_.cache.evictions = counters.evictions;
  metrics_.cache.proactive_evictions = counters.proactive_evictions;
  metrics_.cache.prefetches = counters.prefetches;
  metrics_.cache.rejected_admissions = counters.rejected_admissions;

  if (serving_) {
    metrics_.jobs.reserve(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const SimConfig::ServingJob& spec = config_.serving.jobs[j];
      const JobRuntime& rt = jobs_[j];
      JobStats stats;
      stats.name = spec.name;
      stats.weight = spec.weight;
      stats.submitted = rt.submit_time;
      stats.first_launch = rt.first_launch;
      stats.finished = rt.finished;
      stats.stages = static_cast<std::int64_t>(spec.stages.size());
      for (const StageId s : spec.stages) {
        stats.tasks += dag_->stage(s).num_tasks;
      }
      stats.effective_task_reads = rt.effective_task_reads;
      stats.effective_task_hits = rt.effective_task_hits;
      metrics_.jobs.push_back(std::move(stats));
    }
  }
}

}  // namespace dagon
