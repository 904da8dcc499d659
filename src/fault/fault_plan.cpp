#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dagon {

FaultPlan::FaultPlan(const FaultConfig& config, std::size_t num_executors,
                     std::size_t num_racks, std::uint64_t seed)
    : config_(config),
      rng_(Rng(seed).fork(kFaultRngStream)),
      tail_rng_(Rng(seed).fork(kHeavyTailRngStream)) {
  // Each check states what a valid value satisfies and negates it, so a
  // NaN (for which every comparison is false) fails it. Multipliers that
  // scale a SimTime must also be finite.
  if (!(config.task_fail_prob >= 0.0 && config.task_fail_prob < 1.0)) {
    throw ConfigError("faults.task_fail_prob must be in [0, 1)");
  }
  if (!(config.heavy_tail_prob >= 0.0 && config.heavy_tail_prob <= 1.0)) {
    throw ConfigError("faults.heavy_tail_prob must be in [0, 1]");
  }
  if (!(config.heavy_tail_mult >= 1.0 &&
        std::isfinite(config.heavy_tail_mult))) {
    throw ConfigError("faults.heavy_tail_mult must be finite and >= 1.0");
  }
  if (!(config.block_loss_per_gb_hour >= 0.0)) {
    throw ConfigError("faults.block_loss_per_gb_hour must be >= 0");
  }
  if (config.block_loss_interval <= SimTime{0}) {
    throw ConfigError("faults.block_loss_interval must be positive");
  }
  if (config.retry_backoff_base <= SimTime{0}) {
    throw ConfigError("faults.retry_backoff_base must be positive");
  }
  if (config.retry_backoff_cap < config.retry_backoff_base) {
    throw ConfigError(
        "faults.retry_backoff_cap must be >= retry_backoff_base");
  }
  if (config.max_task_retries <= 0) {
    throw ConfigError("faults.max_task_retries must be positive");
  }
  for (const ExecutorCrashSpec& spec : config.crashes) {
    if (spec.at < SimTime{0}) {
      throw ConfigError("faults.crashes: crash time must be >= 0");
    }
    if (spec.executor < -1 ||
        (spec.executor >= 0 &&
         static_cast<std::size_t>(spec.executor) >= num_executors)) {
      throw ConfigError("faults.crashes: executor index out of range");
    }
  }
  // Each crash kills a distinct executor, so this bound guarantees a
  // survivor — without it every job would deadlock.
  if (config.crashes.size() >= num_executors) {
    throw ConfigError(
        "faults.crashes would kill every executor; at least one must "
        "survive");
  }
  for (const PartitionSpec& spec : config.partitions) {
    if (spec.at < SimTime{0}) {
      throw ConfigError("faults.partitions: start time must be >= 0");
    }
    if (spec.heal_at <= spec.at) {
      throw ConfigError("faults.partitions: heal time must be after start");
    }
    if (spec.rack < -1 ||
        (spec.rack >= 0 && static_cast<std::size_t>(spec.rack) >= num_racks)) {
      throw ConfigError("faults.partitions: rack index out of range");
    }
  }
  // A single-rack cluster partitioned from the driver would suspect (and
  // eventually kill) every executor at once; require a second rack so
  // the control plane always has a reachable side to schedule on.
  if (!config.partitions.empty() && num_racks < 2) {
    throw ConfigError("faults.partitions require a cluster with >= 2 racks");
  }
  for (const DegradeSpec& spec : config.degrades) {
    if (spec.at < SimTime{0}) {
      throw ConfigError("faults.degrades: start time must be >= 0");
    }
    if (spec.until <= spec.at) {
      throw ConfigError("faults.degrades: end time must be after start");
    }
    if (spec.executor < -1 ||
        (spec.executor >= 0 &&
         static_cast<std::size_t>(spec.executor) >= num_executors)) {
      throw ConfigError("faults.degrades: executor index out of range");
    }
    if (!(spec.slowdown >= 1.0 && std::isfinite(spec.slowdown))) {
      throw ConfigError(
          "faults.degrades: slowdown must be finite and >= 1.0");
    }
  }
  if (config.heartbeat_interval <= SimTime{0}) {
    throw ConfigError("faults.heartbeat_interval must be positive");
  }
  if (!(config.suspect_phi > 0.0)) {
    throw ConfigError("faults.suspect_phi must be positive");
  }
  if (!(config.dead_phi >= config.suspect_phi)) {
    throw ConfigError("faults.dead_phi must be >= suspect_phi");
  }
  if (config.blacklist_threshold < 0) {
    throw ConfigError("faults.blacklist_threshold must be >= 0");
  }
  if (config.blacklist_probation <= SimTime{0}) {
    throw ConfigError("faults.blacklist_probation must be positive");
  }

  // Resolve random targets now: each -1 spec gets a distinct executor
  // not claimed by any other crash, drawn from the fault stream.
  std::vector<bool> taken(num_executors, false);
  for (const ExecutorCrashSpec& spec : config.crashes) {
    if (spec.executor >= 0) {
      taken[static_cast<std::size_t>(spec.executor)] = true;
    }
  }
  crashes_.reserve(config.crashes.size());
  for (const ExecutorCrashSpec& spec : config.crashes) {
    std::size_t target;
    if (spec.executor >= 0) {
      target = static_cast<std::size_t>(spec.executor);
    } else {
      do {
        target = static_cast<std::size_t>(
            rng_.uniform_int(static_cast<std::int64_t>(num_executors)));
      } while (taken[target]);
      taken[target] = true;
    }
    crashes_.push_back(
        Crash{spec.at, ExecutorId(static_cast<std::int32_t>(target))});
  }
  std::stable_sort(crashes_.begin(), crashes_.end(),
                   [](const Crash& a, const Crash& b) { return a.at < b.at; });

  // Resolve partition and degrade targets after crashes, in spec order,
  // so the crash schedule of a PR 2 config is unchanged by appending
  // gray specs. Random racks/executors are drawn uniformly (duplicates
  // allowed: two windows may hit the same rack).
  partitions_.reserve(config.partitions.size());
  for (const PartitionSpec& spec : config.partitions) {
    std::int32_t rack = spec.rack;
    if (rack < 0) {
      rack = static_cast<std::int32_t>(
          rng_.uniform_int(static_cast<std::int64_t>(num_racks)));
    }
    partitions_.push_back(Partition{spec.at, spec.heal_at, RackId(rack)});
  }
  std::stable_sort(
      partitions_.begin(), partitions_.end(),
      [](const Partition& a, const Partition& b) { return a.at < b.at; });

  degrades_.reserve(config.degrades.size());
  for (const DegradeSpec& spec : config.degrades) {
    std::int32_t exec = spec.executor;
    if (exec < 0) {
      exec = static_cast<std::int32_t>(
          rng_.uniform_int(static_cast<std::int64_t>(num_executors)));
    }
    degrades_.push_back(
        Degrade{spec.at, spec.until, ExecutorId(exec), spec.slowdown});
  }
  std::stable_sort(
      degrades_.begin(), degrades_.end(),
      [](const Degrade& a, const Degrade& b) { return a.at < b.at; });
}

SimTime FaultPlan::partitioned_until(RackId rack, SimTime now) const {
  SimTime heal{};
  for (const Partition& p : partitions_) {
    if (p.rack == rack && p.at <= now && now < p.heal_at) {
      heal = std::max(heal, p.heal_at);
    }
  }
  return heal;
}

bool FaultPlan::partition_active(SimTime now) const {
  return std::any_of(partitions_.begin(), partitions_.end(),
                     [&](const Partition& p) {
                       return p.at <= now && now < p.heal_at;
                     });
}

SimTime FaultPlan::cross_partition_heal(RackId rack_a, RackId rack_b,
                                        SimTime now) const {
  if (rack_a == rack_b) return SimTime{0};
  return std::max(partitioned_until(rack_a, now),
                  partitioned_until(rack_b, now));
}

double FaultPlan::degrade_factor(ExecutorId exec, SimTime now) const {
  double factor = 1.0;
  for (const Degrade& d : degrades_) {
    if (d.exec == exec && d.at <= now && now < d.until) {
      factor *= d.slowdown;
    }
  }
  return factor;
}

bool FaultPlan::draw_block_loss(Bytes bytes, SimTime interval) {
  if (bytes <= Bytes{0}) return false;
  const double gib =
      static_cast<double>(bytes.count()) / static_cast<double>(kGiB.count());
  const double rate_per_sec = config_.block_loss_per_gb_hour / 3600.0;
  const double p = 1.0 - std::exp(-rate_per_sec * gib * to_seconds(interval));
  return rng_.bernoulli(p);
}

SimTime FaultPlan::retry_backoff(std::int32_t attempt) const {
  const double scaled =
      static_cast<double>(config_.retry_backoff_base.count()) *
      std::pow(2.0, static_cast<double>(std::min(attempt, 30)));
  return time_from_usec(
      std::min(scaled, static_cast<double>(config_.retry_backoff_cap.count())));
}

}  // namespace dagon
