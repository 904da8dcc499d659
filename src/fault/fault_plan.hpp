// FaultPlan: the deterministic, seed-driven realization of a
// FaultConfig for one run.
//
// Built once by every driver: validates the knobs (ConfigError on
// nonsense, NaN included), resolves "random executor" crash targets, and
// owns the dedicated RNG stream every later fault draw (transient
// failures, block loss) comes from. Forking the stream off the base seed
// — rather than sharing the driver's generator — is what keeps the base
// trace unperturbed when faults are configured, so parallel sweeps
// mixing faulty and fault-free configs stay deterministic. The default
// FaultConfig schedules nothing and draws nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/strong_id.hpp"
#include "common/units.hpp"
#include "fault/fault_config.hpp"

namespace dagon {

/// Rng::fork stream id reserved for fault draws.
inline constexpr std::uint64_t kFaultRngStream = 0xfa;

/// Rng::fork stream id reserved for heavy-tail duration draws. Separate
/// from kFaultRngStream so enabling tail injection never perturbs the
/// crash/transient/block-loss schedule of an existing faulty config.
inline constexpr std::uint64_t kHeavyTailRngStream = 0x7a11;

class FaultPlan {
 public:
  /// Validates `config` against a cluster of `num_executors` executors
  /// in `num_racks` racks (throws ConfigError) and resolves the crash,
  /// partition and degrade schedules.
  FaultPlan(const FaultConfig& config, std::size_t num_executors,
            std::size_t num_racks, std::uint64_t seed);

  struct Crash {
    SimTime at{};
    ExecutorId exec = ExecutorId::invalid();
  };

  /// A resolved rack partition: the rack is unreachable during
  /// [at, heal_at).
  struct Partition {
    SimTime at{};
    SimTime heal_at{};
    RackId rack = RackId::invalid();
  };

  /// A resolved executor degradation over [at, until).
  struct Degrade {
    SimTime at{};
    SimTime until{};
    ExecutorId exec = ExecutorId::invalid();
    double slowdown = 1.0;
  };

  /// Resolved crash schedule, sorted by time; random targets are pinned
  /// to distinct executors at construction.
  [[nodiscard]] const std::vector<Crash>& crashes() const {
    return crashes_;
  }

  [[nodiscard]] const std::vector<Partition>& partitions() const {
    return partitions_;
  }
  [[nodiscard]] const std::vector<Degrade>& degrades() const {
    return degrades_;
  }

  /// Heal time of the latest partition isolating `rack` at `now`, or 0
  /// if the rack is reachable.
  [[nodiscard]] SimTime partitioned_until(RackId rack, SimTime now) const;

  /// Whether any rack is partitioned at `now`.
  [[nodiscard]] bool partition_active(SimTime now) const;

  /// Heal time after which traffic between `rack_a` and `rack_b` can
  /// flow again, or 0 if unaffected at `now`. Same-rack traffic never
  /// crosses a partition.
  [[nodiscard]] SimTime cross_partition_heal(RackId rack_a, RackId rack_b,
                                             SimTime now) const;

  /// Combined slowdown factor for work on `exec` at `now` (>= 1.0;
  /// overlapping degrade windows multiply).
  [[nodiscard]] double degrade_factor(ExecutorId exec, SimTime now) const;

  /// True when the driver should emit heartbeats and run the suspicion
  /// detector for this plan.
  [[nodiscard]] bool monitors_heartbeats() const {
    return config_.gray_active();
  }

  [[nodiscard]] bool samples_task_failures() const {
    return config_.task_fail_prob > 0.0;
  }
  [[nodiscard]] bool samples_block_loss() const {
    return config_.block_loss_per_gb_hour > 0.0;
  }
  [[nodiscard]] bool samples_heavy_tail() const {
    return config_.heavy_tail_prob > 0.0;
  }

  /// One draw per launched attempt (dedicated stream): does this attempt
  /// hit the heavy tail? If so its compute time is scaled by
  /// `config().heavy_tail_mult`.
  [[nodiscard]] bool draw_heavy_tail() {
    return tail_rng_.bernoulli(config_.heavy_tail_prob);
  }

  /// One draw per launched attempt: does this attempt fail?
  [[nodiscard]] bool draw_task_failure() {
    return rng_.bernoulli(config_.task_fail_prob);
  }

  /// Fraction of the attempt's duration after which it fails, in (0, 1].
  [[nodiscard]] double draw_failure_point() { return 1.0 - rng_.uniform(); }

  /// One draw per (cached block, sampling tick): is this block lost?
  [[nodiscard]] bool draw_block_loss(Bytes bytes, SimTime interval);

  /// Backoff before retry number `attempt` (0-based) of a task index.
  [[nodiscard]] SimTime retry_backoff(std::int32_t attempt) const;

  [[nodiscard]] const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
  Rng rng_;
  Rng tail_rng_;
  std::vector<Crash> crashes_;
  std::vector<Partition> partitions_;
  std::vector<Degrade> degrades_;
};

}  // namespace dagon
