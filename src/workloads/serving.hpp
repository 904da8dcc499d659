// Multi-job runs: several applications over one shared cluster and
// cache, each gated until its submit time.
//
// The paper evaluates one application per run but frames Dagon for
// multi-tenant clusters (§III-A2) and contrasts Spark's FIFO and Fair
// schedulers (§I); production Spark clusters serve a stream of
// concurrent jobs whose cached data compete for the same memory (the
// setting LERC [Yu et al., arXiv:1708.07941] targets). This module
// merges per-job Workloads into one super-DAG (optionally sharing
// identically named input datasets, so one job's cache fill serves
// another's read) plus a SimConfig::ServingConfig that gates each job's
// stages until its JobSubmit event fires.
//
// A batch is the case with every job submitted at t=0 and no inter-job
// fair share, so the stage selector alone orders work across jobs: FIFO
// runs them job by job (submission order), Fair balances allocated
// cores across the jobs' ready stages, and Dagon's pv_i ranks stages
// across job boundaries by remaining downstream work. An arrival
// process turns a batch into a stream.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sim_config.hpp"
#include "workloads/workload.hpp"

namespace dagon {

enum class ArrivalKind {
  /// Memoryless arrivals: exponential inter-arrival gaps at `rate`.
  Poisson,
  /// Trace-driven: explicit gap sequence, repeated cyclically.
  Trace,
  /// Heavy-traffic bursts: alternating phases of `burst_len` jobs at
  /// `burst_rate` and `burst_len` jobs at `idle_rate`.
  Bursty,
};

[[nodiscard]] constexpr const char* arrival_kind_name(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::Poisson: return "poisson";
    case ArrivalKind::Trace: return "trace";
    case ArrivalKind::Bursty: return "bursty";
  }
  return "?";
}

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::Poisson;
  /// Poisson mean arrival rate, jobs per second.
  double rate_per_sec = 0.5;
  /// Trace gaps between consecutive arrivals, seconds; cycled when the
  /// job count exceeds the trace length.
  std::vector<double> trace_gaps_sec;
  /// Bursty: in-burst and between-burst rates (jobs per second).
  double burst_rate_per_sec = 4.0;
  double idle_rate_per_sec = 0.25;
  /// Jobs per bursty phase.
  std::int32_t burst_len = 4;
  /// Arrival draws use a dedicated forked stream off this seed, so the
  /// arrival pattern never perturbs the run's other random choices.
  std::uint64_t seed = 42;
};

/// Submit times for `n` jobs: non-decreasing, first arrival at t=0 (the
/// stream starts with work). Deterministic in (spec, n). Throws
/// ConfigError when a rate of `spec.kind` is not finite and > 0, a
/// trace is empty or has a gap that is not finite and >= 0, burst_len
/// is < 1, or an arrival time does not fit SimTime.
[[nodiscard]] std::vector<SimTime> generate_arrivals(
    const ArrivalSpec& spec, std::int32_t n);

struct ServingOptions {
  /// Merge identically named input RDDs across jobs into one dataset
  /// (cross-job cache sharing). Off = private prefixed inputs.
  bool share_inputs = true;
  /// Inter-job weighted fair sharing in the schedule loop.
  bool fair_share = true;
  /// Per-job fair-share weights; empty = all 1. Length must match the
  /// job count otherwise.
  std::vector<std::int32_t> weights;
};

struct ServingWorkload {
  struct Merged {
    /// The merged super-DAG (one connected component per job).
    Workload combined;
  };
  Merged batch;
  /// Per job: name, stage ids inside the merged DAG, submit time and
  /// weight. Ready to assign into SimConfig::serving.
  SimConfig::ServingConfig serving;
};

/// Merges `workloads` (in submission order) into one batch: every job
/// submitted at t=0 with weight 1, FIFO across jobs. Stage and RDD ids
/// are renumbered job by job, so FIFO's stage-id order equals submission
/// order.
///
/// With `share_inputs`, input RDDs keep their bare names and identically
/// named inputs across jobs become ONE dataset in the merged DAG (their
/// shape must match exactly) — the structural basis for cross-job cache
/// sharing in serving mode: one job's cached read benefits every other
/// job touching the same input. Without it, inputs are prefixed
/// "job/name" and stay private.
[[nodiscard]] ServingWorkload merge_workloads(
    const std::vector<Workload>& workloads, bool share_inputs = false);

/// Builds a serving run: merges `jobs` and pairs each with its arrival
/// time from `spec`. Throws ConfigError on an invalid `spec` (see
/// generate_arrivals).
[[nodiscard]] ServingWorkload make_serving(const std::vector<Workload>& jobs,
                                           const ArrivalSpec& spec,
                                           const ServingOptions& opt = {});

}  // namespace dagon
