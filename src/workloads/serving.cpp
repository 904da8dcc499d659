#include "workloads/serving.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dagon {

namespace {

void require_rate(double rate_per_sec, const char* what) {
  if (!std::isfinite(rate_per_sec) || rate_per_sec <= 0.0) {
    throw ConfigError(std::string(what) + " must be finite and > 0");
  }
}

void validate(const ArrivalSpec& spec) {
  switch (spec.kind) {
    case ArrivalKind::Poisson:
      require_rate(spec.rate_per_sec, "poisson arrival rate");
      return;
    case ArrivalKind::Trace:
      if (spec.trace_gaps_sec.empty()) {
        throw ConfigError("trace arrivals need at least one gap");
      }
      for (const double gap_sec : spec.trace_gaps_sec) {
        if (!std::isfinite(gap_sec) || gap_sec < 0.0) {
          throw ConfigError("trace gaps must be finite and >= 0");
        }
      }
      return;
    case ArrivalKind::Bursty:
      require_rate(spec.burst_rate_per_sec, "bursty burst rate");
      require_rate(spec.idle_rate_per_sec, "bursty idle rate");
      if (spec.burst_len < 1) throw ConfigError("burst_len must be >= 1");
      return;
  }
}

/// A gap of `gap_sec` seconds (>= 0) in SimTime µs, at least `min_gap`.
/// Throws ConfigError when the arrival it moves `t` to would not fit
/// SimTime: kTimeInfinity is the "never" sentinel, and a µs count of
/// 2^63 or more does not convert to int64 at all.
SimTime checked_gap(SimTime t, double gap_sec, SimTime min_gap) {
  const double us = gap_sec * static_cast<double>(kSec.count());
  // kTimeInfinity.count() converts to exactly 2^63.
  if (!(us < static_cast<double>(kTimeInfinity.count()))) {
    throw ConfigError("arrival time overflows SimTime");
  }
  const SimTime gap = std::max(min_gap, time_from_usec(us));
  if (gap >= kTimeInfinity - t) {
    throw ConfigError("arrival time overflows SimTime");
  }
  return gap;
}

/// One exponential inter-arrival gap at `rate_per_sec`, at least 1 µs.
SimTime exponential_gap(Rng& rng, SimTime t, double rate_per_sec) {
  // 1 - uniform() is in (0, 1], so the log argument never hits zero.
  const double gap_sec = -std::log(1.0 - rng.uniform()) / rate_per_sec;
  return checked_gap(t, gap_sec, SimTime{1});
}

}  // namespace

std::vector<SimTime> generate_arrivals(const ArrivalSpec& spec,
                                       std::int32_t n) {
  DAGON_CHECK_MSG(n > 0, "need at least one arriving job");
  validate(spec);
  // Dedicated stream: the same seed drives HDFS placement etc. in the
  // run itself, and arrivals must not perturb those draws.
  Rng rng = Rng(spec.seed).fork(/*stream=*/0x5e21);
  std::vector<SimTime> at;
  at.reserve(static_cast<std::size_t>(n));
  SimTime t{};
  for (std::int32_t i = 0; i < n; ++i) {
    if (i > 0) {
      switch (spec.kind) {
        case ArrivalKind::Poisson:
          t += exponential_gap(rng, t, spec.rate_per_sec);
          break;
        case ArrivalKind::Trace:
          t += checked_gap(
              t,
              spec.trace_gaps_sec[static_cast<std::size_t>(i - 1) %
                                  spec.trace_gaps_sec.size()],
              SimTime{0});
          break;
        case ArrivalKind::Bursty: {
          // Phases alternate every burst_len arrivals: jobs 0..L-1 land
          // in a burst, L..2L-1 trickle in, and so on.
          const bool in_burst = (i / spec.burst_len) % 2 == 0;
          t += exponential_gap(rng, t,
                               in_burst ? spec.burst_rate_per_sec
                                        : spec.idle_rate_per_sec);
          break;
        }
      }
    }
    at.push_back(t);
  }
  return at;
}

ServingWorkload merge_workloads(const std::vector<Workload>& workloads,
                                bool share_inputs) {
  if (workloads.empty()) {
    throw ConfigError("merge_workloads needs at least one workload");
  }
  // Shared input datasets registered so far: (bare name, merged id),
  // linear-searched — input counts are tiny.
  struct SharedInput {
    std::string name;
    RddId id;
    std::int32_t num_partitions;
    Bytes bytes_per_partition;
    bool cacheable;
  };
  std::vector<SharedInput> shared;
  std::string name;
  std::size_t name_len = 0;
  for (const Workload& w : workloads) name_len += w.name.size() + 1;
  name.reserve(name_len);
  for (const Workload& w : workloads) {
    if (!name.empty()) name += "+";
    name += w.name;
  }
  JobDagBuilder builder(name);
  ServingWorkload out;
  out.serving.jobs.reserve(workloads.size());

  for (const Workload& w : workloads) {
    SimConfig::ServingJob job;
    job.name = w.name;
    job.stages.reserve(w.dag.stages().size());
    // Renumber this job's RDDs/stages into the merged builder. Input
    // RDDs are re-registered; stage outputs are created implicitly by
    // add_stage, so we track the old->new RDD id mapping as we go.
    std::vector<RddId> rdd_map(w.dag.rdds().size(), RddId::invalid());
    for (const Rdd& r : w.dag.rdds()) {
      if (!r.is_input) continue;
      if (share_inputs) {
        const SharedInput* found = nullptr;
        for (const SharedInput& si : shared) {
          if (si.name == r.name) {
            found = &si;
            break;
          }
        }
        if (found != nullptr) {
          if (found->num_partitions != r.num_partitions ||
              found->bytes_per_partition != r.bytes_per_partition ||
              found->cacheable != r.cacheable) {
            throw ConfigError("shared input '" + r.name +
                              "' has mismatched shapes across jobs");
          }
          rdd_map[static_cast<std::size_t>(r.id.value())] = found->id;
          continue;
        }
        const RddId id =
            builder.input_rdd(r.name, r.num_partitions,
                              r.bytes_per_partition,
                              r.initially_cached_partitions);
        if (!r.cacheable) builder.set_rdd_cacheable(id, false);
        shared.push_back(SharedInput{r.name, id, r.num_partitions,
                                     r.bytes_per_partition, r.cacheable});
        rdd_map[static_cast<std::size_t>(r.id.value())] = id;
        continue;
      }
      const RddId id =
          builder.input_rdd(w.name + "/" + r.name, r.num_partitions,
                            r.bytes_per_partition,
                            r.initially_cached_partitions);
      if (!r.cacheable) builder.set_rdd_cacheable(id, false);
      rdd_map[static_cast<std::size_t>(r.id.value())] = id;
    }
    // Stages in topological (== id) order so inputs are always mapped.
    for (const Stage& s : w.dag.stages()) {
      JobDagBuilder::StageParams params;
      params.name = w.name + "/" + s.name;
      params.inputs.reserve(s.inputs.size());
      for (const RddRef& ref : s.inputs) {
        const RddId mapped =
            rdd_map[static_cast<std::size_t>(ref.rdd.value())];
        DAGON_CHECK_MSG(mapped.valid(),
                        "stage '" << s.name << "' reads an unmapped RDD");
        params.inputs.push_back({mapped, ref.kind});
      }
      params.num_tasks = s.num_tasks;
      params.task_cpus = s.task_cpus;
      params.task_duration = s.task_duration;
      const Rdd& out_rdd = w.dag.rdd(s.output);
      params.output_bytes_per_partition = out_rdd.bytes_per_partition;
      params.cache_output = out_rdd.cacheable;
      params.duration_skew = s.duration_skew;
      params.output_name = w.name + "/" + out_rdd.name;
      const StageId sid = builder.add_stage(params);
      rdd_map[static_cast<std::size_t>(s.output.value())] =
          builder.output_of(sid);
      job.stages.push_back(sid);
    }
    out.serving.jobs.push_back(std::move(job));
  }

  WorkloadCategory category = workloads.front().category;
  out.batch.combined = Workload{std::move(name), category, builder.build()};
  return out;
}

ServingWorkload make_serving(const std::vector<Workload>& jobs,
                             const ArrivalSpec& spec,
                             const ServingOptions& opt) {
  DAGON_CHECK_MSG(!jobs.empty(), "make_serving needs at least one job");
  if (!opt.weights.empty() && opt.weights.size() != jobs.size()) {
    throw ConfigError("serving weights must match the job count");
  }
  const std::vector<SimTime> arrivals =
      generate_arrivals(spec, static_cast<std::int32_t>(jobs.size()));
  ServingWorkload out = merge_workloads(jobs, opt.share_inputs);
  out.serving.fair_share = opt.fair_share;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SimConfig::ServingJob& sj = out.serving.jobs[j];
    sj.submit_at = arrivals[j];
    if (!opt.weights.empty()) sj.weight = opt.weights[j];
  }
  return out;
}

}  // namespace dagon
