// simbench: the simulator's end-to-end benchmark program.
//
// One process runs one workload (README.md in this directory lists them
// and the metrics):
//
//   simbench --workload paper-suite|shuffle-scale|serve-chaos
//            [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// A run repeats whole passes over the workload's simulations for about
// S seconds. Only calls into the library's top-level entry points are
// timed: make_workload / make_serving, AppProfiler::profile, the
// SimDriver constructor, SimDriver::run and metrics_fingerprint. Every
// simulation is checked (see check_run), and the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: even passes record spans around the same
// calls and replay the inner layers' hot const functions against each
// driver (outside the timed spans); odd passes run untraced, so the run
// also measures its own tracing overhead. Spans are kept in memory and
// written to --spans as Chrome trace JSON when the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/dagon.hpp"

using namespace dagon;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds since the recorder's origin
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 = root
  int sim = -1;     // run-wide simulation id, -1 = not inside one
};

/// Times calls and, when tracing, keeps one span per timed call.
class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {}

  void set_tracing(bool on) { tracing_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct Open {
    Clock::time_point start;
    int id = -1;
  };

  Open begin(const char* name, int parent, int sim) {
    Open o{Clock::now(), -1};
    if (tracing_) {
      o.id = static_cast<int>(spans_.size());
      spans_.push_back({name, offset(o.start), 0.0, parent, sim});
    }
    return o;
  }

  /// Closes `o`; returns its duration in seconds.
  double end(const Open& o) {
    const auto now = Clock::now();
    if (o.id >= 0) spans_[static_cast<std::size_t>(o.id)].end = offset(now);
    return std::chrono::duration<double>(now - o.start).count();
  }

 private:
  double offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  bool tracing_ = false;
  std::vector<Span> spans_;
};

/// Times `fn()` as span `name`; adds the seconds to `*acc`.
template <class Fn>
void timed(Recorder& rec, const char* name, int parent, int sim, double* acc,
           Fn&& fn) {
  const Recorder::Open o = rec.begin(name, parent, sim);
  try {
    fn();
  } catch (...) {
    *acc += rec.end(o);
    throw;
  }
  *acc += rec.end(o);
}

// -- the library surface the replays call --------------------------------

/// Locality task (s, index) would get on `exec` (sched layer).
Locality replay_locality(const JobDag& dag, const SimDriver& d, StageId s,
                         std::int32_t index, ExecutorId exec) {
  return task_locality_on(dag, d.master(), d.topology(), s, index, exec);
}

/// Input reads of task (s, index) (dag layer).
std::vector<TaskInput> replay_task_inputs(const JobDag& dag, StageId s,
                                          std::int32_t index) {
  return dag.task_inputs(s, index);
}

/// Where `reader` would read `block` from; nullopt when no copy is left
/// (cache layer).
std::optional<BlockManagerMaster::Lookup> replay_lookup(
    const SimDriver& d, const BlockId& block, ExecutorId reader) {
  if (!d.master().exists(block)) return std::nullopt;
  return d.master().lookup(block, reader);
}

/// The prefetch scan for `exec`: does it return a block? (cache layer).
bool replay_prefetch_scan(const SimDriver& d, ExecutorId exec) {
  return d.master().prefetch_candidate(exec).has_value();
}

/// Whether `exec` is still alive (sched layer).
bool replay_executor_alive(const SimDriver& d, ExecutorId exec) {
  return d.state().executor(exec).alive();
}

// -- workloads ---------------------------------------------------------------

struct SimSpec {
  std::string label;
  std::size_t workload = 0;  // index into PassInput::workloads
  SimConfig config;
};

/// One pass's inputs: the workloads (owning the DAGs) and the
/// simulations to run over them.
struct PassInput {
  std::vector<Workload> workloads;
  std::vector<SimSpec> sims;
};

Workload build_workload(Recorder& rec, int parent, double* acc, WorkloadId id,
                        double scale) {
  std::optional<Workload> w;
  timed(rec, "workloads.build", parent, -1, acc,
        [&] { w.emplace(make_workload(id, WorkloadScale{scale})); });
  return std::move(*w);
}

/// The Fig. 8 grid: 7 SparkBench workloads x 4 systems at bench scale.
PassInput paper_suite(Recorder& rec, int parent, double* acc,
                      std::uint64_t seed) {
  PassInput in;
  for (const WorkloadId id : sparkbench_suite()) {
    in.workloads.push_back(build_workload(rec, parent, acc, id, 2.0));
    for (const SystemCombo& combo : figure8_systems()) {
      SimConfig config = apply_combo(paper_testbed(), combo);
      config.seed = seed;
      in.sims.push_back({std::string(workload_name(id)) + "/" + combo.label,
                         in.workloads.size() - 1, config});
    }
  }
  return in;
}

/// Fig. 11's graph workloads at 4x partitions under the two prefetching
/// systems: shuffle input accounting and MRD/LRP scans grow fastest.
PassInput shuffle_scale(Recorder& rec, int parent, double* acc,
                        std::uint64_t seed) {
  PassInput in;
  for (const WorkloadId id :
       {WorkloadId::ConnectedComponent, WorkloadId::PageRank}) {
    in.workloads.push_back(build_workload(rec, parent, acc, id, 4.0));
    for (const SystemCombo& combo : {graphene_mrd(), dagon_full()}) {
      SimConfig config = apply_combo(paper_testbed(), combo);
      config.seed = seed;
      in.sims.push_back({std::string(workload_name(id)) + "/" + combo.label,
                         in.workloads.size() - 1, config});
    }
  }
  return in;
}

/// Serving streams per serve-chaos pass. One stream's host cost moves by
/// up to 2x with its seed (crash target, arrival overlap, heavy tails),
/// so a pass runs several and the figure tracks the code, not the draw:
/// the spread between seeds shrinks with the square root of the count.
constexpr int kServeStreams = 12;

/// Online streams of 8 jobs sharing one undersized LERC cache, on a
/// cluster with gray failures, a crash, block loss and heavy tails.
/// Stream k runs on seed * kServeStreams + k. Jobs run at quarter scale
/// on quarter-size (64 MiB) caches: the same cache pressure as full scale
/// on 256 MiB (~34% hits) and the same spread between seeds per stream,
/// at a sixth of the host cost, so a pass averages many more streams.
PassInput serve_chaos(Recorder& rec, int parent, double* acc,
                      std::uint64_t seed) {
  PassInput in;
  std::vector<Workload> jobs;
  for (int copy = 0; copy < 2; ++copy) {
    for (const WorkloadId id :
         {WorkloadId::KMeans, WorkloadId::LogisticRegression,
          WorkloadId::ConnectedComponent, WorkloadId::DecisionTree}) {
      jobs.push_back(build_workload(rec, parent, acc, id, 0.25));
      jobs.back().name.append("#").append(std::to_string(jobs.size() - 1));
    }
  }
  ArrivalSpec arrivals;
  arrivals.kind = ArrivalKind::Poisson;
  arrivals.rate_per_sec = 0.5;
  ServingOptions options;
  options.share_inputs = true;
  options.fair_share = true;

  SimConfig config = graybox_testbed();
  config.scheduler = SchedulerKind::Dagon;
  config.cache = CachePolicyKind::Lerc;
  config.delay = DelayKind::SensitivityAware;
  config.topology.cache_bytes_per_executor = 64 * kMiB;
  config.faults.crashes.push_back(ExecutorCrashSpec{120 * kSec, -1});
  config.faults.block_loss_per_gb_hour = 0.5;
  config.faults.block_loss_interval = 5 * kSec;
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.25, 2.0});
  config.tail.tiers.push_back(SimConfig::ExecTier{"fast", 0.25, 0.5});
  config.tail.escalate = true;
  config.faults.heavy_tail_prob = 0.05;
  config.faults.heavy_tail_mult = 6.0;
  config.speculation.hedge = true;

  for (int k = 0; k < kServeStreams; ++k) {
    const std::uint64_t stream_seed =
        seed * kServeStreams + static_cast<std::uint64_t>(k);
    arrivals.seed = stream_seed;
    config.seed = stream_seed;
    timed(rec, "workloads.build", parent, -1, acc, [&] {
      ServingWorkload sw = make_serving(jobs, arrivals, options);
      in.workloads.push_back(std::move(sw.batch.combined));
      config.serving = std::move(sw.serving);
    });
    in.sims.push_back({"serve-chaos#" + std::to_string(k) + "/Dagon+LERC",
                       in.workloads.size() - 1, config});
  }
  return in;
}

using WorkloadFn = PassInput (*)(Recorder&, int, double*, std::uint64_t);

struct WorkloadDef {
  std::string_view name;
  WorkloadFn build;
};

constexpr WorkloadDef kWorkloads[] = {
    {"paper-suite", paper_suite},
    {"shuffle-scale", shuffle_scale},
    {"serve-chaos", serve_chaos},
};

// -- correctness gate --------------------------------------------------------

/// Empty when the run is sound; otherwise what is wrong with it.
std::string check_run(const JobDag& dag, const SimConfig& config,
                      const RunMetrics& m) {
  std::ostringstream why;
  if (m.fsm.any()) why << "lifecycle FSM breaches; ";
  if (m.jct <= SimTime{0}) why << "non-positive JCT; ";
  std::vector<std::vector<char>> done(dag.num_stages());
  for (const Stage& s : dag.stages()) {
    done[static_cast<std::size_t>(s.id.value())].assign(
        static_cast<std::size_t>(s.num_tasks), 0);
  }
  for (const TaskRecord& t : m.tasks) {
    if (!t.failed && !t.cancelled && t.finish >= t.launch) {
      done[static_cast<std::size_t>(t.stage.value())]
          [static_cast<std::size_t>(t.index)] = 1;
    }
  }
  std::int64_t unfinished = 0;
  for (const auto& stage : done) {
    unfinished += std::count(stage.begin(), stage.end(), 0);
  }
  if (unfinished > 0) why << unfinished << " tasks never finished; ";
  for (const StageRecord& s : m.stages) {
    if (s.finish_time < SimTime{0}) why << "stage " << s.name << " open; ";
  }
  if (config.serving.enabled()) {
    if (m.jobs.size() != config.serving.jobs.size()) {
      why << "per-job stats missing; ";
    }
    std::int64_t reads = 0, hits = 0, tasks = 0, stages = 0;
    for (const JobStats& j : m.jobs) {
      if (j.finished < j.submitted || j.finished < SimTime{0}) {
        why << "job " << j.name << " unfinished; ";
      }
      reads += j.effective_task_reads;
      hits += j.effective_task_hits;
      tasks += j.tasks;
      stages += j.stages;
    }
    if (reads != m.cache.effective_task_reads ||
        hits != m.cache.effective_task_hits ||
        tasks != dag.total_tasks() ||
        stages != static_cast<std::int64_t>(dag.num_stages())) {
      why << "per-job counters do not sum to the aggregate; ";
    }
  }
  return why.str();
}

// -- per-pass accounting -----------------------------------------------------

/// Seconds spent in each timed call during one pass.
struct PassTimes {
  double build = 0.0;
  double profile = 0.0;
  double ctor = 0.0;
  double run = 0.0;
  double fingerprint = 0.0;
  double replay = 0.0;  // traced passes only; outside the timed calls
  double wall = 0.0;
  std::int64_t tasks = 0;  // DAG tasks of the simulations that ran

  [[nodiscard]] double setup() const { return build + profile + ctor; }
};

/// Setup-only rounds after each untraced pass. Setup takes 0.1-0.3% of
/// a pass, so a few dozen samples per run cost little and give setup_s
/// a steady median.
constexpr int kSetupRoundsPerPass = 8;

/// Per-layer counters summed over the traced passes.
struct LayerTally {
  int passes = 0;
  int sims = 0;
  std::int64_t events = 0;
  std::int64_t attempts = 0;
  // replays
  std::int64_t locality_calls = 0;
  std::int64_t locality_found = 0;
  double locality_s = 0.0;
  std::int64_t input_calls = 0;
  std::int64_t inputs = 0;
  double inputs_s = 0.0;
  std::int64_t lookup_calls = 0;
  double lookup_s = 0.0;
  std::int64_t scan_calls = 0;
  std::int64_t scan_hits = 0;
  double scan_s = 0.0;
  // RunMetrics
  double local_share = 0.0;  // summed per sim, averaged at the end
  double cpu_util = 0.0;
  double stage_wait_s = 0.0;
  std::int64_t reads = 0, local_hits = 0, eff_reads = 0, eff_hits = 0;
  std::int64_t disk_reads = 0, evictions = 0, proactive_evictions = 0;
  std::int64_t prefetches = 0, rejected_admissions = 0;
  std::int64_t failed_attempts = 0, retries = 0, lineage_recomputes = 0;
  std::int64_t suspicions = 0, false_suspicions = 0, heartbeats_dropped = 0;
  std::int64_t deferred_reports = 0, blacklist_entries = 0;
  std::int64_t hedges = 0, hedges_won = 0, escalations = 0;
  std::int64_t heavy_tails = 0;
  double wasted_core_s = 0.0;
  std::vector<double> job_jct_s;
  std::vector<double> job_wait_s;
};

void tally_metrics(LayerTally& t, const RunMetrics& m) {
  ++t.sims;
  t.events += m.sim_events;
  t.attempts += static_cast<std::int64_t>(m.tasks.size());
  t.local_share += m.high_locality_fraction();
  t.cpu_util += m.cpu_utilization();
  for (const StageRecord& s : m.stages) {
    if (s.ready_time >= SimTime{0} && s.first_launch >= s.ready_time) {
      t.stage_wait_s += to_seconds(s.first_launch - s.ready_time);
    }
  }
  t.reads += m.cache.total_reads;
  t.local_hits += m.cache.local_memory_hits;
  t.eff_reads += m.cache.effective_task_reads;
  t.eff_hits += m.cache.effective_task_hits;
  t.disk_reads += m.cache.disk_reads;
  t.evictions += m.cache.evictions;
  t.proactive_evictions += m.cache.proactive_evictions;
  t.prefetches += m.cache.prefetches;
  t.rejected_admissions += m.cache.rejected_admissions;
  t.failed_attempts += std::count_if(m.tasks.begin(), m.tasks.end(),
                                     [](const TaskRecord& r) { return r.failed; });
  t.retries += m.faults.retries;
  t.lineage_recomputes += m.faults.lineage_recomputes;
  t.suspicions += m.faults.suspicions;
  t.false_suspicions += m.faults.false_suspicions;
  t.heartbeats_dropped += m.faults.heartbeats_dropped;
  t.deferred_reports += m.faults.deferred_reports;
  t.blacklist_entries += m.faults.blacklist_entries;
  t.heavy_tails += m.faults.heavy_tail_injections;
  t.hedges += m.hedge.hedges_launched;
  t.hedges_won += m.hedge.hedges_won;
  t.escalations += m.hedge.escalations;
  t.wasted_core_s += m.hedge.wasted_core_seconds();
  for (const JobStats& j : m.jobs) {
    t.job_jct_s.push_back(to_seconds(j.jct()));
    if (j.first_launch >= j.submitted) {
      t.job_wait_s.push_back(to_seconds(j.first_launch - j.submitted));
    }
  }
}

/// The prefetch scan for every live executor, halfway through the same
/// simulation: the state the run's own scans see. At the finished state
/// no block has a live reference left, so no scan could return one
/// whatever the policy. SimConfig::max_sim_time is the one public way to
/// stop a run early: run() throws once the next event lies past it, with
/// every earlier event applied. The full run already passed the checks,
/// and this one follows it event for event up to the stop.
void replay_prefetch_midrun(Recorder& rec, int parent, int sim, LayerTally& t,
                            double* acc, const JobDag& dag,
                            const JobProfile& profile, SimConfig config,
                            SimTime jct) {
  config.max_sim_time = std::max(SimTime{1}, jct / 2);
  std::optional<SimDriver> half;
  timed(rec, "replay.half_run", parent, sim, acc, [&] {
    half.emplace(dag, profile, config);
    try {
      (void)half->run();
    } catch (const InvariantError& e) {
      if (std::string_view(e.what()).find("max_sim_time") ==
          std::string_view::npos) {
        throw;
      }
    }
  });
  const auto n = static_cast<std::int32_t>(half->topology().num_executors());
  double s = 0.0;
  timed(rec, "replay.prefetch_scan", parent, sim, &s, [&] {
    for (std::int32_t e = 0; e < n; ++e) {
      if (!replay_executor_alive(*half, ExecutorId{e})) continue;
      t.scan_hits += replay_prefetch_scan(*half, ExecutorId{e}) ? 1 : 0;
      ++t.scan_calls;
    }
  });
  t.scan_s += s;
  *acc += s;
}

/// Post-run replays against the finished driver: the locality scan for
/// every (task, executor) pair, and input accounting (task_inputs, then
/// one lookup per input block from the executor that ran the task).
void replay_finished(Recorder& rec, int parent, int sim, LayerTally& t,
                     double* acc, const JobDag& dag, const SimDriver& d,
                     const RunMetrics& m) {
  const auto n = static_cast<std::int32_t>(d.topology().num_executors());
  std::vector<std::vector<ExecutorId>> ran_on(dag.num_stages());
  for (const Stage& s : dag.stages()) {
    ran_on[static_cast<std::size_t>(s.id.value())].assign(
        static_cast<std::size_t>(s.num_tasks), ExecutorId::invalid());
  }
  for (const TaskRecord& r : m.tasks) {
    if (!r.failed && !r.cancelled) {
      ran_on[static_cast<std::size_t>(r.stage.value())]
            [static_cast<std::size_t>(r.index)] = r.exec;
    }
  }

  double s = 0.0;
  timed(rec, "replay.locality", parent, sim, &s, [&] {
    for (const Stage& st : dag.stages()) {
      for (std::int32_t i = 0; i < st.num_tasks; ++i) {
        for (std::int32_t e = 0; e < n; ++e) {
          const Locality l = replay_locality(dag, d, st.id, i, ExecutorId{e});
          t.locality_found += (l != Locality::NoPref && l != Locality::Any);
        }
      }
    }
  });
  t.locality_calls += dag.total_tasks() * n;
  t.locality_s += s;
  *acc += s;

  // One stage at a time, so the inputs held between the two replays stay
  // small (a shuffle stage reads every map output).
  std::vector<std::vector<TaskInput>> inputs;
  for (const Stage& st : dag.stages()) {
    inputs.clear();
    double inputs_s = 0.0, lookup_s = 0.0;
    timed(rec, "replay.task_inputs", parent, sim, &inputs_s, [&] {
      for (std::int32_t i = 0; i < st.num_tasks; ++i) {
        inputs.push_back(replay_task_inputs(dag, st.id, i));
      }
    });
    timed(rec, "replay.lookup", parent, sim, &lookup_s, [&] {
      const auto& readers = ran_on[static_cast<std::size_t>(st.id.value())];
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (const TaskInput& in : inputs[i]) {
          t.lookup_calls += replay_lookup(d, in.block, readers[i]) ? 1 : 0;
        }
      }
    });
    for (const auto& v : inputs) t.inputs += static_cast<std::int64_t>(v.size());
    t.input_calls += st.num_tasks;
    t.inputs_s += inputs_s;
    t.lookup_s += lookup_s;
    *acc += inputs_s + lookup_s;
  }
}

// -- statistics and output ---------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of a non-empty sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double jain(const std::vector<double>& v) {
  double sum = 0.0, sq = 0.0;
  for (const double x : v) {
    sum += x;
    sq += x * x;
  }
  return sq > 0.0 ? sum * sum / (static_cast<double>(v.size()) * sq) : 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Self time of each span: its duration minus its children's.
std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  return self;
}

/// Writes the spans as Chrome trace JSON (loadable in Perfetto).
void write_spans(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_number(s.start * 1e6)
        << ", \"dur\": " << json_number((s.end - s.start) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"sim\": " << s.sim
        << ", \"self_us\": " << json_number(self[i] * 1e6) << "}}";
  }
  out << "\n]}\n";
  if (!out) std::cerr << "simbench: could not write " << path << "\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 60.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "simbench: " << why
            << "\nusage: simbench --workload paper-suite|shuffle-scale|"
               "serve-chaos [--seed N] [--seconds S] [--trace 0|1] "
               "[--spans FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// This process's peak resident set, MiB. VmHWM belongs to the address
/// space, which exec replaces; ru_maxrss would also count the launching
/// process's pages, which the child inherits through fork and exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Mean simulated JCT: of the run, or over jobs (submit to finish) when
/// the run serves several.
double mean_jct_s(const RunMetrics& m) {
  if (m.jobs.empty()) return to_seconds(m.jct);
  double sum = 0.0;
  for (const JobStats& j : m.jobs) sum += to_seconds(j.jct());
  return sum / static_cast<double>(m.jobs.size());
}

/// Everything one run accumulates across its passes.
struct RunState {
  explicit RunState(Clock::time_point origin) : rec(origin) {}

  Recorder rec;
  AppProfiler profiler;
  std::vector<PassTimes> passes;
  /// Setup seconds of every pass and of every setup-only round.
  std::vector<double> setups;
  std::vector<std::uint64_t> first_digests;
  std::vector<double> first_jct_s;
  LayerTally layers;
  /// Peak RSS once the first pass is done: the high-water mark of
  /// running the workload once. Later passes reuse the freed heap, and
  /// any growth from fragmentation would tie the figure to how many
  /// passes the host's speed allowed.
  double first_pass_rss_mb = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int sim_id = 0;
};

/// Runs, checks and (when traced) replays one simulation of a pass.
void run_sim(RunState& st, const SimSpec& spec, const JobDag& dag,
             std::size_t index, int pass, int pass_span, bool traced,
             PassTimes& pt) {
  Recorder& rec = st.rec;
  const int sim = st.sim_id++;
  ++st.attempted;
  const Recorder::Open sim_span = rec.begin("sim", pass_span, sim);
  std::string error;
  try {
    std::optional<JobProfile> profile;
    timed(rec, "core.profile", sim_span.id, sim, &pt.profile,
          [&] { profile.emplace(st.profiler.profile(dag)); });
    std::optional<SimDriver> driver;
    timed(rec, "sim.ctor", sim_span.id, sim, &pt.ctor,
          [&] { driver.emplace(dag, *profile, spec.config); });
    std::optional<RunMetrics> m;
    double run_s = 0.0;
    timed(rec, "sim.run", sim_span.id, sim, &run_s,
          [&] { m.emplace(driver->run()); });
    pt.run += run_s;
    pt.tasks += dag.total_tasks();
    std::uint64_t digest = 0;
    timed(rec, "sim.fingerprint", sim_span.id, sim, &pt.fingerprint,
          [&] { digest = metrics_fingerprint(*m); });

    error = check_run(dag, spec.config, *m);
    if (pass == 0) {
      st.first_digests.resize(std::max(st.first_digests.size(), index + 1));
      st.first_digests[index] = digest;
      st.first_jct_s.push_back(mean_jct_s(*m));
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(digest));
      std::cout << "fingerprint " << spec.label << " " << hex << "\n";
    } else if (index >= st.first_digests.size() ||
               st.first_digests[index] != digest) {
      error += "digest differs from the first pass; ";
    }
    if (traced) {
      tally_metrics(st.layers, *m);
      replay_finished(rec, sim_span.id, sim, st.layers, &pt.replay, dag,
                      *driver, *m);
      replay_prefetch_midrun(rec, sim_span.id, sim, st.layers, &pt.replay,
                             dag, *profile, spec.config, m->jct);
    }
  } catch (const std::exception& e) {
    error += std::string("threw: ") + e.what();
  }
  rec.end(sim_span);
  if (!error.empty()) {
    ++st.failed;
    std::cerr << "simbench: FAILED " << spec.label << " (pass " << pass
              << "): " << error << "\n";
  }
}

void run_pass(RunState& st, const WorkloadDef& def, std::uint64_t seed,
              int pass, bool traced) {
  st.rec.set_tracing(traced);
  PassTimes pt;
  const auto start = Clock::now();
  const Recorder::Open span = st.rec.begin("pass", -1, -1);
  PassInput in = def.build(st.rec, span.id, &pt.build, seed);
  for (std::size_t i = 0; i < in.sims.size(); ++i) {
    const SimSpec& spec = in.sims[i];
    run_sim(st, spec, in.workloads[spec.workload].dag, i, pass, span.id,
            traced, pt);
  }
  st.rec.end(span);
  pt.wall = seconds_since(start);
  std::cout << "pass " << pass << (traced ? " traced" : "") << " wall_s "
            << json_number(pt.wall) << " run_s " << json_number(pt.run)
            << " setup_s " << json_number(pt.setup()) << "\n";
  if (pass == 0) st.first_pass_rss_mb = peak_rss_mb();
  st.passes.push_back(pt);
  st.setups.push_back(pt.setup());
  if (traced) ++st.layers.passes;
}

/// Builds a pass's inputs and wires each of its drivers without running
/// it: the setup calls alone, timed the same way a pass times them.
double setup_round(RunState& st, const WorkloadDef& def, std::uint64_t seed) {
  st.rec.set_tracing(false);
  double s = 0.0;
  const PassInput in = def.build(st.rec, -1, &s, seed);
  for (const SimSpec& spec : in.sims) {
    const JobDag& dag = in.workloads[spec.workload].dag;
    std::optional<JobProfile> profile;
    timed(st.rec, "core.profile", -1, -1, &s,
          [&] { profile.emplace(st.profiler.profile(dag)); });
    std::optional<SimDriver> driver;
    timed(st.rec, "sim.ctor", -1, -1, &s,
          [&] { driver.emplace(dag, *profile, spec.config); });
  }
  return s;
}

std::vector<Metric> end_to_end(const RunState& st) {
  double tasks = 0.0, run_s = 0.0;
  for (const PassTimes& p : st.passes) {
    tasks += static_cast<double>(p.tasks);
    run_s += p.run;
  }
  double jct_sum = 0.0;
  for (const double j : st.first_jct_s) jct_sum += j;
  return {
      {"tasks_per_s", ratio(tasks, run_s), "1/s"},
      {"setup_s", median(st.setups), "s"},
      {"peak_rss_mb", st.first_pass_rss_mb, "MB"},
      {"sim_jct_s",
       ratio(jct_sum, static_cast<double>(st.first_jct_s.size())), "s"},
  };
}

std::vector<Metric> per_layer(const RunState& st) {
  const LayerTally& t = st.layers;
  // Traced passes are the even ones; odd passes ran untraced.
  double build = 0, profile = 0, ctor = 0, run = 0, fp = 0;
  double traced_tasks = 0, plain_tasks = 0, plain_run = 0;
  std::vector<double> pass_s;
  for (std::size_t p = 0; p < st.passes.size(); ++p) {
    const PassTimes& pt = st.passes[p];
    pass_s.push_back(pt.wall - pt.replay);
    if (p % 2 == 0) {
      build += pt.build;
      profile += pt.profile;
      ctor += pt.ctor;
      run += pt.run;
      fp += pt.fingerprint;
      traced_tasks += static_cast<double>(pt.tasks);
    } else {
      plain_tasks += static_cast<double>(pt.tasks);
      plain_run += pt.run;
    }
  }
  // Highest percentile with at least ten passes beyond it.
  const double np = static_cast<double>(pass_s.size());
  double tail_pct = 0.0, tail_s = 0.0;
  if (pass_s.size() > 10) {
    tail_pct = std::floor(100.0 * (1.0 - 10.0 / np));
    tail_s = percentile(pass_s, tail_pct);
  }
  std::map<std::string_view, double> self_by_name;
  const std::vector<Span>& spans = st.rec.spans();
  const std::vector<double> self = self_seconds(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_by_name[spans[i].name] += self[i];
  }
  for (const auto& [name, s] : self_by_name) {
    std::cout << "self_time " << name << " " << json_number(s) << " s\n";
  }
  const double self_s = self_by_name["pass"] + self_by_name["sim"];
  double wait_sum = 0.0;
  for (const double w : t.job_wait_s) wait_sum += w;
  const std::vector<double>& jcts = t.job_jct_s;
  const double traced_tps = ratio(traced_tasks, run);
  const double plain_tps = ratio(plain_tasks, plain_run);
  const double sims = std::max(1, t.sims);
  const double per_pass = 1.0 / std::max(1, t.passes);
  const auto count = [&](std::int64_t c) {
    return static_cast<double>(c) * per_pass;
  };
  const auto share = [](std::int64_t num, std::int64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const auto ns_per = [](double s, std::int64_t calls) {
    return ratio(s * 1e9, static_cast<double>(calls));
  };
  return {
      {"workloads.build_s", build * per_pass, "s"},
      {"core.profile_s", profile * per_pass, "s"},
      {"sim.ctor_s", ctor * per_pass, "s"},
      {"sim.run_s", run * per_pass, "s"},
      {"sim.fingerprint_s", fp * per_pass, "s"},
      {"sim.events", count(t.events), "count"},
      {"sim.events_per_s", ratio(static_cast<double>(t.events), run), "1/s"},
      {"sim.ns_per_event", ns_per(run, t.events), "ns"},
      {"sim.attempts", count(t.attempts), "count"},
      {"sched.locality.calls", count(t.locality_calls), "count"},
      {"sched.locality.ns_per_call", ns_per(t.locality_s, t.locality_calls),
       "ns"},
      {"sched.locality.found_share",
       share(t.locality_found, t.locality_calls), "ratio"},
      {"sched.local_share", t.local_share / sims, "ratio"},
      {"sched.stage_wait_s", t.stage_wait_s / sims, "s"},
      {"sched.cpu_util", t.cpu_util / sims, "ratio"},
      {"dag.inputs_per_task", share(t.inputs, t.input_calls), "count"},
      {"dag.task_inputs.ns_per_call", ns_per(t.inputs_s, t.input_calls), "ns"},
      {"cache.lookup.calls", count(t.lookup_calls), "count"},
      {"cache.lookup.ns_per_call", ns_per(t.lookup_s, t.lookup_calls), "ns"},
      {"cache.prefetch_scan.calls", count(t.scan_calls), "count"},
      {"cache.prefetch_scan.ns_per_call", ns_per(t.scan_s, t.scan_calls),
       "ns"},
      {"cache.prefetch_scan.hit_share", share(t.scan_hits, t.scan_calls),
       "ratio"},
      {"cache.hit_ratio", share(t.local_hits, t.reads), "ratio"},
      {"cache.eff_hit_ratio", share(t.eff_hits, t.eff_reads), "ratio"},
      {"cache.disk_reads", count(t.disk_reads), "count"},
      {"cache.evictions", count(t.evictions), "count"},
      {"cache.proactive_evictions", count(t.proactive_evictions), "count"},
      {"cache.prefetches", count(t.prefetches), "count"},
      {"cache.rejected_admissions", count(t.rejected_admissions), "count"},
      {"fault.failed_attempts", count(t.failed_attempts), "count"},
      {"fault.retries", count(t.retries), "count"},
      {"fault.lineage_recomputes", count(t.lineage_recomputes), "count"},
      {"fault.suspicions", count(t.suspicions), "count"},
      {"fault.false_suspicion_share", share(t.false_suspicions, t.suspicions),
       "ratio"},
      {"fault.heartbeats_dropped", count(t.heartbeats_dropped), "count"},
      {"fault.deferred_reports", count(t.deferred_reports), "count"},
      {"fault.blacklist_entries", count(t.blacklist_entries), "count"},
      {"tail.hedges_launched", count(t.hedges), "count"},
      {"tail.hedge_win_share", share(t.hedges_won, t.hedges), "ratio"},
      {"tail.wasted_core_s", t.wasted_core_s * per_pass, "core-s"},
      {"tail.escalations", count(t.escalations), "count"},
      {"tail.heavy_tail_injections", count(t.heavy_tails), "count"},
      {"serve.jct_p50_s", jcts.empty() ? 0.0 : percentile(jcts, 50.0), "s"},
      {"serve.jct_max_s",
       jcts.empty() ? 0.0 : *std::max_element(jcts.begin(), jcts.end()), "s"},
      {"serve.queue_wait_s",
       ratio(wait_sum, static_cast<double>(t.job_wait_s.size())), "s"},
      {"serve.jain", jain(jcts), "ratio"},
      {"host.pass_s.p50", median(pass_s), "s"},
      {"host.pass_s.n", np, "count"},
      {"host.pass_s.tail_pct", tail_pct, "%"},
      {"host.pass_s.tail", tail_s, "s"},
      {"bench.self_s", self_s * per_pass, "s"},
      {"trace.tasks_per_s", traced_tps, "1/s"},
      {"trace.untraced_tasks_per_s", plain_tps, "1/s"},
      {"trace.overhead", ratio(plain_tps - traced_tps, plain_tps), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == args.workload) def = &w;
  }
  if (def == nullptr) usage("unknown workload " + args.workload);

  const auto origin = Clock::now();
  RunState st(origin);
  // Whole passes only, so each pass weighs every simulation the same;
  // another starts only if it is expected to end inside the window. A
  // traced run alternates traced and untraced passes.
  const int min_passes = args.trace ? 2 : 1;
  try {
    for (int pass = 0;; ++pass) {
      run_pass(st, *def, args.seed, pass, args.trace && pass % 2 == 0);
      if (!args.trace) {
        for (int r = 0; r < kSetupRoundsPerPass; ++r) {
          st.setups.push_back(setup_round(st, *def, args.seed));
        }
      }
      const double elapsed = seconds_since(origin);
      const double mean_pass = elapsed / static_cast<double>(pass + 1);
      if (pass + 1 >= min_passes && elapsed + mean_pass > args.seconds) {
        break;
      }
    }
  } catch (const std::exception& e) {
    // Building inputs or wiring a driver threw outside any simulation.
    std::cerr << "simbench: setup failed: " << e.what() << "\n";
    ++st.attempted;
    ++st.failed;
  }

  const std::vector<Metric> metrics =
      args.trace ? per_layer(st) : end_to_end(st);
  if (args.trace && !args.spans.empty()) write_spans(args.spans, st.rec.spans());

  std::cout << "{\"correct\": "
            << (st.failed == 0 && st.attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << st.attempted
            << ", \"failed\": " << st.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return st.failed == 0 ? 0 : 1;
}
