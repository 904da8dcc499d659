// dagonsim — command-line front end to the simulator.
//
// Run any suite workload under any (scheduler, cache, delay) combination
// on a configurable cluster, print the metrics the paper reports, and
// optionally export a Chrome trace / timeline CSV of the run.
//
//   dagonsim --workload KMeans --scheduler dagon --cache lrp
//            --delay aware --scale 1.0 --trace run.json
//   dagonsim --list
//   dagonsim --help
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/fsm.hpp"
#include "core/dagon.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace dagon;

struct Options {
  std::string workload = "KMeans";
  SchedulerKind scheduler = SchedulerKind::Dagon;
  CachePolicyKind cache = CachePolicyKind::Lrp;
  DelayKind delay = DelayKind::SensitivityAware;
  double scale = 1.0;
  double wait_seconds = 3.0;
  bool cache_enabled = true;
  /// Base cluster/fault preset: testbed | case | faulty | graybox.
  std::string preset = "testbed";
  std::uint64_t seed = 42;
  double noise = -1.0;  // <0: preset default
  std::string trace_path;
  std::string timeline_path;
  std::string out_dir;
  std::size_t repeat = 1;
  std::size_t jobs = 1;
  bool verbose = false;
  bool fingerprint = false;
  /// Online serving: >1 turns the run into a multi-job stream (N
  /// instances of --workload) over one shared cache.
  std::size_t serve_jobs = 1;
  ArrivalSpec arrival;
  bool fair_share = false;
  FaultConfig faults;  // preset faults + any --fault-* flag on top
  // Tail tolerance: preset tiers/speculation + any flag on top.
  SimConfig::TailConfig tail;
  SpeculationConfig speculation;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "dagonsim: " << message << " (try --help)\n";
  std::exit(2);
}

/// Strict numeric parsing: the whole value must consume, no trailing
/// junk, no overflow. `--scale 1.5x` is a config error, not scale 1.5.
double parse_double(const std::string& flag, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
    usage_error("malformed number '" + v + "' for " + flag);
  }
  return x;
}

std::int64_t parse_int(const std::string& flag, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
    usage_error("malformed integer '" + v + "' for " + flag);
  }
  return x;
}

/// A count flag (--repeat, --jobs, --serve-jobs): a negative value would
/// wrap to SIZE_MAX in the size_t it lands in.
std::size_t parse_count(const std::string& flag, const std::string& v) {
  const std::int64_t n = parse_int(flag, v);
  if (n < 0) usage_error("negative count '" + v + "' for " + flag);
  return static_cast<std::size_t>(n);
}

/// Splits a colon-separated fault spec and bounds the field count.
std::vector<std::string> parse_spec(const std::string& flag,
                                    const std::string& v,
                                    std::size_t min_fields,
                                    std::size_t max_fields) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = v.find(':', start);
    fields.push_back(v.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.size() < min_fields || fields.size() > max_fields) {
    usage_error("malformed spec '" + v + "' for " + flag);
  }
  return fields;
}

SimConfig preset_config(const std::string& name) {
  if (name == "testbed") return paper_testbed();
  if (name == "case") return case_study_cluster();
  if (name == "faulty") return faulty_testbed();
  if (name == "graybox") return graybox_testbed();
  if (name == "tail") return tail_testbed();
  usage_error("unknown preset '" + name +
              "' (testbed | case | faulty | graybox | tail)");
}

/// Joins `file` onto --out-dir (creating it), or returns it unchanged.
std::string out_path(const Options& opt, const std::string& file) {
  if (opt.out_dir.empty()) return file;
  std::filesystem::create_directories(opt.out_dir);
  return (std::filesystem::path(opt.out_dir) / file).string();
}

void print_help() {
  std::cout <<
      "dagonsim — DAG-aware scheduling + caching simulator\n\n"
      "  --workload NAME    suite workload (see --list) [KMeans]\n"
      "  --scheduler KIND   fifo | fair | cp | graphene | dagon [dagon]\n"
      "  --cache KIND       lru | lrc | mrd | lrp | lerc | off [lrp]\n"
      "  --delay KIND       native | aware [aware]\n"
      "  --wait SECONDS     spark.locality.wait [3.0]\n"
      "  --scale FACTOR     workload size multiplier [1.0]\n"
      "  --seed N           RNG seed (placement + jitter) [42]\n"
      "  --noise SIGMA      task duration jitter [preset: 0.1]\n"
      "  --case-cluster     use the 7-node case-study cluster (rep=1)\n"
      "                     instead of the 18-node testbed\n"
      "  --trace FILE       write a chrome://tracing JSON of the run\n"
      "  --timeline FILE    write a per-stage timeline CSV\n"
      "  --out-dir DIR      write trace/timeline files under DIR\n"
      "  --repeat K         run K repeats with seeds seed..seed+K-1 and\n"
      "                     report the JCT distribution [1]\n"
      "  --jobs N           fan repeats over N worker threads\n"
      "                     (0 = #cores); results are identical to\n"
      "                     serial for the same seeds [1]\n"
      "  --preset NAME      base cluster + fault preset: testbed | case\n"
      "                     | faulty | graybox | tail [testbed]\n"
      "  --fingerprint      print the run's metrics fingerprint (a\n"
      "                     64-bit digest; equal across bit-identical\n"
      "                     runs)\n"
      "  --verbose          per-stage table\n"
      "  --list             list workloads and exit\n"
      "  --dump-fsm M       print the lifecycle state machine M as\n"
      "                     Graphviz DOT and exit: task | block |\n"
      "                     executor (see DESIGN.md §10)\n"
      "\nonline serving (multi-job streams over one shared cache):\n"
      "  --serve-jobs N     serve N instances of --workload (shared\n"
      "                     input datasets) through one cluster;\n"
      "                     enables serving mode [1]\n"
      "  --arrival SPEC     arrival process: poisson:RATE |\n"
      "                     trace:G1,G2,... | bursty:BURST:IDLE:LEN\n"
      "                     (rates jobs/sec, gaps seconds)\n"
      "                     [poisson:0.5]\n"
      "  --fair-share       weighted fair sharing across live jobs\n"
      "                     (default: FIFO across jobs)\n"
      "\nfault injection (any flag enables the failure model; layered on\n"
      "top of the preset's faults):\n"
      "  --fault-crash T[:E]      crash executor E (or a random one) at\n"
      "                           T seconds; repeatable\n"
      "  --fault-task-fail P      transient task-failure probability [0]\n"
      "  --fault-block-loss R     cached-block loss rate per GiB-hour [0]\n"
      "  --fault-partition T:H[:R] partition rack R (or a random one)\n"
      "                           from T to H seconds; repeatable\n"
      "  --fault-degrade T:U:F[:E] slow executor E (or a random one) by\n"
      "                           factor F from T to U seconds; repeatable\n"
      "\ntail tolerance (heterogeneity, heavy tails, hedging):\n"
      "  --exec-tiers SPEC        executor speed tiers, comma-separated\n"
      "                           NAME:FRAC:MULT entries (FRAC of the\n"
      "                           cluster runs compute scaled by MULT;\n"
      "                           <1 = faster); e.g. slow:0.25:2.0\n"
      "  --heavy-tail-prob P      per-attempt heavy-tail probability,\n"
      "                           in [0, 1] [0]\n"
      "  --heavy-tail-mult M      heavy-tail duration multiplier,\n"
      "                           >= 1 [10]\n"
      "  --hedge                  hedged speculation: copies race on the\n"
      "                           fastest free tier and the loser is\n"
      "                           cancelled on first finish (enables\n"
      "                           speculation)\n"
      "  --escalate               escalate waiting critical-path tasks\n"
      "                           to a faster tier (needs --exec-tiers)\n"
      "  --escalate-wait S        patience before escalating [2.0]\n"
      "\ngray-failure monitoring (any flag also enables heartbeats):\n"
      "  --heartbeat-interval S   executor heartbeat period [1.0]\n"
      "  --heartbeat-suspect PHI  phi threshold to suspect [1.0]\n"
      "  --heartbeat-dead PHI     phi threshold to declare dead [8.0]\n"
      "  --blacklist-threshold N  attempt failures before an executor is\n"
      "                           blacklisted (0 = off) [0]\n"
      "  --blacklist-probation S  how long a blacklist entry lasts [60]\n";
}

std::optional<WorkloadId> parse_workload(const std::string& name) {
  for (const WorkloadId id :
       {WorkloadId::LinearRegression, WorkloadId::LogisticRegression,
        WorkloadId::DecisionTree, WorkloadId::KMeans,
        WorkloadId::TriangleCount, WorkloadId::ConnectedComponent,
        WorkloadId::PregelOperation, WorkloadId::PageRank,
        WorkloadId::ShortestPaths}) {
    if (name == workload_name(id)) return id;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  // Pre-scan for the preset so fault flags layer on top of its fault
  // config regardless of flag order on the command line.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--preset") == 0) opt.preset = argv[i + 1];
    if (std::strcmp(argv[i], "--case-cluster") == 0) opt.preset = "case";
  }
  {
    const SimConfig preset = preset_config(opt.preset);
    opt.faults = preset.faults;
    opt.tail = preset.tail;
    opt.speculation = preset.speculation;
  }

  // Every flag is single-use except the repeatable fault-spec flags.
  const std::set<std::string> repeatable = {
      "--fault-crash", "--fault-partition", "--fault-degrade"};
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && !repeatable.count(arg) &&
        !seen.insert(arg).second) {
      usage_error("duplicate flag " + arg);
    }
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--list") {
      for (const WorkloadId id : sparkbench_suite()) {
        std::cout << workload_name(id) << "\n";
      }
      std::cout << "PageRank\nShortestPaths\n";
      return 0;
    } else if (arg == "--dump-fsm") {
      const std::string v = next();
      if (v == "task") std::cout << fsm::to_dot<TaskStatus>();
      else if (v == "block") std::cout << fsm::to_dot<BlockResidency>();
      else if (v == "executor") std::cout << fsm::to_dot<ExecutorHealth>();
      else usage_error("unknown machine '" + v + "' for --dump-fsm "
                       "(task | block | executor)");
      return 0;
    } else if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--scheduler") {
      const std::string v = next();
      if (v == "fifo") opt.scheduler = SchedulerKind::Fifo;
      else if (v == "fair") opt.scheduler = SchedulerKind::Fair;
      else if (v == "cp") opt.scheduler = SchedulerKind::CriticalPath;
      else if (v == "graphene") opt.scheduler = SchedulerKind::Graphene;
      else if (v == "dagon") opt.scheduler = SchedulerKind::Dagon;
      else usage_error("unknown scheduler " + v);
    } else if (arg == "--cache") {
      const std::string v = next();
      if (v == "lru") opt.cache = CachePolicyKind::Lru;
      else if (v == "lrc") opt.cache = CachePolicyKind::Lrc;
      else if (v == "mrd") opt.cache = CachePolicyKind::Mrd;
      else if (v == "lrp") opt.cache = CachePolicyKind::Lrp;
      else if (v == "lerc") opt.cache = CachePolicyKind::Lerc;
      else if (v == "off") opt.cache_enabled = false;
      else usage_error("unknown cache '" + v + "' (expected " +
                       std::string(kCachePolicyNames) + " | off)");
    } else if (arg == "--delay") {
      const std::string v = next();
      if (v == "native") opt.delay = DelayKind::Native;
      else if (v == "aware") opt.delay = DelayKind::SensitivityAware;
      else usage_error("unknown delay " + v);
    } else if (arg == "--wait") {
      opt.wait_seconds = parse_double(arg, next());
    } else if (arg == "--scale") {
      opt.scale = parse_double(arg, next());
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(parse_int(arg, next()));
    } else if (arg == "--noise") {
      opt.noise = parse_double(arg, next());
    } else if (arg == "--preset") {
      preset_config(next());  // validated here, consumed by the pre-scan
    } else if (arg == "--case-cluster") {
      // handled in the pre-scan (alias for --preset case)
    } else if (arg == "--trace") {
      opt.trace_path = next();
    } else if (arg == "--timeline") {
      opt.timeline_path = next();
    } else if (arg == "--out-dir") {
      opt.out_dir = next();
    } else if (arg == "--repeat") {
      opt.repeat = parse_count(arg, next());
      if (opt.repeat == 0) opt.repeat = 1;
    } else if (arg == "--jobs") {
      opt.jobs = parse_count(arg, next());
    } else if (arg == "--fault-crash") {
      const auto f = parse_spec(arg, next(), 1, 2);
      ExecutorCrashSpec crash;
      crash.at = from_seconds(parse_double(arg, f[0]));
      if (f.size() > 1) {
        crash.executor = static_cast<std::int32_t>(parse_int(arg, f[1]));
      }
      opt.faults.crashes.push_back(crash);
      opt.faults.enabled = true;
    } else if (arg == "--fault-partition") {
      const auto f = parse_spec(arg, next(), 2, 3);
      PartitionSpec p;
      p.at = from_seconds(parse_double(arg, f[0]));
      p.heal_at = from_seconds(parse_double(arg, f[1]));
      if (f.size() > 2) {
        p.rack = static_cast<std::int32_t>(parse_int(arg, f[2]));
      }
      opt.faults.partitions.push_back(p);
      opt.faults.enabled = true;
    } else if (arg == "--fault-degrade") {
      const auto f = parse_spec(arg, next(), 3, 4);
      DegradeSpec d;
      d.at = from_seconds(parse_double(arg, f[0]));
      d.until = from_seconds(parse_double(arg, f[1]));
      d.slowdown = parse_double(arg, f[2]);
      if (f.size() > 3) {
        d.executor = static_cast<std::int32_t>(parse_int(arg, f[3]));
      }
      opt.faults.degrades.push_back(d);
      opt.faults.enabled = true;
    } else if (arg == "--fault-task-fail") {
      opt.faults.task_fail_prob = parse_double(arg, next());
      opt.faults.enabled = true;
    } else if (arg == "--fault-block-loss") {
      opt.faults.block_loss_per_gb_hour = parse_double(arg, next());
      opt.faults.enabled = true;
    } else if (arg == "--heartbeat-interval") {
      opt.faults.heartbeat_interval = from_seconds(parse_double(arg, next()));
      opt.faults.heartbeats = true;
      opt.faults.enabled = true;
    } else if (arg == "--heartbeat-suspect") {
      opt.faults.suspect_phi = parse_double(arg, next());
      opt.faults.heartbeats = true;
      opt.faults.enabled = true;
    } else if (arg == "--heartbeat-dead") {
      opt.faults.dead_phi = parse_double(arg, next());
      opt.faults.heartbeats = true;
      opt.faults.enabled = true;
    } else if (arg == "--blacklist-threshold") {
      opt.faults.blacklist_threshold =
          static_cast<std::int32_t>(parse_int(arg, next()));
      opt.faults.enabled = true;
    } else if (arg == "--blacklist-probation") {
      opt.faults.blacklist_probation = from_seconds(parse_double(arg, next()));
      opt.faults.enabled = true;
    } else if (arg == "--heavy-tail-prob") {
      opt.faults.heavy_tail_prob = parse_double(arg, next());
      opt.faults.enabled = true;
    } else if (arg == "--heavy-tail-mult") {
      opt.faults.heavy_tail_mult = parse_double(arg, next());
      opt.faults.enabled = true;
    } else if (arg == "--exec-tiers") {
      // Comma-separated tier entries, each a NAME:FRAC:MULT triple.
      const std::string v = next();
      const auto tier_error = [&](const std::string& entry) {
        usage_error("malformed tier '" + entry + "' for " + arg +
                    " (expected NAME:FRAC:MULT[,NAME:FRAC:MULT...], "
                    "e.g. slow:0.25:2.0,fast:0.25:0.5)");
      };
      opt.tail.tiers.clear();
      std::size_t start = 0;
      while (start <= v.size()) {
        const std::size_t comma = v.find(',', start);
        const std::string entry = v.substr(start, comma - start);
        std::vector<std::string> f;
        std::size_t at = 0;
        while (true) {
          const std::size_t colon = entry.find(':', at);
          f.push_back(entry.substr(at, colon - at));
          if (colon == std::string::npos) break;
          at = colon + 1;
        }
        if (f.size() != 3 || f[0].empty()) tier_error(entry);
        SimConfig::ExecTier tier;
        tier.name = f[0];
        tier.fraction = parse_double(arg, f[1]);
        tier.mult = parse_double(arg, f[2]);
        opt.tail.tiers.push_back(std::move(tier));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--hedge") {
      opt.speculation.enabled = true;
      opt.speculation.hedge = true;
    } else if (arg == "--escalate") {
      opt.tail.escalate = true;
    } else if (arg == "--escalate-wait") {
      opt.tail.escalation_wait = from_seconds(parse_double(arg, next()));
      opt.tail.escalate = true;
    } else if (arg == "--serve-jobs") {
      opt.serve_jobs = parse_count(arg, next());
      if (opt.serve_jobs == 0) opt.serve_jobs = 1;
    } else if (arg == "--arrival") {
      const auto f = parse_spec(arg, next(), 1, 4);
      if (f[0] == "poisson") {
        if (f.size() != 2) usage_error("--arrival poisson:RATE");
        opt.arrival.kind = ArrivalKind::Poisson;
        opt.arrival.rate_per_sec = parse_double(arg, f[1]);
      } else if (f[0] == "trace") {
        if (f.size() != 2) usage_error("--arrival trace:G1,G2,...");
        opt.arrival.kind = ArrivalKind::Trace;
        opt.arrival.trace_gaps_sec.clear();
        std::size_t start = 0;
        const std::string& gaps = f[1];
        while (start <= gaps.size()) {
          const std::size_t comma = gaps.find(',', start);
          opt.arrival.trace_gaps_sec.push_back(
              parse_double(arg, gaps.substr(start, comma - start)));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      } else if (f[0] == "bursty") {
        if (f.size() != 4) usage_error("--arrival bursty:BURST:IDLE:LEN");
        opt.arrival.kind = ArrivalKind::Bursty;
        opt.arrival.burst_rate_per_sec = parse_double(arg, f[1]);
        opt.arrival.idle_rate_per_sec = parse_double(arg, f[2]);
        opt.arrival.burst_len =
            static_cast<std::int32_t>(parse_int(arg, f[3]));
      } else {
        usage_error("unknown arrival kind '" + f[0] +
                    "' (expected poisson:RATE | trace:G1,G2,... | "
                    "bursty:BURST:IDLE:LEN; rates jobs/sec, gaps "
                    "seconds)");
      }
    } else if (arg == "--fair-share") {
      opt.fair_share = true;
    } else if (arg == "--fingerprint") {
      opt.fingerprint = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      usage_error("unknown argument " + arg);
    }
  }

  const auto id = parse_workload(opt.workload);
  if (!id) {
    std::cerr << "unknown workload '" << opt.workload
              << "' (try --list)\n";
    return 2;
  }

  SimConfig config = preset_config(opt.preset);
  config.scheduler = opt.scheduler;
  config.cache = opt.cache;
  config.cache_enabled = opt.cache_enabled;
  config.delay = opt.delay;
  config.waits = LocalityWaits::uniform(from_seconds(opt.wait_seconds));
  config.seed = opt.seed;
  if (opt.noise >= 0.0) config.duration_noise = opt.noise;
  config.faults = opt.faults;
  config.tail = opt.tail;
  config.speculation = opt.speculation;

  Workload workload = make_workload(*id, WorkloadScale{opt.scale});
  const bool serving = opt.serve_jobs > 1;
  std::vector<Workload> serve_jobs;
  if (serving) {
    // N instances of the selected workload; shared bare input names make
    // every instance read the SAME datasets in the merged DAG, so one
    // job's cache fill serves another's read.
    for (std::size_t i = 0; i < opt.serve_jobs; ++i) {
      Workload w = make_workload(*id, WorkloadScale{opt.scale});
      w.name += "#" + std::to_string(i);
      serve_jobs.push_back(std::move(w));
    }
    workload =
        merge_workloads(serve_jobs, /*share_inputs=*/true).batch.combined;
  }

  const DagShape shape = analyze_shape(workload.dag);
  std::cout << workload.name << " (" << category_name(workload.category)
            << "): " << shape.stages << " stages, " << shape.tasks
            << " tasks, depth " << shape.depth << "\n"
            << "system: " << scheduler_name(config.scheduler) << " + "
            << (config.cache_enabled ? cache_policy_name(config.cache)
                                     : "no-cache")
            << " + " << delay_kind_name(config.delay) << ", preset "
            << opt.preset
            << (opt.preset == "case" ? " (7 nodes)" : " (18 nodes)")
            << "\n";
  if (serving) {
    std::cout << "serving: " << opt.serve_jobs << " jobs, arrival "
              << arrival_kind_name(opt.arrival.kind)
              << (opt.fair_share ? ", fair-share" : ", FIFO across jobs")
              << "\n";
  }
  std::cout << "\n";

  // One SweepRun per repeat, seeds seed..seed+K-1; --jobs fans them over
  // the pool (bit-identical to serial for the same seeds).
  SweepReport sweep;
  try {
    std::vector<SweepRun> repeats;
    for (std::size_t k = 0; k < opt.repeat; ++k) {
      SimConfig c = config;
      c.seed = opt.seed + k;
      if (serving) {
        // The repeat seed also drives the arrival draws, so repeats see
        // genuinely different (but reproducible) traffic.
        ArrivalSpec spec = opt.arrival;
        spec.seed = c.seed;
        ServingOptions so;
        so.fair_share = opt.fair_share;
        ServingWorkload sw = make_serving(serve_jobs, spec, so);
        c.serving = sw.serving;
        repeats.push_back({"seed=" + std::to_string(c.seed),
                           std::move(sw.batch.combined), c});
      } else {
        repeats.push_back({"seed=" + std::to_string(c.seed), workload, c});
      }
    }
    sweep = run_sweep(repeats, SweepOptions{opt.jobs});
  } catch (const ConfigError& e) {
    std::cerr << "invalid config: " << e.what() << "\n";
    return 2;
  }
  const RunMetrics& m = sweep.runs.front().metrics;

  if (opt.repeat > 1) {
    // With --fingerprint, every repeat row carries its own digest: this
    // is what the --jobs 1 vs --jobs N equivalence regression compares
    // (per-row, not just the aggregate).
    std::vector<std::string> cols = {"repeat", "seed", "jct", "CPU util",
                                     "hit ratio"};
    if (opt.fingerprint) cols.push_back("fingerprint");
    TextTable reps(cols);
    double sum = 0.0;
    double lo = to_seconds(sweep.runs.front().metrics.jct);
    double hi = lo;
    for (std::size_t k = 0; k < sweep.runs.size(); ++k) {
      const RunMetrics& rm = sweep.runs[k].metrics;
      const double jct = to_seconds(rm.jct);
      // FP mean over the repeats in fixed seed order — deterministic.
      sum += jct;
      lo = std::min(lo, jct);
      hi = std::max(hi, jct);
      std::vector<std::string> row = {
          std::to_string(k), std::to_string(opt.seed + k),
          format_duration(rm.jct), TextTable::percent(rm.cpu_utilization()),
          TextTable::percent(rm.cache.hit_ratio())};
      if (opt.fingerprint) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%016llx",
                      static_cast<unsigned long long>(
                          metrics_fingerprint(rm)));
        row.emplace_back(buf);
      }
      reps.add_row(std::move(row));
    }
    reps.print(std::cout);
    std::cout << "JCT mean " << TextTable::num(sum / static_cast<double>(
                                                         sweep.runs.size()),
                                               1)
              << "s, min " << TextTable::num(lo, 1) << "s, max "
              << TextTable::num(hi, 1) << "s over " << sweep.runs.size()
              << " repeats\n"
              << "sweep: " << TextTable::num(sweep.wall_seconds, 2)
              << "s wall @ " << sweep.jobs << " jobs ("
              << TextTable::num(sweep.runs_per_sec(), 1)
              << " runs/sec)\n\nfirst repeat:\n";
  }

  TextTable summary({"metric", "value"});
  summary.add_row({"job completion time", format_duration(m.jct)});
  summary.add_row({"CPU utilization",
                   TextTable::percent(m.cpu_utilization())});
  summary.add_row({"avg task parallelism",
                   TextTable::num(m.avg_parallelism(), 1)});
  summary.add_row({"avg task duration",
                   TextTable::num(m.avg_task_duration_sec(), 2) + "s"});
  summary.add_row({"cache hit ratio",
                   TextTable::percent(m.cache.hit_ratio())});
  summary.add_row({"high-locality launches",
                   TextTable::percent(m.high_locality_fraction())});
  summary.add_row({"prefetches", std::to_string(m.cache.prefetches)});
  summary.add_row({"proactive evictions",
                   std::to_string(m.cache.proactive_evictions)});
  summary.add_row({"makespan lower bound x",
                   TextTable::num(static_cast<double>(m.jct.count()) /
                                      static_cast<double>(makespan_lower_bound(
                                          workload.dag, m.total_cores)
                                                              .count()),
                                  2)});
  summary.print(std::cout);

  if (!m.jobs.empty()) {
    std::cout << "\nper-job serving breakdown:\n";
    TextTable jt({"job", "wt", "submitted", "finished", "JCT",
                  "eff-reads", "eff-hit"});
    for (const JobStats& j : m.jobs) {
      const double ratio =
          j.effective_task_reads > 0
              ? static_cast<double>(j.effective_task_hits) /
                    static_cast<double>(j.effective_task_reads)
              : 0.0;
      jt.add_row({j.name, std::to_string(j.weight),
                  format_duration(j.submitted),
                  j.finished >= SimTime{0} ? format_duration(j.finished) : "-",
                  j.jct() >= SimTime{0} ? format_duration(j.jct()) : "-",
                  std::to_string(j.effective_task_reads),
                  TextTable::percent(ratio)});
    }
    jt.print(std::cout);
    std::cout << "effective cache-hit ratio: "
              << TextTable::percent(m.cache.effective_hit_ratio()) << "\n";
  }

  if (opt.faults.enabled) {
    std::cout << "\nfault injection (crashes=" << opt.faults.crashes.size()
              << ", partitions=" << opt.faults.partitions.size()
              << ", degrades=" << opt.faults.degrades.size()
              << ", task-fail p=" << opt.faults.task_fail_prob
              << ", block-loss " << opt.faults.block_loss_per_gb_hour
              << "/GiB-h):\n";
    TextTable faults({"fault metric", "value"});
    faults.add_row({"executor crashes",
                    std::to_string(m.faults.executor_crashes)});
    faults.add_row({"attempts failed (crash)",
                    std::to_string(m.faults.crash_failures)});
    faults.add_row({"attempts failed (transient)",
                    std::to_string(m.faults.transient_failures)});
    faults.add_row({"retries", std::to_string(m.faults.retries)});
    faults.add_row({"memory blocks lost",
                    std::to_string(m.faults.memory_blocks_lost)});
    faults.add_row({"disk copies lost",
                    std::to_string(m.faults.disk_copies_lost)});
    faults.add_row({"disk re-replications",
                    std::to_string(m.faults.rereplications)});
    faults.add_row({"blocks fully lost",
                    std::to_string(m.faults.blocks_fully_lost)});
    faults.add_row({"lineage recomputes",
                    std::to_string(m.faults.lineage_recomputes)});
    if (opt.faults.gray_active()) {
      faults.add_row({"suspicions", std::to_string(m.faults.suspicions)});
      faults.add_row({"false suspicions",
                      std::to_string(m.faults.false_suspicions)});
      faults.add_row({"executors declared dead",
                      std::to_string(m.faults.executors_declared_dead)});
      faults.add_row({"heartbeats dropped",
                      std::to_string(m.faults.heartbeats_dropped)});
      faults.add_row({"deferred task reports",
                      std::to_string(m.faults.deferred_reports)});
      faults.add_row({"partition-stalled fetches",
                      std::to_string(m.faults.partition_stalled_fetches)});
      faults.add_row({"degraded launches",
                      std::to_string(m.faults.degraded_launches)});
      faults.add_row({"proactive re-replications",
                      std::to_string(m.faults.proactive_rereplications)});
      faults.add_row({"re-replicated bytes",
                      std::to_string(m.faults.rereplicated_bytes.count())});
    }
    if (opt.faults.blacklist_threshold > 0) {
      faults.add_row({"blacklist entries",
                      std::to_string(m.faults.blacklist_entries)});
      faults.add_row({"blacklist exits",
                      std::to_string(m.faults.blacklist_exits)});
    }
    faults.print(std::cout);

    bool any_per_exec = false;
    for (const auto& pe : m.faults.per_executor) {
      if (pe.any()) { any_per_exec = true; break; }
    }
    if (any_per_exec) {
      std::cout << "\nper-executor fault breakdown (non-zero rows):\n";
      TextTable per({"exec", "crashes", "transient", "suspected",
                     "false-susp", "bl-enter", "bl-exit", "rr-blocks",
                     "rr-bytes"});
      for (std::size_t e = 0; e < m.faults.per_executor.size(); ++e) {
        const auto& pe = m.faults.per_executor[e];
        if (!pe.any()) continue;
        per.add_row({std::to_string(e), std::to_string(pe.crashes),
                     std::to_string(pe.transient_failures),
                     std::to_string(pe.suspicions),
                     std::to_string(pe.false_suspicions),
                     std::to_string(pe.blacklist_entries),
                     std::to_string(pe.blacklist_exits),
                     std::to_string(pe.rereplicated_blocks),
                     std::to_string(pe.rereplicated_bytes.count())});
      }
      per.print(std::cout);
    }
  }

  if (m.faults.heavy_tail_injections > 0 || m.hedge.any()) {
    std::cout << "\ntail tolerance:\n";
    TextTable tail({"tail metric", "value"});
    tail.add_row({"heavy-tail injections",
                  std::to_string(m.faults.heavy_tail_injections)});
    tail.add_row({"hedges launched",
                  std::to_string(m.hedge.hedges_launched)});
    tail.add_row({"hedges won", std::to_string(m.hedge.hedges_won)});
    tail.add_row({"hedges cancelled",
                  std::to_string(m.hedge.hedges_cancelled)});
    tail.add_row({"wasted core-seconds",
                  TextTable::num(m.hedge.wasted_core_seconds(), 1)});
    tail.add_row({"escalations", std::to_string(m.hedge.escalations)});
    tail.print(std::cout);
  }

  if (opt.fingerprint) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(metrics_fingerprint(m)));
    std::cout << "\nmetrics fingerprint: " << buf << "\n";
  }

  if (opt.verbose) {
    std::cout << "\nper-stage timeline:\n";
    TextTable t({"stage", "ready", "launch", "finish", "duration",
                 "hi-loc"});
    const auto locality = stage_locality_breakdown(m, workload.dag);
    for (const StageSpan& span : stage_spans(m)) {
      t.add_row({span.name, format_duration(span.ready),
                 format_duration(span.first_launch),
                 format_duration(span.finish),
                 format_duration(span.finish - span.first_launch),
                 TextTable::percent(
                     locality[static_cast<std::size_t>(span.stage.value())]
                         .high_locality_fraction())});
    }
    t.print(std::cout);
  }

  if (!opt.trace_path.empty()) {
    const std::string path = out_path(opt, opt.trace_path);
    write_chrome_trace(m, workload.dag, path);
    std::cout << "\nchrome trace: " << path
              << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!opt.timeline_path.empty()) {
    const std::string path = out_path(opt, opt.timeline_path);
    write_timeline_csv(m, workload.dag, path);
    std::cout << "timeline CSV: " << path << "\n";
  }
  return 0;
}
