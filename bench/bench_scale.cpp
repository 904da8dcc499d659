// Scalability harness: how far past the paper's 18-node testbed does
// the event core go? Sweeps cluster size and task count together up to
// 10,000 executors / 1,000,000 tasks and records, per point:
//
//   wall-clock seconds, simulator events/sec, peak RSS, simulated JCT,
//   and the metrics fingerprint (so a rerun can assert determinism).
//
// The workload is a deliberately scheduler-bound three-stage DAG:
//
//   src (32 HDFS partitions) --narrow--> prep (32 tasks)
//                                          |
//                                        shuffle
//                                          v
//                                        fan (N tasks, zero output)
//
// The fan stage carries the task count. It is a pure-shuffle consumer,
// so every decision exercises the NO_PREF fast path plus the free-slot
// executor index (the fit bitmap of its task_cpus, walked without a
// candidate mask) rather than the pending-task index of narrow stages
// (PendingTaskIndex and its candidate masks, which only prep's 32
// tasks use). Keeping the
// shuffle *parent* at 32 partitions matters: prep's output is
// cacheable, so each fan task reads it block by block, one
// BlockManagerMaster::lookup per parent partition (only non-cacheable
// shuffle parents are read from per-source counts in O(1), DESIGN.md
// §11), and a wide parent would turn input assembly itself into the
// bottleneck being measured.
//
// Each point runs in a forked child process and pipes its result back,
// so every "peak RSS" is that point's own high-water mark. (ru_maxrss
// is monotone for the life of a process: sampling it after each point
// in one process reports the LARGEST point so far, not the current one
// — ascending order only masked the bug, it did not fix it.) When fork
// is unavailable the harness falls back to in-process runs and the JSON
// labels the RSS numbers as cumulative. Prefetch is off (its scan is
// O(executors) per tick and belongs to the cache plane, not the event
// core being measured).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"

using namespace dagon;

namespace {

struct ScalePoint {
  std::int32_t racks = 0;
  std::int32_t nodes_per_rack = 0;
  std::int32_t fan_tasks = 0;
};

struct ScaleResult {
  std::int32_t executors = 0;
  Cpus total_cores{};
  std::int64_t tasks = 0;
  std::int64_t sim_events = 0;
  double wall_sec = 0.0;
  double events_per_sec = 0.0;
  double jct_sec = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t fingerprint = 0;
};

constexpr std::int32_t kParents = 32;

Workload make_scale_workload(std::int32_t fan_tasks) {
  JobDagBuilder b("scale_fan_" + std::to_string(fan_tasks));
  const RddId src = b.input_rdd("src", kParents, 64 * kMiB);
  const StageId prep = b.add_stage({.name = "prep",
                                    .inputs = {{src, DepKind::Narrow}},
                                    .num_tasks = kParents,
                                    .task_cpus = Cpus{1},
                                    .task_duration = 2 * kSec,
                                    .output_bytes_per_partition = 64 * kMiB});
  b.add_stage({.name = "fan",
               .inputs = {{b.output_of(prep), DepKind::Shuffle}},
               .num_tasks = fan_tasks,
               .task_cpus = Cpus{1},
               .task_duration = 5 * kSec,
               .output_bytes_per_partition = Bytes{0},
               .cache_output = false});
  Workload w;
  w.name = "scale_fan_" + std::to_string(fan_tasks);
  w.category = WorkloadCategory::Mixed;
  w.dag = b.build();
  return w;
}

SimConfig make_scale_config(const ScalePoint& p) {
  SimConfig config = bench::bench_testbed();
  config.topology.racks = p.racks;
  config.topology.nodes_per_rack = p.nodes_per_rack;
  config.topology.executors_per_node = 4;
  config.topology.cores_per_executor = Cpus{4};
  config.topology.cache_bytes_per_executor = 256 * kMiB;
  config.prefetch_enabled = false;
  return config;
}

double peak_rss_mb_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// True when the per-point RSS numbers came from isolated child
/// processes (accurate) rather than one cumulative process.
std::atomic<bool> g_forked_rss{true};

ScaleResult run_point(const ScalePoint& p) {
  const Workload w = make_scale_workload(p.fan_tasks);
  const SimConfig config = make_scale_config(p);

  const auto start = std::chrono::steady_clock::now();
  const RunResult result = run_workload(w, config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScaleResult r;
  r.executors = p.racks * p.nodes_per_rack * 4;
  r.total_cores = Cpus{r.executors * 4};
  r.tasks = static_cast<std::int64_t>(p.fan_tasks) + kParents;
  r.sim_events = result.metrics.sim_events;
  r.wall_sec = wall;
  r.events_per_sec =
      wall > 0.0 ? static_cast<double>(r.sim_events) / wall : 0.0;
  r.jct_sec = to_seconds(result.metrics.jct);
  r.peak_rss_mb = peak_rss_mb_now();
  r.fingerprint = metrics_fingerprint(result.metrics);
  return r;
}

/// Runs the point in a forked child and pipes the (trivially copyable)
/// result back, so ru_maxrss — monotone per process — reflects only
/// this point. Falls back to in-process on fork/pipe failure.
ScaleResult run_point_isolated(const ScalePoint& p) {
  static_assert(std::is_trivially_copyable_v<ScaleResult>);
  int fd[2];
  if (pipe(fd) != 0) {
    g_forked_rss = false;
    return run_point(p);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    g_forked_rss = false;
    return run_point(p);
  }
  if (pid == 0) {
    close(fd[0]);
    const ScaleResult r = run_point(p);
    ssize_t left = sizeof r;
    const char* src = reinterpret_cast<const char*>(&r);
    while (left > 0) {
      const ssize_t n = write(fd[1], src, static_cast<std::size_t>(left));
      if (n <= 0) _exit(1);
      src += n;
      left -= n;
    }
    close(fd[1]);
    _exit(0);
  }
  close(fd[1]);
  ScaleResult r;
  ssize_t got = 0;
  char* dst = reinterpret_cast<char*>(&r);
  while (got < static_cast<ssize_t>(sizeof r)) {
    const ssize_t n = read(fd[0], dst + got, sizeof r - got);
    if (n <= 0) break;
    got += n;
  }
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof r) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    // Child died before reporting: rerun here so the sweep completes.
    g_forked_rss = false;
    return run_point(p);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "SCALE — event-core throughput vs cluster and task-count size",
      "a binary-heap event queue, SoA task state, and the free-slot "
      "executor index keep per-decision cost sublinear in cluster size, so "
      "the simulator sustains 10k executors / 1M tasks in one process");

  // Executors = racks x nodes_per_rack x 4.
  std::vector<ScalePoint> points = {
      {2, 9, 10'000},       //    72 executors (the paper testbed shape)
      {5, 5, 10'000},       //   100 executors
      {5, 50, 100'000},     // 1,000 executors
  };
  if (!bench::options().quick) {
    points.push_back({8, 125, 400'000});    //  4,000 executors
    points.push_back({10, 250, 1'000'000});  // 10,000 executors / ~1M tasks
  }

  TextTable table({"executors", "cores", "tasks", "events", "wall [s]",
                   "events/sec", "JCT [s]", "peak RSS [MB]"});
  std::vector<ScaleResult> results;
  results.reserve(points.size());
  for (const ScalePoint& p : points) {
    const ScaleResult r = run_point_isolated(p);
    results.push_back(r);
    table.add_row({std::to_string(r.executors),
                   std::to_string(r.total_cores.count()), std::to_string(r.tasks),
                   std::to_string(r.sim_events),
                   TextTable::num(r.wall_sec, 2),
                   TextTable::num(r.events_per_sec, 0),
                   TextTable::num(r.jct_sec, 1),
                   TextTable::num(r.peak_rss_mb, 1)});
    std::cout << "done: " << r.executors << " executors / " << r.tasks
              << " tasks in " << TextTable::num(r.wall_sec, 2) << "s\n";
  }
  std::cout << "\n";
  table.print(std::cout);

  const std::string json_path = bench::out_path("BENCH_scale.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"quick\": " << (bench::options().quick ? "true" : "false")
       << ",\n"
       << "  \"workload\": \"src(32 HDFS parts) ->narrow prep(32) "
          "->shuffle fan(N, zero-output)\",\n"
       << "  \"prefetch_enabled\": false,\n"
       << "  \"peak_rss_note\": \""
       << (g_forked_rss
               ? "each point ran in its own forked child process, so "
                 "peak_rss_mb is that point's true high-water mark"
               : "fork unavailable: points ran in one process, so "
                 "peak_rss_mb is CUMULATIVE (ru_maxrss is monotone) and "
                 "upper-bounds each point by the largest so far")
       << "\",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, r.fingerprint);
    json << "    {\"executors\": " << r.executors
         << ", \"total_cores\": " << r.total_cores
         << ", \"tasks\": " << r.tasks
         << ", \"sim_events\": " << r.sim_events
         << ", \"wall_sec\": " << r.wall_sec
         << ", \"events_per_sec\": " << r.events_per_sec
         << ", \"jct_sec\": " << r.jct_sec
         << ", \"peak_rss_mb\": " << r.peak_rss_mb
         << ", \"fingerprint\": \"" << fp << "\"}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nJSON: " << json_path << "\n";
  return 0;
}
