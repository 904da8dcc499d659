// Simulator-performance harness: seeds the perf trajectory with two
// wall-clock numbers and writes them to BENCH_perf.json.
//
//  (1) Sweep scaling — a 16-run (4 workloads × 4 systems) sweep executed
//      serially and again in parallel. The parallel job count is clamped
//      to the real hardware-thread count: oversubscribing a small host
//      measures context-switch overhead, not engine scaling. On a
//      single-hardware-thread host the comparison is skipped outright
//      (and the JSON records why) — publishing a "speedup" from
//      time-sliced threads would be noise presented as signal. Results
//      are fingerprint-checked bit-identical whenever both runs happen.
//  (2) Scheduler hot path — simulation events/sec of the serial sweep,
//      in total and per workload, the numbers that track the hot path
//      across revisions. Besides the Fig. 8 workloads the grid runs one
//      serving stream (4 LogisticRegression jobs under the graybox
//      preset, LERC, fair share): the only entry with many stages ready
//      at once, where Dagon's stage ordering and the pv pushes carry
//      weight, and the only one with suspicion and the serving layer.
//      CI floors three --quick entries with
//      bench/perf_floor.json: KMeans, ConnectedComponent, whose reduce
//      tasks shuffle-read every map output, and the serving stream.
#include <algorithm>
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "exp/sweep.hpp"

using namespace dagon;

namespace {

/// One workload's runs under every Fig. 8 system.
struct WorkloadGrid {
  std::string workload;
  std::vector<SweepRun> runs;
};

/// The serving entry's name in events_per_sec_by_workload.
constexpr const char* kServeEntry = "GrayboxServing";

/// One 4-job stream as tests/test_layer_pins.cpp pins it (graybox preset,
/// LERC, Dagon, fair share), at the bench scale.
SweepRun serving_run() {
  std::vector<Workload> jobs;
  for (int i = 0; i < 4; ++i) {
    Workload w =
        make_workload(WorkloadId::LogisticRegression, bench::bench_scale());
    w.name += "#" + std::to_string(i);
    jobs.push_back(std::move(w));
  }
  SimConfig config = graybox_testbed();
  config.cache = CachePolicyKind::Lerc;
  config.scheduler = SchedulerKind::Dagon;
  config.delay = DelayKind::SensitivityAware;
  ArrivalSpec arrivals;
  arrivals.seed = config.seed;
  ServingOptions options;
  options.fair_share = true;
  ServingWorkload sw = make_serving(jobs, arrivals, options);
  config.serving = sw.serving;
  return {kServeEntry, std::move(sw.batch.combined), config};
}

std::vector<WorkloadGrid> make_grids() {
  // 4 workloads × the Fig. 8 systems = 16 independent runs, plus the
  // serving stream (--quick: the first two workloads and the stream, 9
  // runs — the CI smoke grid the perf floors are keyed to).
  std::vector<WorkloadId> ids = {
      WorkloadId::KMeans, WorkloadId::ConnectedComponent,
      WorkloadId::PageRank, WorkloadId::LogisticRegression};
  if (bench::options().quick) ids.resize(2);
  const std::vector<SystemCombo> systems = figure8_systems();
  std::vector<WorkloadGrid> grids;
  for (const WorkloadId id : ids) {
    const Workload w = make_workload(id, bench::bench_scale());
    WorkloadGrid& g = grids.emplace_back();
    g.workload = workload_name(id);
    for (const SystemCombo& combo : systems) {
      g.runs.push_back({g.workload + "/" + combo.label, w,
                        apply_combo(bench::bench_testbed(), combo)});
    }
  }
  WorkloadGrid& serve = grids.emplace_back();
  serve.workload = kServeEntry;
  serve.runs.push_back(serving_run());
  return grids;
}

std::uint64_t sweep_fingerprint(const SweepReport& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const RunResult& run : r.runs) {
    h ^= metrics_fingerprint(run.metrics);
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t total_events(const SweepReport& r) {
  std::int64_t n = 0;
  for (const RunResult& run : r.runs) n += run.metrics.sim_events;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "PERF — sweep-engine scaling and scheduler hot-path throughput",
      "parallel sweeps are bit-identical to serial and divide wall time "
      "by the worker count");

  const auto grids = make_grids();
  std::vector<SweepRun> grid;
  for (const WorkloadGrid& g : grids) {
    grid.insert(grid.end(), g.runs.begin(), g.runs.end());
  }

  // --- (1) sweep scaling: serial vs parallel -----------------------------
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw == 0 ? 1 : hw_raw;
  // Default to 4 workers, but never more than the machine actually has:
  // oversubscription measures the OS scheduler, not the sweep engine. An
  // explicit --jobs is clamped the same way.
  const std::size_t requested = bench::options().jobs <= 1
                                    ? 4
                                    : resolve_jobs(bench::options().jobs);
  const std::size_t jobs = std::min(requested, hw);
  const bool parallel_skipped = hw < 2;
  const char* skip_reason =
      "only 1 hardware thread visible: a parallel sweep would "
      "time-slice, and its wall clock would measure context-switch "
      "overhead rather than engine scaling";

  // The serial sweep runs one workload at a time, so each workload's
  // events/sec is timed on its own; together they are the whole grid.
  SweepReport serial;
  std::vector<double> workload_events_per_sec;
  for (const WorkloadGrid& g : grids) {
    SweepReport part = run_sweep(g.runs, SweepOptions{1});
    workload_events_per_sec.push_back(
        part.wall_seconds > 0.0
            ? static_cast<double>(total_events(part)) / part.wall_seconds
            : 0.0);
    serial.wall_seconds += part.wall_seconds;
    for (RunResult& run : part.runs) serial.runs.push_back(std::move(run));
  }
  SweepReport parallel;
  bool identical = true;
  double speedup = 0.0;
  std::cout << "(1) " << grid.size() << "-run sweep, " << hw
            << " hardware threads\n";
  if (parallel_skipped) {
    std::cout << "serial wall: " << TextTable::num(serial.wall_seconds, 2)
              << "s (" << TextTable::num(serial.runs_per_sec(), 1)
              << " runs/sec)\n"
              << "parallel comparison SKIPPED: " << skip_reason << "\n\n";
  } else {
    parallel = run_sweep(grid, SweepOptions{jobs});
    identical = sweep_fingerprint(serial) == sweep_fingerprint(parallel);
    speedup = parallel.wall_seconds > 0.0
                  ? serial.wall_seconds / parallel.wall_seconds
                  : 0.0;
    TextTable scaling({"mode", "wall [s]", "runs/sec", "speedup"});
    scaling.add_row({"serial (1 job)",
                     TextTable::num(serial.wall_seconds, 2),
                     TextTable::num(serial.runs_per_sec(), 1), "1.00"});
    scaling.add_row({"parallel (" + std::to_string(jobs) + " jobs)",
                     TextTable::num(parallel.wall_seconds, 2),
                     TextTable::num(parallel.runs_per_sec(), 1),
                     TextTable::num(speedup, 2)});
    scaling.print(std::cout);
    std::cout << "parallel results bit-identical to serial: "
              << (identical ? "YES" : "NO — DETERMINISM BUG") << "\n\n";
  }

  // --- (2) scheduler hot path: events/sec of the serial sweep ----------
  const std::int64_t events = total_events(serial);
  const double events_per_sec =
      serial.wall_seconds > 0.0
          ? static_cast<double>(events) / serial.wall_seconds
          : 0.0;
  std::cout << "(2) scheduler hot path: " << events
            << " events per sweep, "
            << TextTable::num(events_per_sec, 0) << " events/sec\n";
  for (std::size_t i = 0; i < grids.size(); ++i) {
    std::cout << "    " << grids[i].workload << ": "
              << TextTable::num(workload_events_per_sec[i], 0)
              << " events/sec\n";
  }

  const std::string json_path = bench::out_path("BENCH_perf.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"quick\": " << (bench::options().quick ? "true" : "false")
       << ",\n"
       << "  \"sweep_runs\": " << grid.size() << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"serial_wall_sec\": " << serial.wall_seconds << ",\n"
       << "  \"serial_runs_per_sec\": " << serial.runs_per_sec() << ",\n";
  if (parallel_skipped) {
    json << "  \"parallel_skipped\": true,\n"
         << "  \"parallel_skip_reason\": \"" << skip_reason << "\",\n";
  } else {
    json << "  \"parallel_skipped\": false,\n"
         << "  \"jobs\": " << jobs << ",\n"
         << "  \"parallel_wall_sec\": " << parallel.wall_seconds << ",\n"
         << "  \"parallel_speedup\": " << speedup << ",\n"
         << "  \"parallel_runs_per_sec\": " << parallel.runs_per_sec()
         << ",\n"
         << "  \"parallel_bit_identical\": "
         << (identical ? "true" : "false") << ",\n";
  }
  json << "  \"events_per_sweep\": " << events << ",\n"
       << "  \"events_per_sec\": " << events_per_sec << ",\n"
       << "  \"events_per_sec_by_workload\": {";
  for (std::size_t i = 0; i < grids.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"" << grids[i].workload
         << "\": " << workload_events_per_sec[i];
  }
  json << "}\n"
       << "}\n";
  std::cout << "\nJSON: " << json_path << "\n";

  return identical ? 0 : 1;
}
