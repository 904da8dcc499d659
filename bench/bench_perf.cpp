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
//      the number that tracks the hot path across revisions; CI floors
//      the --quick grid's value with bench/perf_floor.json.
#include <algorithm>
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "exp/sweep.hpp"

using namespace dagon;

namespace {

std::vector<SweepRun> make_grid() {
  // 4 workloads × the Fig. 8 systems = 16 independent runs (--quick:
  // one workload, 4 runs — the CI smoke grid the perf floor is keyed to).
  std::vector<WorkloadId> ids = {
      WorkloadId::KMeans, WorkloadId::ConnectedComponent,
      WorkloadId::PageRank, WorkloadId::LogisticRegression};
  if (bench::options().quick) ids.resize(1);
  const std::vector<SystemCombo> systems = figure8_systems();
  std::vector<SweepRun> grid;
  grid.reserve(ids.size() * systems.size());
  for (const WorkloadId id : ids) {
    const Workload w = make_workload(id, bench::bench_scale());
    for (const SystemCombo& combo : systems) {
      grid.push_back({std::string(workload_name(id)) + "/" + combo.label,
                      w, apply_combo(bench::bench_testbed(), combo)});
    }
  }
  return grid;
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

  const auto grid = make_grid();

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

  const SweepReport serial = run_sweep(grid, SweepOptions{1});
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
       << "  \"events_per_sec\": " << events_per_sec << "\n"
       << "}\n";
  std::cout << "\nJSON: " << json_path << "\n";

  return identical ? 0 : 1;
}
