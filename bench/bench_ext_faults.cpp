// Extension: fault injection + lineage recovery — how much of Dagon's
// advantage over stock Spark survives executor crashes and transient
// task failures.
//
// Sweeps the transient failure probability (plus one mid-run executor
// crash scenario) across {FIFO+LRU, Dagon} over several seeds. Failures
// draw from a dedicated RNG stream, so the p=0 rows are bit-identical to
// the fault-free simulator.
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "exp/sweep.hpp"

using namespace dagon;

namespace {

struct Scenario {
  std::string label;
  FaultConfig faults;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (const double p : {0.0, 0.01, 0.03, 0.1}) {
    Scenario s;
    s.label = "task-fail p=" + TextTable::num(p, 2);
    s.faults.task_fail_prob = p;
    out.push_back(std::move(s));
  }
  Scenario crash;
  crash.label = "crash 1 exec @30s";
  crash.faults.crashes.push_back(ExecutorCrashSpec{30 * kSec, -1});
  out.push_back(std::move(crash));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Extension — JCT degradation under faults (lineage recovery)",
      "DAG-aware caching keeps paying off under failures: recovery "
      "re-runs only the producing task indices of lost blocks, so the "
      "cached-intermediate advantage is not wiped out by a crash");

  constexpr std::uint64_t kSeeds = 3;
  const Workload w = make_workload(WorkloadId::KMeans, bench::bench_scale());
  const std::vector<SystemCombo> systems = {stock_spark(), dagon_full()};
  const std::vector<Scenario> cases = scenarios();

  std::vector<SweepRun> runs;
  for (const SystemCombo& sys : systems) {
    for (const Scenario& sc : cases) {
      for (std::uint64_t seed = 42; seed < 42 + kSeeds; ++seed) {
        SimConfig config = apply_combo(bench::bench_testbed(), sys);
        config.faults = sc.faults;
        config.seed = seed;
        runs.push_back({sys.label + " / " + sc.label, w, config});
      }
    }
  }
  const SweepReport sweep = run_sweep(runs, SweepOptions{bench::options().jobs});

  CsvWriter csv(bench::csv_path("ext_faults"),
                {"workload", "system", "scenario", "seed", "jct_sec",
                 "hit_ratio", "transient_failures", "crash_failures",
                 "retries", "blocks_fully_lost", "lineage_recomputes"});
  CsvWriter per_csv(bench::csv_path("ext_faults_executors"),
                    {"workload", "system", "scenario", "seed", "exec",
                     "crashes", "transient_failures"});

  TextTable t({"system", "scenario", "mean JCT [s]", "vs fault-free",
               "retries", "recomputes", "hit ratio"});
  std::size_t r = 0;
  for (const SystemCombo& sys : systems) {
    double base_jct = 0.0;
    for (const Scenario& sc : cases) {
      double jct_sum = 0.0;
      double hit_sum = 0.0;
      std::int64_t retries = 0;
      std::int64_t recomputes = 0;
      for (std::uint64_t k = 0; k < kSeeds; ++k, ++r) {
        const RunMetrics& m = sweep.runs[r].metrics;
        // dagonlint: allow(float-accum): report-only mean over a fixed deterministic run order
        jct_sum += to_seconds(m.jct);
        // dagonlint: allow(float-accum): report-only mean over a fixed deterministic run order
        hit_sum += m.cache.hit_ratio();
        retries += m.faults.retries;
        recomputes += m.faults.lineage_recomputes;
        csv.add_row({w.name, sys.label, sc.label,
                     std::to_string(42 + k), TextTable::num(to_seconds(m.jct), 2),
                     TextTable::num(m.cache.hit_ratio(), 3),
                     std::to_string(m.faults.transient_failures),
                     std::to_string(m.faults.crash_failures),
                     std::to_string(m.faults.retries),
                     std::to_string(m.faults.blocks_fully_lost),
                     std::to_string(m.faults.lineage_recomputes)});
        for (std::size_t e = 0; e < m.faults.per_executor.size(); ++e) {
          const auto& pe = m.faults.per_executor[e];
          if (!pe.any()) continue;
          per_csv.add_row({w.name, sys.label, sc.label,
                           std::to_string(42 + k), std::to_string(e),
                           std::to_string(pe.crashes),
                           std::to_string(pe.transient_failures)});
        }
      }
      const double mean_jct = jct_sum / static_cast<double>(kSeeds);
      if (&sc == &cases.front()) base_jct = mean_jct;
      t.add_row({sys.label, sc.label, TextTable::num(mean_jct, 1),
                 bench::delta(mean_jct, base_jct),
                 std::to_string(retries), std::to_string(recomputes),
                 TextTable::percent(hit_sum / static_cast<double>(kSeeds))});
    }
  }
  t.print(std::cout);
  std::cout << "\nCSV: " << bench::csv_path("ext_faults") << ", "
            << bench::csv_path("ext_faults_executors") << "\n";
  return 0;
}
