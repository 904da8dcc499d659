// Tail-tolerance ablation: heavy-tailed task durations on a
// heterogeneous cluster, with the tail defenses switched off one at a
// time (BENCH_tail.json).
//
// Cluster: the 18-node testbed with a quarter of the executors 2x slow
// and a quarter 2x fast (tier membership from a dedicated RNG stream).
// Load: a Poisson stream of KMeans jobs over one shared cluster, so
// per-job JCTs give a real latency distribution per point. Injection:
// each attempt independently draws an 8x duration multiplier with
// probability p (the heavy-tail intensity axis).
//
// Variants:
//   full            Dagon + hedged speculation (cancel-on-first-finish)
//                   + critical-path escalation onto the fast tier
//   no-hedging      speculation disabled entirely
//   no-escalation   hedging on, critical-path escalation off
//   no-dag-priority stock-Spark scheduling — FIFO across jobs and
//                   stages, native delay (tail defenses stay on)
//
// Reported per (variant, intensity): pooled per-job JCT p50/p95/p99,
// wasted core-seconds (work burned on cancelled attempts — the price of
// hedging), hedge and escalation counts. Acceptance: under the heaviest
// tail, `full` must not lose to `no-hedging` on JCT p95 — hedging has
// to buy back at least the tail it was built for.
//
// --quick shrinks the grid to the heaviest intensity and one seed.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace dagon;

namespace {

constexpr double kHeavyTailMult = 8.0;
constexpr double kArrivalRate = 0.5;  // jobs/sec

struct Variant {
  std::string name;
  bool dagon = true;    // Dagon priority vs FIFO/native
  bool hedge = true;    // hedged speculation with cancellation
  bool escalate = true; // critical-path escalation to the fast tier
};

SimConfig make_tail_config(const Variant& v, double tail_prob,
                           std::uint64_t seed) {
  SimConfig config = bench::bench_testbed();
  config.seed = seed;
  if (v.dagon) {
    config.scheduler = SchedulerKind::Dagon;
    config.cache = CachePolicyKind::Lrp;
    config.delay = DelayKind::SensitivityAware;
  } else {
    config.scheduler = SchedulerKind::Fifo;
    config.cache = CachePolicyKind::Lrp;
    config.delay = DelayKind::Native;
  }
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.25, 2.0});
  config.tail.tiers.push_back(SimConfig::ExecTier{"fast", 0.25, 0.5});
  config.tail.escalate = v.escalate;
  config.tail.escalation_wait = 2 * kSec;
  config.faults.heavy_tail_prob = tail_prob;
  config.faults.heavy_tail_mult = kHeavyTailMult;
  config.speculation.enabled = v.hedge;
  config.speculation.hedge = v.hedge;
  return config;
}

struct TailPoint {
  std::string variant;
  double tail_prob = 0.0;
  std::vector<double> jct_sec;  // pooled per-job JCTs across seeds
  double jct_p50 = 0.0;
  double jct_p95 = 0.0;
  double jct_p99 = 0.0;
  double wasted_core_sec = 0.0;
  std::int64_t hedges_launched = 0;
  std::int64_t hedges_won = 0;
  std::int64_t escalations = 0;
  std::int64_t heavy_tail_injections = 0;
  std::uint64_t fingerprint = 0;  // first seed's run
};

double percentile(std::vector<double> v, double p) {
  DAGON_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  // dagonlint: allow(narrowing-cast): report-only percentile rank, not a unit quantity
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Runs one (variant, intensity) cell across `seeds`, pooling the
/// per-job JCT samples. Asserts the hedge-accounting invariants on
/// every run.
TailPoint run_point(const Variant& v, double tail_prob,
                    std::int32_t jobs,
                    const std::vector<std::uint64_t>& seeds) {
  TailPoint out;
  out.variant = v.name;
  out.tail_prob = tail_prob;
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    std::vector<Workload> instances;
    instances.reserve(static_cast<std::size_t>(jobs));
    for (std::int32_t j = 0; j < jobs; ++j) {
      Workload w = make_workload(WorkloadId::KMeans, WorkloadScale{0.3});
      w.name += "#" + std::to_string(j);
      instances.push_back(std::move(w));
    }
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rate_per_sec = kArrivalRate;
    spec.seed = seeds[si];
    ServingOptions so;
    // DAG-priority off means stock Spark end to end: FIFO across jobs
    // as well as FIFO stage selection below.
    so.fair_share = v.dagon;
    ServingWorkload sw = make_serving(instances, spec, so);
    SimConfig config = make_tail_config(v, tail_prob, seeds[si]);
    config.serving = sw.serving;

    const RunMetrics m = run_workload(sw.batch.combined, config).metrics;
    if (si == 0) out.fingerprint = metrics_fingerprint(m);

    // Hedge-accounting invariants (the driver already verified
    // quiescence and zero FSM breaches before returning).
    DAGON_CHECK_MSG(m.hedge.hedges_won <= m.hedge.hedges_launched,
                    "more hedges won than launched");
    DAGON_CHECK_MSG(m.hedge.wasted_core_us >= CpuWork{0},
                    "negative wasted core time");
    if (!v.hedge) {
      DAGON_CHECK_MSG(m.hedge.hedges_launched == 0 &&
                          m.hedge.hedges_cancelled == 0,
                      "hedge counters moved with hedging disabled");
    }
    std::int64_t cancelled = 0;
    for (const TaskRecord& t : m.tasks) cancelled += t.cancelled ? 1 : 0;
    if (v.hedge) {
      DAGON_CHECK_MSG(cancelled == m.hedge.hedges_cancelled,
                      "cancelled task records disagree with HedgeStats");
    }
    for (const JobStats& j : m.jobs) {
      DAGON_CHECK_MSG(j.finished >= j.submitted,
                      "job '" << j.name << "' did not quiesce");
      out.jct_sec.push_back(to_seconds(j.jct()));
    }
    // dagonlint: allow(float-accum): report-only mean over a fixed deterministic run order
    out.wasted_core_sec += m.hedge.wasted_core_seconds();
    out.hedges_launched += m.hedge.hedges_launched;
    out.hedges_won += m.hedge.hedges_won;
    out.escalations += m.hedge.escalations;
    out.heavy_tail_injections += m.faults.heavy_tail_injections;
  }
  out.jct_p50 = percentile(out.jct_sec, 50.0);
  out.jct_p95 = percentile(out.jct_sec, 95.0);
  out.jct_p99 = percentile(out.jct_sec, 99.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "TAIL — hedged speculation and escalation under heavy-tailed "
      "stragglers",
      "cancellation-on-first-finish hedging and critical-path escalation "
      "bound the JCT tail on a heterogeneous cluster at a measured "
      "wasted-work cost");

  const std::vector<Variant> variants = {
      {"full", true, true, true},
      {"no-hedging", true, false, true},
      {"no-escalation", true, true, false},
      {"no-dag-priority", false, true, true},
  };
  std::vector<double> tail_probs = {0.0, 0.05, 0.15};
  std::int32_t jobs = 8;
  std::vector<std::uint64_t> seeds = {42, 43, 44};
  if (bench::options().quick) {
    tail_probs = {0.15};
    jobs = 4;
    seeds = {42};
  }

  TextTable table({"variant", "tail p", "JCT p50 [s]", "JCT p95 [s]",
                   "JCT p99 [s]", "wasted core-s", "hedges (won)",
                   "escalations"});
  std::vector<TailPoint> points;
  for (const double prob : tail_probs) {
    for (const Variant& v : variants) {
      TailPoint p = run_point(v, prob, jobs, seeds);
      table.add_row(
          {p.variant, TextTable::num(prob, 2),
           TextTable::num(p.jct_p50, 1), TextTable::num(p.jct_p95, 1),
           TextTable::num(p.jct_p99, 1),
           TextTable::num(p.wasted_core_sec, 1),
           std::to_string(p.hedges_launched) + " (" +
               std::to_string(p.hedges_won) + ")",
           std::to_string(p.escalations)});
      points.push_back(std::move(p));
    }
  }
  table.print(std::cout);

  // Headline acceptance: under the heaviest tail, hedging must buy back
  // tail latency — `full` cannot lose to `no-hedging` on JCT p95.
  const double heavy = tail_probs.back();
  double full_p95 = 0.0, nohedge_p95 = 0.0, full_wasted = 0.0;
  for (const TailPoint& p : points) {
    if (p.tail_prob != heavy) continue;
    if (p.variant == "full") {
      full_p95 = p.jct_p95;
      full_wasted = p.wasted_core_sec;
    }
    if (p.variant == "no-hedging") nohedge_p95 = p.jct_p95;
  }
  std::cout << "\nheaviest tail (p=" << TextTable::num(heavy, 2)
            << "): full JCT p95 " << TextTable::num(full_p95, 1)
            << "s vs no-hedging " << TextTable::num(nohedge_p95, 1)
            << "s, for " << TextTable::num(full_wasted, 1)
            << " wasted core-seconds\n";
  DAGON_CHECK_MSG(full_p95 <= nohedge_p95,
                  "hedging must not lose to no-hedging on JCT p95 under "
                  "the heaviest tail");

  const std::string json_path = bench::out_path("BENCH_tail.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"quick\": " << (bench::options().quick ? "true" : "false")
       << ",\n"
       << "  \"workload\": \"Poisson stream of KMeans(scale 0.3) jobs, "
          "fair-share, one shared cluster\",\n"
       << "  \"tiers\": \"slow:0.25:2.0,fast:0.25:0.5\",\n"
       << "  \"heavy_tail_mult\": " << kHeavyTailMult << ",\n"
       << "  \"arrival_rate_per_sec\": " << kArrivalRate << ",\n"
       << "  \"fair_share\": \"all variants except no-dag-priority\",\n"
       << "  \"jobs_per_run\": " << jobs << ",\n"
       << "  \"seeds\": " << seeds.size() << ",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TailPoint& p = points[i];
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, p.fingerprint);
    json << "    {\"variant\": \"" << p.variant
         << "\", \"heavy_tail_prob\": " << p.tail_prob
         << ", \"jct_p50_sec\": " << p.jct_p50
         << ", \"jct_p95_sec\": " << p.jct_p95
         << ", \"jct_p99_sec\": " << p.jct_p99
         << ", \"wasted_core_seconds\": " << p.wasted_core_sec
         << ", \"hedges_launched\": " << p.hedges_launched
         << ", \"hedges_won\": " << p.hedges_won
         << ", \"escalations\": " << p.escalations
         << ", \"heavy_tail_injections\": " << p.heavy_tail_injections
         << ", \"fingerprint\": \"" << fp << "\"}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "JSON: " << json_path << "\n";
  return 0;
}
