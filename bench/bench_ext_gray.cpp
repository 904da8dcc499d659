// Extension: gray-failure tolerance — heartbeat suspicion, network
// partitions, degraded executors, blacklisting and proactive
// re-replication, swept over a deterministic scenario grid.
//
// Unlike the figure benches this is primarily a robustness harness:
// every scenario must drain to quiescence (SimDriver verifies that
// internally) and pass the block-accounting invariants re-checked here;
// the CSVs are the measurement byproduct.
//
// DAGON_GRAY_SCENARIOS=N caps the grid for smoke runs (CI).
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "sim/driver.hpp"

using namespace dagon;

namespace {

struct Scenario {
  std::string label;
  FaultConfig faults;
  bool speculation = false;
  /// Label-specific expectations, asserted per run.
  bool expect_suspicions = false;
  bool expect_dropped_heartbeats = false;
  bool expect_declared_dead = false;
};

FaultConfig gray_base() {
  FaultConfig f;
  f.heartbeats = true;
  return f;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  Scenario control;
  control.label = "monitoring-only";
  control.faults = gray_base();
  out.push_back(control);

  // Short partitions: suspicion + recovery, never a death.
  for (const std::int32_t rack : {-1, 0, 1}) {
    Scenario s;
    s.label = "partition 20-32s rack=" + std::to_string(rack);
    s.faults = gray_base();
    s.faults.partitions.push_back(PartitionSpec{20 * kSec, 32 * kSec, rack});
    s.expect_suspicions = true;
    s.expect_dropped_heartbeats = true;
    out.push_back(std::move(s));
  }

  Scenario two_parts;
  two_parts.label = "partitions 20-30s r0 + 45-55s r1";
  two_parts.faults = gray_base();
  two_parts.faults.partitions.push_back(PartitionSpec{20 * kSec, 30 * kSec, 0});
  two_parts.faults.partitions.push_back(PartitionSpec{45 * kSec, 55 * kSec, 1});
  two_parts.expect_suspicions = true;
  two_parts.expect_dropped_heartbeats = true;
  out.push_back(std::move(two_parts));

  Scenario overlap;
  overlap.label = "overlapping partitions r0";
  overlap.faults = gray_base();
  overlap.faults.partitions.push_back(PartitionSpec{20 * kSec, 30 * kSec, 0});
  overlap.faults.partitions.push_back(PartitionSpec{25 * kSec, 34 * kSec, 0});
  overlap.expect_suspicions = true;
  overlap.expect_dropped_heartbeats = true;
  out.push_back(std::move(overlap));

  // Long partition: silence crosses dead_phi (~18.4 intervals) before
  // the heal, so the rack is declared dead and recovered as crashes.
  Scenario dead;
  dead.label = "partition 20-60s (declared dead)";
  dead.faults = gray_base();
  dead.faults.partitions.push_back(PartitionSpec{20 * kSec, 60 * kSec, 0});
  dead.expect_suspicions = true;
  dead.expect_dropped_heartbeats = true;
  dead.expect_declared_dead = true;
  out.push_back(std::move(dead));

  // Degraded executors: late heartbeats make natural false positives;
  // speculation races the slow attempts.
  for (const double slow : {2.5, 4.0}) {
    Scenario s;
    s.label = "degrade x" + TextTable::num(slow, 1) + " 10-120s";
    s.faults = gray_base();
    s.faults.degrades.push_back(
        DegradeSpec{10 * kSec, 120 * kSec, -1, slow});
    s.speculation = true;
    if (slow >= 4.0) s.expect_suspicions = true;
    out.push_back(std::move(s));
  }

  Scenario two_deg;
  two_deg.label = "two degrades x4";
  two_deg.faults = gray_base();
  two_deg.faults.degrades.push_back(DegradeSpec{5 * kSec, 90 * kSec, -1, 4.0});
  two_deg.faults.degrades.push_back(DegradeSpec{15 * kSec, 60 * kSec, -1, 4.0});
  two_deg.speculation = true;
  two_deg.expect_suspicions = true;
  out.push_back(std::move(two_deg));

  Scenario pd;
  pd.label = "partition + degrade";
  pd.faults = gray_base();
  pd.faults.partitions.push_back(PartitionSpec{20 * kSec, 32 * kSec, -1});
  pd.faults.degrades.push_back(DegradeSpec{10 * kSec, 90 * kSec, -1, 3.0});
  pd.speculation = true;
  pd.expect_suspicions = true;
  pd.expect_dropped_heartbeats = true;
  out.push_back(std::move(pd));

  // Chained: a planned crash fires while the other rack is partitioned.
  Scenario chain;
  chain.label = "crash during partition";
  chain.faults = gray_base();
  chain.faults.partitions.push_back(PartitionSpec{20 * kSec, 32 * kSec, 0});
  chain.faults.crashes.push_back(ExecutorCrashSpec{25 * kSec, -1});
  chain.expect_dropped_heartbeats = true;
  out.push_back(std::move(chain));

  // Blacklisting under transient failures, alone and with gray events.
  for (const bool with_partition : {false, true}) {
    Scenario s;
    s.label = std::string("blacklist p=0.03") +
              (with_partition ? " + partition" : "");
    s.faults = gray_base();
    s.faults.task_fail_prob = 0.03;
    s.faults.blacklist_threshold = 2;
    s.faults.blacklist_probation = 20 * kSec;
    if (with_partition) {
      s.faults.partitions.push_back(PartitionSpec{20 * kSec, 32 * kSec, -1});
      s.expect_suspicions = true;
      s.expect_dropped_heartbeats = true;
    }
    out.push_back(std::move(s));
  }

  // Block loss layered on a degrade (recovery under gray pressure).
  Scenario loss;
  loss.label = "block loss + degrade";
  loss.faults = gray_base();
  loss.faults.block_loss_per_gb_hour = 20.0;
  loss.faults.block_loss_interval = 2 * kSec;
  loss.faults.degrades.push_back(DegradeSpec{10 * kSec, 90 * kSec, -1, 3.0});
  loss.speculation = true;
  out.push_back(std::move(loss));

  // Aggressive thresholds: everything is suspicious, nothing may wedge.
  Scenario twitchy;
  twitchy.label = "twitchy detector";
  twitchy.faults = gray_base();
  twitchy.faults.suspect_phi = 0.5;
  twitchy.faults.dead_phi = 6.0;
  twitchy.faults.degrades.push_back(DegradeSpec{5 * kSec, 120 * kSec, -1, 3.0});
  twitchy.faults.partitions.push_back(PartitionSpec{30 * kSec, 40 * kSec, -1});
  twitchy.speculation = true;
  twitchy.expect_suspicions = true;
  twitchy.expect_dropped_heartbeats = true;
  out.push_back(std::move(twitchy));

  Scenario lazy;
  lazy.label = "lazy detector";
  lazy.faults = gray_base();
  lazy.faults.suspect_phi = 3.0;
  lazy.faults.dead_phi = 16.0;
  lazy.faults.partitions.push_back(PartitionSpec{20 * kSec, 32 * kSec, -1});
  lazy.expect_dropped_heartbeats = true;
  out.push_back(std::move(lazy));

  Scenario fast_hb;
  fast_hb.label = "200ms heartbeats + partition";
  fast_hb.faults = gray_base();
  fast_hb.faults.heartbeat_interval = 200 * kMsec;
  // 2 s of silence = 10 intervals: far past suspect_phi, shy of dead_phi.
  fast_hb.faults.partitions.push_back(PartitionSpec{20 * kSec, 22 * kSec, -1});
  fast_hb.expect_suspicions = true;
  fast_hb.expect_dropped_heartbeats = true;
  out.push_back(std::move(fast_hb));

  Scenario everything;
  everything.label = "kitchen sink";
  everything.faults = gray_base();
  everything.faults.partitions.push_back(PartitionSpec{20 * kSec, 32 * kSec, 0});
  everything.faults.degrades.push_back(DegradeSpec{10 * kSec, 80 * kSec, -1, 3.0});
  everything.faults.crashes.push_back(ExecutorCrashSpec{50 * kSec, -1});
  everything.faults.task_fail_prob = 0.02;
  everything.faults.blacklist_threshold = 3;
  everything.faults.block_loss_per_gb_hour = 10.0;
  everything.faults.block_loss_interval = 2 * kSec;
  everything.speculation = true;
  everything.expect_suspicions = true;
  everything.expect_dropped_heartbeats = true;
  out.push_back(std::move(everything));

  return out;
}

/// Two-rack gray cluster: small enough that 50+ scenarios run fast,
/// partitioned-rack fetches actually cross racks.
SimConfig gray_cluster() {
  SimConfig config = paper_testbed();
  config.topology.racks = 2;
  config.topology.nodes_per_rack = 3;
  config.topology.executors_per_node = 2;
  config.topology.cores_per_executor = Cpus{4};
  config.topology.cache_bytes_per_executor = 256 * kMiB;
  config.hdfs.replication = 2;
  return config;
}

void check(bool ok, const std::string& scenario, const std::string& what) {
  if (ok) return;
  std::cerr << "FAILED [" << scenario << "]: " << what << "\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Extension — gray-failure tolerance (suspicion, partitions, "
      "blacklisting, re-replication)",
      "partial failures (silent racks, slow executors) degrade JCT "
      "gracefully: suspects are sidelined and their sole-copy blocks "
      "re-replicated, recoveries are cheap, and every scenario drains "
      "to a quiescent cluster with consistent block accounting");

  constexpr std::uint64_t kSeeds = 3;
  std::vector<Scenario> cases = scenarios();
  std::size_t limit = cases.size() * kSeeds;
  // dagonlint: allow(nondet-source): bench harness cap, bounds runtime only, not sim state
  if (const char* cap = std::getenv("DAGON_GRAY_SCENARIOS")) {
    limit = static_cast<std::size_t>(std::atoll(cap));
  }

  const Workload w = make_workload(WorkloadId::KMeans, WorkloadScale{0.35});
  const JobProfile profile = exact_profile(w.dag);

  CsvWriter csv(bench::csv_path("ext_gray"),
                {"scenario", "seed", "jct_sec", "suspicions",
                 "false_suspicions", "declared_dead", "heartbeats_dropped",
                 "deferred_reports", "stalled_fetches", "degraded_launches",
                 "blacklist_entries", "blacklist_exits", "rereplications",
                 "rereplicated_bytes", "executor_crashes", "retries"});
  CsvWriter per_csv(bench::csv_path("ext_gray_executors"),
                    {"scenario", "seed", "exec", "crashes", "transient",
                     "suspicions", "false_suspicions", "blacklist_entries",
                     "blacklist_exits", "rereplicated_blocks",
                     "rereplicated_bytes"});

  TextTable t({"scenario", "mean JCT [s]", "suspected", "false+", "dead",
               "re-repl", "deferred"});
  std::size_t ran = 0;
  for (const Scenario& sc : cases) {
    double jct_sum = 0.0;
    std::int64_t suspicions = 0, false_pos = 0, dead = 0, rerepl = 0,
                 deferred = 0;
    std::uint64_t seeds_run = 0;
    for (std::uint64_t seed = 42; seed < 42 + kSeeds; ++seed) {
      if (ran >= limit) break;
      ++ran;
      ++seeds_run;
      SimConfig config = gray_cluster();
      config.seed = seed;
      config.faults = sc.faults;
      config.speculation.enabled = sc.speculation;
      SimDriver driver(w.dag, profile, config);
      // run() ends with verify_quiescent(): cores returned, no attempt
      // running, suspect flags consistent — a wedged scenario throws.
      const RunMetrics m = driver.run();
      const FaultStats& f = m.faults;

      check(m.jct > SimTime{0}, sc.label, "run did not complete");
      check(f.false_suspicions <= f.suspicions, sc.label,
            "more recoveries than suspicions");
      check(f.blacklist_exits <= f.blacklist_entries, sc.label,
            "more blacklist exits than entries");
      if (sc.expect_suspicions) {
        check(f.suspicions > 0, sc.label, "expected suspicions");
      }
      if (sc.expect_dropped_heartbeats) {
        check(f.heartbeats_dropped > 0, sc.label,
              "expected dropped heartbeats");
      }
      check((f.executors_declared_dead > 0) == sc.expect_declared_dead,
            sc.label, "declared-dead expectation violated");

      // Block accounting: no memory copy may be attributed to a dead
      // executor, and per-executor counters must sum to the globals.
      for (const Rdd& rdd : w.dag.rdds()) {
        for (std::int32_t k = 0; k < rdd.num_partitions; ++k) {
          for (const ExecutorId holder :
               driver.master().memory_holders(BlockId{rdd.id, k})) {
            check(driver.state().executor(holder).alive(), sc.label,
                  "memory copy held by a dead executor");
          }
        }
      }
      FaultStats::PerExecutor sum;
      for (const auto& pe : f.per_executor) {
        sum.crashes += pe.crashes;
        sum.transient_failures += pe.transient_failures;
        sum.suspicions += pe.suspicions;
        sum.false_suspicions += pe.false_suspicions;
        sum.blacklist_entries += pe.blacklist_entries;
        sum.blacklist_exits += pe.blacklist_exits;
        sum.rereplicated_blocks += pe.rereplicated_blocks;
        sum.rereplicated_bytes += pe.rereplicated_bytes;
      }
      check(sum.crashes == f.executor_crashes, sc.label,
            "per-executor crash counters diverge");
      check(sum.transient_failures == f.transient_failures, sc.label,
            "per-executor transient counters diverge");
      check(sum.suspicions == f.suspicions &&
                sum.false_suspicions == f.false_suspicions,
            sc.label, "per-executor suspicion counters diverge");
      check(sum.blacklist_entries == f.blacklist_entries &&
                sum.blacklist_exits == f.blacklist_exits,
            sc.label, "per-executor blacklist counters diverge");
      check(sum.rereplicated_blocks == f.proactive_rereplications &&
                sum.rereplicated_bytes == f.rereplicated_bytes,
            sc.label, "per-executor re-replication counters diverge");

      // dagonlint: allow(float-accum): report-only mean over a fixed deterministic run order
      jct_sum += to_seconds(m.jct);
      suspicions += f.suspicions;
      false_pos += f.false_suspicions;
      dead += f.executors_declared_dead;
      rerepl += f.proactive_rereplications;
      deferred += f.deferred_reports;
      csv.add_row({sc.label, std::to_string(seed),
                   TextTable::num(to_seconds(m.jct), 2),
                   std::to_string(f.suspicions),
                   std::to_string(f.false_suspicions),
                   std::to_string(f.executors_declared_dead),
                   std::to_string(f.heartbeats_dropped),
                   std::to_string(f.deferred_reports),
                   std::to_string(f.partition_stalled_fetches),
                   std::to_string(f.degraded_launches),
                   std::to_string(f.blacklist_entries),
                   std::to_string(f.blacklist_exits),
                   std::to_string(f.proactive_rereplications),
                   std::to_string(f.rereplicated_bytes.count()),
                   std::to_string(f.executor_crashes),
                   std::to_string(f.retries)});
      for (std::size_t e = 0; e < f.per_executor.size(); ++e) {
        const auto& pe = f.per_executor[e];
        if (!pe.any()) continue;
        per_csv.add_row({sc.label, std::to_string(seed), std::to_string(e),
                         std::to_string(pe.crashes),
                         std::to_string(pe.transient_failures),
                         std::to_string(pe.suspicions),
                         std::to_string(pe.false_suspicions),
                         std::to_string(pe.blacklist_entries),
                         std::to_string(pe.blacklist_exits),
                         std::to_string(pe.rereplicated_blocks),
                         std::to_string(pe.rereplicated_bytes.count())});
      }
    }
    if (seeds_run == 0) continue;
    t.add_row({sc.label,
               TextTable::num(jct_sum / static_cast<double>(seeds_run), 1),
               std::to_string(suspicions), std::to_string(false_pos),
               std::to_string(dead), std::to_string(rerepl),
               std::to_string(deferred)});
  }
  t.print(std::cout);
  std::cout << "\n" << ran << " scenarios drained to quiescence with "
            << "consistent block accounting\n"
            << "CSV: " << bench::csv_path("ext_gray") << ", "
            << bench::csv_path("ext_gray_executors") << "\n";
  return 0;
}
