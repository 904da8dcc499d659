// Extension: multi-job batches — the regime the paper frames but does
// not measure (§I contrasts Spark's FIFO and Fair schedulers; §III-A2
// motivates the heuristic with multi-tenant clusters).
//
// A mixed batch (one CPU-intensive, one mixed, one I/O-intensive job)
// runs under every scheduler as a serving run with every job submitted
// at t=0; we report per-job completion times, the batch makespan, and
// mean JCT — the classic makespan-vs-fairness trade-off, plus what
// Dagon's pv ordering does to it.
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "workloads/serving.hpp"

using namespace dagon;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Extension — multi-job scheduling (FIFO vs Fair vs CP vs Graphene "
      "vs Dagon)",
      "beyond the paper: Dagon's priority values extend naturally across "
      "job boundaries, trading a little fairness for batch makespan");

  const ServingWorkload batch = merge_workloads({
      make_workload(WorkloadId::LogisticRegression, WorkloadScale{1.0}),
      make_workload(WorkloadId::KMeans, WorkloadScale{0.5}),
      make_workload(WorkloadId::ConnectedComponent, WorkloadScale{1.0}),
  });
  const Workload& combined = batch.batch.combined;
  std::cout << "batch: " << combined.name << " ("
            << combined.dag.num_stages() << " stages, "
            << combined.dag.total_tasks() << " tasks)\n\n";

  CsvWriter csv(bench::csv_path("ext_multi_job"),
                {"scheduler", "job", "first_launch_sec", "jct_sec"});

  TextTable t({"scheduler", "LogReg JCT", "KMeans JCT", "CC JCT",
               "makespan", "mean JCT"});
  for (const SchedulerKind kind :
       {SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::CriticalPath,
        SchedulerKind::Graphene, SchedulerKind::Dagon}) {
    SimConfig config = bench::bench_testbed();
    config.scheduler = kind;
    config.cache = kind == SchedulerKind::Dagon ? CachePolicyKind::Lrp
                                                : CachePolicyKind::Lru;
    config.serving = batch.serving;
    const RunMetrics m = run_workload(combined, config).metrics;
    double mean = 0.0;
    std::vector<std::string> row{scheduler_name(kind)};
    for (const JobStats& job : m.jobs) {
      row.push_back(TextTable::num(to_seconds(job.jct()), 1));
      // dagonlint: allow(float-accum): report-only mean over a fixed deterministic run order
      mean += to_seconds(job.jct());
      csv.add_row({scheduler_name(kind), job.name,
                   TextTable::num(to_seconds(job.first_launch), 2),
                   TextTable::num(to_seconds(job.jct()), 2)});
    }
    row.push_back(TextTable::num(to_seconds(m.jct), 1));
    row.push_back(
        TextTable::num(mean / static_cast<double>(m.jobs.size()), 1));
    t.add_row(row);
  }
  t.print(std::cout);
  std::cout << "\nFIFO serializes jobs (great first-job JCT, terrible "
               "last); Fair\ninterleaves (fair but slow everywhere); "
               "Dagon packs by remaining\nwork — near-best makespan "
               "without Fair's uniform slowdown.\n";
  std::cout << "CSV: " << bench::csv_path("ext_multi_job") << "\n";
  return 0;
}
