// Sweep-engine tests: the determinism contract (parallel == serial,
// bit-for-bit, for every workload × policy combination) and the thread
// pool's drain/join semantics under exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/dagon.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"

namespace dagon {
namespace {

std::vector<SweepRun> policy_grid() {
  // 3 workloads × 3 (scheduler, cache) systems, distinct seeds — small
  // scale keeps the 9 runs fast while still exercising every subsystem.
  const std::vector<WorkloadId> ids = {WorkloadId::KMeans,
                                       WorkloadId::PageRank,
                                       WorkloadId::ConnectedComponent};
  struct System {
    SchedulerKind scheduler;
    CachePolicyKind cache;
    DelayKind delay;
  };
  const std::vector<System> systems = {
      {SchedulerKind::Fifo, CachePolicyKind::Lru, DelayKind::Native},
      {SchedulerKind::Graphene, CachePolicyKind::Mrd, DelayKind::Native},
      {SchedulerKind::Dagon, CachePolicyKind::Lrp,
       DelayKind::SensitivityAware}};

  std::vector<SweepRun> grid;
  std::uint64_t seed = 7;
  for (const WorkloadId id : ids) {
    const Workload w = make_workload(id, WorkloadScale{0.5});
    for (const System& sys : systems) {
      SimConfig config = paper_testbed();
      config.scheduler = sys.scheduler;
      config.cache = sys.cache;
      config.delay = sys.delay;
      config.seed = seed++;
      grid.push_back({workload_name(id), w, config});
    }
  }
  return grid;
}

TEST(Sweep, ParallelBitIdenticalToSerial) {
  const auto grid = policy_grid();
  const SweepReport serial = run_sweep(grid, SweepOptions{1});
  const SweepReport parallel = run_sweep(grid, SweepOptions{4});

  ASSERT_EQ(serial.runs.size(), grid.size());
  ASSERT_EQ(parallel.runs.size(), grid.size());
  EXPECT_EQ(serial.jobs, 1u);
  EXPECT_EQ(parallel.jobs, 4u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(serial.runs[i].metrics),
              metrics_fingerprint(parallel.runs[i].metrics))
        << "run " << i << " (" << grid[i].label << ") diverged";
  }
}

TEST(Sweep, RepeatedParallelRunsAreStable) {
  // Re-running the same parallel sweep must reproduce itself — catches
  // any hidden shared state between SimDrivers.
  const auto grid = policy_grid();
  const SweepReport a = run_sweep(grid, SweepOptions{3});
  const SweepReport b = run_sweep(grid, SweepOptions{3});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(a.runs[i].metrics),
              metrics_fingerprint(b.runs[i].metrics));
  }
}

TEST(Sweep, SerialModeUsesNoPool) {
  const auto grid = policy_grid();
  const SweepReport r =
      run_sweep({grid.begin(), grid.begin() + 2}, SweepOptions{1});
  EXPECT_EQ(r.jobs, 1u);
  EXPECT_EQ(r.runs.size(), 2u);
}

TEST(Sweep, ZeroJobsResolvesToHardware) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitRethrowsFirstExceptionAfterDraining) {
  // Sibling tasks submitted after the throwing one must still run: the
  // pool drains the whole queue before wait() rethrows.
  std::atomic<int> completed{0};
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 20; ++i) {
    pool.submit([&completed] { ++completed; });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 20);

  // The error is consumed: the pool stays usable and a clean wait()
  // does not rethrow stale exceptions.
  pool.submit([&completed] { ++completed; });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(completed.load(), 21);
}

TEST(ThreadPool, DestructorDrainsAndJoins) {
  // Submit work and destroy the pool without wait(): the destructor
  // must finish the queue and join every worker (no detached threads,
  // no lost tasks) — even when a task throws.
  std::atomic<int> completed{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&completed] { ++completed; });
    }
    pool.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 50; ++i) {
      pool.submit([&completed] { ++completed; });
    }
  }
  EXPECT_EQ(completed.load(), 100);
}

TEST(ThreadPool, SweepExceptionPropagatesWithSiblingsCompleted) {
  // run_sweep propagates a run's exception but only after the sibling
  // runs finished (ThreadPool::wait semantics). An invalid config makes
  // one run throw.
  auto grid = policy_grid();
  grid[1].config.topology.racks = 0;  // SimDriver::validate rejects
  EXPECT_THROW((void)run_sweep(grid, SweepOptions{2}), std::exception);
}

}  // namespace
}  // namespace dagon
