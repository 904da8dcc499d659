// Umbrella header: the Dagon library's public API surface.
//
// Layering (each depends only on layers above it):
//   common    — ids, time, RNG, stats, tables
//   dag       — RDDs, stages, job DAGs, profiles, analyses
//   cluster   — topology, HDFS placement, locality, cost model
//   cache     — reference oracle, policies (LRU/LRC/MRD/LRP), managers
//   sched     — job state, delay scheduling, stage selectors, speculation
//   sim       — event queue, metrics, the discrete-event driver
//   trace     — Chrome-tracing / timeline exports of run metrics
//   workloads — Fig. 1 example + SparkBench-like generators
//   core      — AppProfiler, presets, Runner facade, trace engines
//   exp       — parallel sweep engine + thread pool (include
//               "exp/sweep.hpp" and link dagon_exp; not part of this
//               umbrella so core-only consumers need no thread deps)
#pragma once

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "common/strong_id.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

#include "dag/dag_analysis.hpp"
#include "dag/job_dag.hpp"
#include "dag/profile.hpp"

#include "cluster/cost_model.hpp"
#include "cluster/hdfs.hpp"
#include "cluster/locality.hpp"
#include "cluster/topology.hpp"

#include "cache/block_manager.hpp"
#include "cache/block_manager_master.hpp"
#include "cache/cache_policy.hpp"
#include "cache/ref_oracle.hpp"

#include "sched/delay_scheduling.hpp"
#include "sched/estimator.hpp"
#include "sched/job_state.hpp"
#include "sched/speculation.hpp"
#include "sched/stage_selector.hpp"
#include "sched/task_locality.hpp"

#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "sim/sim_config.hpp"

#include "trace/chrome_trace.hpp"
#include "trace/timeline.hpp"

#include "workloads/example_dag.hpp"
#include "workloads/graph_workloads.hpp"
#include "workloads/ml_workloads.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/serving.hpp"
#include "workloads/suite.hpp"

#include "core/app_profiler.hpp"
#include "core/assignment_trace.hpp"
#include "core/cache_trace.hpp"
#include "core/presets.hpp"
#include "core/runner.hpp"
