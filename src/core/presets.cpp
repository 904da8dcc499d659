#include "core/presets.hpp"

namespace dagon {

SimConfig paper_testbed() {
  SimConfig config;
  config.topology.racks = 2;
  config.topology.nodes_per_rack = 9;   // 18 worker nodes
  config.topology.executors_per_node = 4;
  config.topology.cores_per_executor = Cpus{4};
  config.topology.cache_bytes_per_executor = kGiB;
  config.hdfs.replication = 3;
  // ~40 ns/B deserialization: reading a remote 64 MiB cached partition
  // costs ~2.7 s vs ~8 ms in-process — the 15x gap of Fig. 3.
  config.cost.serde_sec_per_byte = 40e-9;
  config.tick_interval = 100 * kMsec;
  // ~10% task-duration jitter, as on real hardware. Without it task
  // waves synchronize perfectly and delay-scheduling timers never see
  // the straggling launches that keep the locality ladder pinned.
  config.duration_noise = 0.1;
  config.seed = 42;
  return config;
}

SimConfig case_study_cluster() {
  SimConfig config = paper_testbed();
  config.topology.racks = 1;
  config.topology.nodes_per_rack = 7;
  config.topology.executors_per_node = 4;
  config.topology.cores_per_executor = Cpus{4};
  config.topology.cache_bytes_per_executor = 8 * kGiB;
  // The case study sets the HDFS replica count to one; block placement
  // is mildly skewed, which is what starves some executors of
  // node-local work (Fig. 4).
  config.hdfs.replication = 1;
  config.hdfs.skew = 0.25;
  config.hdfs.hot_nodes = 3;
  return config;
}

SimConfig faulty_testbed() {
  SimConfig config = paper_testbed();
  // One random-target crash two minutes in (most workloads are mid-DAG
  // by then, so cached intermediates are actually at risk).
  config.faults.crashes.push_back(ExecutorCrashSpec{120 * kSec, -1});
  config.faults.task_fail_prob = 0.01;
  config.faults.block_loss_per_gb_hour = 0.5;
  config.faults.block_loss_interval = 5 * kSec;
  return config;
}

SimConfig graybox_testbed() {
  SimConfig config = paper_testbed();
  config.faults.heartbeats = true;
  // A random rack loses driver connectivity for 15 s one minute in:
  // long enough to push every silent executor past suspect_phi, short
  // enough that they all resume before dead_phi (false positives only).
  config.faults.partitions.push_back(
      PartitionSpec{60 * kSec, 75 * kSec, -1});
  // One random executor runs 3x slow for most of the run — the
  // straggler that speculation and the detector should both flag.
  config.faults.degrades.push_back(
      DegradeSpec{30 * kSec, 300 * kSec, -1, 3.0});
  config.faults.task_fail_prob = 0.01;
  config.faults.blacklist_threshold = 3;
  config.faults.blacklist_probation = 60 * kSec;
  config.speculation.enabled = true;
  return config;
}

SimConfig tail_testbed() {
  SimConfig config = paper_testbed();
  config.tail.tiers.push_back(SimConfig::ExecTier{"slow", 0.25, 2.0});
  config.tail.tiers.push_back(SimConfig::ExecTier{"fast", 0.25, 0.5});
  config.tail.escalate = true;
  config.faults.heavy_tail_prob = 0.05;
  config.faults.heavy_tail_mult = 6.0;
  config.speculation.enabled = true;
  config.speculation.hedge = true;
  return config;
}

SystemCombo stock_spark() {
  return {"FIFO+LRU", SchedulerKind::Fifo, CachePolicyKind::Lru,
          DelayKind::Native};
}

SystemCombo graphene_lru() {
  return {"Graphene+LRU", SchedulerKind::Graphene, CachePolicyKind::Lru,
          DelayKind::Native};
}

SystemCombo graphene_mrd() {
  return {"Graphene+MRD", SchedulerKind::Graphene, CachePolicyKind::Mrd,
          DelayKind::Native};
}

SystemCombo dagon_full() {
  return {"Dagon", SchedulerKind::Dagon, CachePolicyKind::Lrp,
          DelayKind::SensitivityAware};
}

std::vector<SystemCombo> figure8_systems() {
  return {stock_spark(), graphene_lru(), graphene_mrd(), dagon_full()};
}

std::vector<SystemCombo> figure11_systems() {
  return {{"FIFO+LRU", SchedulerKind::Fifo, CachePolicyKind::Lru,
           DelayKind::Native},
          {"FIFO+MRD", SchedulerKind::Fifo, CachePolicyKind::Mrd,
           DelayKind::Native},
          {"Dagon+MRD", SchedulerKind::Dagon, CachePolicyKind::Mrd,
           DelayKind::SensitivityAware},
          {"Dagon+LRP", SchedulerKind::Dagon, CachePolicyKind::Lrp,
           DelayKind::SensitivityAware}};
}

SimConfig apply_combo(SimConfig base, const SystemCombo& combo) {
  base.scheduler = combo.scheduler;
  base.cache = combo.cache;
  base.delay = combo.delay;
  return base;
}

}  // namespace dagon
