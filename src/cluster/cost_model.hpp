// Data-plane cost model: how long a task spends fetching one input block
// from a given source. This replaces the paper's physical testbed (see
// DESIGN.md §1); defaults are calibrated to their hardware: 6TB HDDs
// (~150 MB/s sequential) and 10 Gbps Ethernet.
#pragma once

#include <optional>

#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace dagon {

/// Where a block copy physically lives relative to the reading executor.
enum class BlockSource {
  /// In the reading executor's own memory cache — a cache hit.
  LocalMemory,
  /// In another executor's memory on the same node.
  SameNodeMemory,
  /// On the local node's disk.
  LocalDisk,
  /// In memory of an executor on another node in the same rack.
  RackMemory,
  /// On the disk of another node in the same rack.
  RackDisk,
  /// In memory across racks.
  RemoteMemory,
  /// On disk across racks.
  RemoteDisk,
};

[[nodiscard]] constexpr const char* block_source_name(BlockSource s) {
  switch (s) {
    case BlockSource::LocalMemory: return "local-mem";
    case BlockSource::SameNodeMemory: return "node-mem";
    case BlockSource::LocalDisk: return "local-disk";
    case BlockSource::RackMemory: return "rack-mem";
    case BlockSource::RackDisk: return "rack-disk";
    case BlockSource::RemoteMemory: return "remote-mem";
    case BlockSource::RemoteDisk: return "remote-disk";
  }
  return "?";
}

/// True when the source is a memory copy (counts as a cache hit when it
/// is the reader's own executor).
[[nodiscard]] constexpr bool is_memory_source(BlockSource s) {
  return s == BlockSource::LocalMemory || s == BlockSource::SameNodeMemory ||
         s == BlockSource::RackMemory || s == BlockSource::RemoteMemory;
}

struct CostModelSpec {
  /// Intra-process memory bandwidth (deserialized read).
  BytesPerSec memory_bw = 8.0 * static_cast<double>(kGiB.count());
  /// Sequential disk bandwidth.
  BytesPerSec disk_bw = 150.0 * static_cast<double>(kMiB.count());
  /// Per-read disk latency (seek + open).
  SimTime disk_latency = 5 * kMsec;
  /// Network bandwidth within a rack / across racks (10 Gbps ≈ 1.25e9).
  BytesPerSec net_bw_rack = 1.1 * static_cast<double>(kGiB.count());
  BytesPerSec net_bw_cross = 0.6 * static_cast<double>(kGiB.count());
  /// Per-transfer network latency (connection + protocol overhead).
  SimTime net_latency = 2 * kMsec;
  /// Ser/de overhead applied to any network transfer, as extra seconds
  /// per byte (models CPU-bound serialization of cached partitions; this
  /// is what makes iterative stages ~15x slower off-process in Fig. 3).
  double serde_sec_per_byte = 0.0;
};

class CostModel {
 public:
  /// Validates the spec: bandwidths and latencies must be positive and
  /// the ser/de rate non-negative (throws ConfigError otherwise).
  explicit CostModel(const CostModelSpec& spec);

  /// Time to fetch `bytes` of one block from `source`.
  ///
  /// `serde_sec_per_byte` overrides the spec's ser/de cost (sec/byte):
  /// serialized RDD data pays it on every source except the reader's own
  /// memory store; raw HDFS input passes 0.0 (parsing is part of task
  /// compute time); omit it to use the spec default.
  ///
  /// `slowdown` (> 0) scales the whole transfer — a degraded executor's
  /// NIC, disk and ser/de CPU are all impaired, so the factor applies
  /// uniformly (gray-failure degrade faults). Values < 1 model a
  /// fast-tier executor (heterogeneity); 1.0 is the no-op baseline.
  [[nodiscard]] SimTime fetch_time(
      Bytes bytes, BlockSource source,
      std::optional<double> serde_sec_per_byte = std::nullopt,
      double slowdown = 1.0) const;

  [[nodiscard]] const CostModelSpec& spec() const { return spec_; }

 private:
  [[nodiscard]] static SimTime transfer(Bytes bytes, BytesPerSec bw);

  CostModelSpec spec_;
};

}  // namespace dagon
