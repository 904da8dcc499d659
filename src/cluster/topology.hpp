// Static cluster description: racks > nodes > executors.
//
// Runtime state (free cores, cache contents) lives in the simulation; a
// Topology is immutable once built, which lets many simulated runs share
// one instance.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strong_id.hpp"
#include "common/units.hpp"
#include "cluster/locality.hpp"

namespace dagon {

struct Node {
  NodeId id;
  RackId rack;
  std::vector<ExecutorId> executors;
};

struct Executor {
  ExecutorId id;
  NodeId node;
  Cpus cores{};
  /// Memory available for the block cache.
  Bytes cache_bytes{};
};

/// Executor ids [begin, end).
struct ExecutorRange {
  std::int32_t begin = 0;
  std::int32_t end = 0;
};

struct TopologySpec {
  std::int32_t racks = 1;
  std::int32_t nodes_per_rack = 4;
  std::int32_t executors_per_node = 1;
  Cpus cores_per_executor{4};
  Bytes cache_bytes_per_executor = 4 * kGiB;
};

class Topology {
 public:
  explicit Topology(const TopologySpec& spec);

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Executor>& executors() const {
    return executors_;
  }

  [[nodiscard]] const Node& node(NodeId id) const {
    DAGON_CHECK(id.valid() &&
                static_cast<std::size_t>(id.value()) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id.value())];
  }
  [[nodiscard]] const Executor& executor(ExecutorId id) const {
    DAGON_CHECK(id.valid() &&
                static_cast<std::size_t>(id.value()) < executors_.size());
    return executors_[static_cast<std::size_t>(id.value())];
  }

  [[nodiscard]] NodeId node_of(ExecutorId e) const {
    return executor(e).node;
  }
  [[nodiscard]] RackId rack_of(NodeId n) const { return node(n).rack; }

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_racks() const { return num_racks_; }
  [[nodiscard]] std::size_t num_executors() const {
    return executors_.size();
  }
  [[nodiscard]] Cpus total_cores() const { return total_cores_; }

  /// The executors of node `n` and of rack `r`. Executors are numbered
  /// rack by rack and node by node, so each node's and each rack's form
  /// one contiguous id range (the constructor checks it).
  [[nodiscard]] ExecutorRange node_executors(NodeId n) const {
    const Node& nd = node(n);
    return {nd.executors.front().value(), nd.executors.back().value() + 1};
  }
  [[nodiscard]] ExecutorRange rack_executors(RackId r) const {
    DAGON_CHECK(r.valid() && static_cast<std::size_t>(r.value()) < num_racks_);
    return rack_executors_[static_cast<std::size_t>(r.value())];
  }

  /// Locality of data on node `data_node` as seen from executor `e`
  /// (Node / Rack / Any; Process requires executor identity, which the
  /// caller checks against the cache).
  [[nodiscard]] Locality node_locality(ExecutorId e, NodeId data_node) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Executor> executors_;
  std::size_t num_racks_ = 0;
  std::vector<ExecutorRange> rack_executors_;
  Cpus total_cores_{};
};

}  // namespace dagon
