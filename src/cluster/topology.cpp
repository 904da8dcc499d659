#include "cluster/topology.hpp"

namespace dagon {

Topology::Topology(const TopologySpec& spec) {
  if (spec.racks <= 0 || spec.nodes_per_rack <= 0 ||
      spec.executors_per_node <= 0 || spec.cores_per_executor <= Cpus{0}) {
    throw ConfigError("TopologySpec fields must all be positive");
  }
  num_racks_ = static_cast<std::size_t>(spec.racks);
  for (std::int32_t r = 0; r < spec.racks; ++r) {
    for (std::int32_t n = 0; n < spec.nodes_per_rack; ++n) {
      Node node;
      node.id = NodeId(static_cast<std::int32_t>(nodes_.size()));
      node.rack = RackId(r);
      for (std::int32_t e = 0; e < spec.executors_per_node; ++e) {
        Executor exec;
        exec.id = ExecutorId(static_cast<std::int32_t>(executors_.size()));
        exec.node = node.id;
        exec.cores = spec.cores_per_executor;
        exec.cache_bytes = spec.cache_bytes_per_executor;
        node.executors.push_back(exec.id);
        executors_.push_back(exec);
        total_cores_ += exec.cores;
      }
      nodes_.push_back(std::move(node));
    }
  }
  // Bitmaps over executor ids (the delay policies' candidate masks) set
  // a node's or a rack's executors a word at a time.
  rack_executors_.assign(num_racks_, ExecutorRange{});
  std::int32_t next = 0;
  for (const Node& node : nodes_) {
    ExecutorRange& rack =
        rack_executors_[static_cast<std::size_t>(node.rack.value())];
    if (rack.begin == rack.end) rack = {next, next};
    DAGON_CHECK_MSG(rack.end == next, "rack " << node.rack
                                              << "'s executors are not "
                                                 "contiguous");
    for (const ExecutorId e : node.executors) {
      DAGON_CHECK_MSG(e.value() == next++, "node " << node.id
                                                   << "'s executors are not "
                                                      "contiguous");
    }
    rack.end = next;
  }
}

Locality Topology::node_locality(ExecutorId e, NodeId data_node) const {
  const NodeId my_node = node_of(e);
  if (my_node == data_node) return Locality::Node;
  if (rack_of(my_node) == rack_of(data_node)) return Locality::Rack;
  return Locality::Any;
}

}  // namespace dagon
