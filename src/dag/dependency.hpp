// RDD dependency kinds, following Spark's narrow/wide split.
#pragma once

#include "common/strong_id.hpp"

namespace dagon {

/// How a stage's tasks read a parent RDD.
enum class DepKind {
  /// Task k reads partition k of the parent (map-like). Requires the
  /// parent partition count to equal the stage's task count.
  Narrow,
  /// Every task reads a shuffle slice of every parent partition
  /// (reduce/join-like): task bytes per block = block bytes / tasks.
  Shuffle,
};

/// One edge from a stage to an RDD it consumes.
struct RddRef {
  RddId rdd;
  DepKind kind = DepKind::Narrow;
};

}  // namespace dagon
