// RDD descriptor.
#pragma once

#include <string>

#include "common/strong_id.hpp"
#include "common/units.hpp"

namespace dagon {

struct Rdd {
  RddId id;
  std::string name;
  std::int32_t num_partitions = 0;
  /// Size of each partition block.
  Bytes bytes_per_partition{};
  /// Input RDDs are materialized on HDFS (node disks) before the job
  /// starts; non-input RDDs come into existence when their producer
  /// stage's tasks finish.
  bool is_input = false;
  /// Whether the application asked to persist this RDD (MEMORY_AND_DISK):
  /// its blocks are inserted into the cache as they are read/produced.
  bool cacheable = true;
  /// Number of partitions already resident in executor memory at t=0
  /// (the black blocks of the paper's Fig. 1). Only meaningful for
  /// input RDDs.
  std::int32_t initially_cached_partitions = 0;
};

}  // namespace dagon
