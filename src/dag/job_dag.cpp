#include "dag/job_dag.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "common/error.hpp"
#include "common/sorted_view.hpp"

namespace dagon {

const Stage& JobDag::stage(StageId id) const {
  DAGON_CHECK_MSG(id.valid() &&
                      static_cast<std::size_t>(id.value()) < stages_.size(),
                  "unknown stage " << id);
  return stages_[static_cast<std::size_t>(id.value())];
}

const Rdd& JobDag::rdd(RddId id) const {
  DAGON_CHECK_MSG(id.valid() &&
                      static_cast<std::size_t>(id.value()) < rdds_.size(),
                  "unknown rdd " << id);
  return rdds_[static_cast<std::size_t>(id.value())];
}

BlockId JobDag::block_at(std::int64_t ord) const {
  DAGON_CHECK_MSG(ord >= 0 && ord < num_blocks(),
                  "block ordinal " << ord << " out of range");
  const auto it =
      std::upper_bound(block_offset_.begin(), block_offset_.end(), ord) - 1;
  const auto rdd_idx = static_cast<std::int32_t>(it - block_offset_.begin());
  return BlockId{RddId(rdd_idx), static_cast<std::int32_t>(ord - *it)};
}

std::optional<StageId> JobDag::producer_of(RddId rdd) const {
  for (const Stage& s : stages_) {
    if (s.output == rdd) return s.id;
  }
  return std::nullopt;
}

std::vector<StageId> JobDag::root_stages() const {
  std::vector<StageId> out;
  for (const Stage& s : stages_) {
    if (s.parents.empty()) out.push_back(s.id);
  }
  return out;
}

std::vector<StageId> JobDag::leaf_stages() const {
  std::vector<StageId> out;
  for (const Stage& s : stages_) {
    if (s.children.empty()) out.push_back(s.id);
  }
  return out;
}

const std::vector<StageId>& JobDag::successor_set(StageId id) const {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < successor_sets_.size());
  return successor_sets_[static_cast<std::size_t>(id.value())];
}

const std::vector<StageId>& JobDag::ancestor_set(StageId id) const {
  DAGON_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < ancestor_sets_.size());
  return ancestor_sets_[static_cast<std::size_t>(id.value())];
}

std::vector<TaskInput> JobDag::task_inputs(StageId id,
                                           std::int32_t task) const {
  std::vector<TaskInput> inputs;
  for_each_task_input(id, task,
                      [&](const TaskInput& in) { inputs.push_back(in); });
  return inputs;
}

std::vector<BlockId> JobDag::stage_input_blocks(StageId id) const {
  const Stage& s = stage(id);
  std::vector<BlockId> inputs;
  for (const RddRef& ref : s.inputs) {
    const Rdd& parent = rdd(ref.rdd);
    if (ref.kind == DepKind::Narrow) {
      for (std::int32_t t = 0; t < s.num_tasks; ++t) {
        inputs.push_back(BlockId{ref.rdd, t});
      }
    } else {
      for (std::int32_t p = 0; p < parent.num_partitions; ++p) {
        inputs.push_back(BlockId{ref.rdd, p});
      }
    }
  }
  std::sort(inputs.begin(), inputs.end());
  return inputs;
}

Bytes JobDag::task_input_bytes(StageId id, std::int32_t task) const {
  Bytes total{};
  for_each_task_input(id, task,
                      [&](const TaskInput& in) { total += in.bytes; });
  return total;
}

int JobDag::depth() const {
  std::vector<int> depth(stages_.size(), 1);
  int best = stages_.empty() ? 0 : 1;
  for (const StageId sid : topo_order_) {
    const Stage& s = stage(sid);
    for (const StageId c : s.children) {
      auto& d = depth[static_cast<std::size_t>(c.value())];
      d = std::max(d, depth[static_cast<std::size_t>(sid.value())] + 1);
      best = std::max(best, d);
    }
  }
  return best;
}

CpuWork JobDag::total_workload() const {
  CpuWork total{};
  for (const Stage& s : stages_) total += s.workload();
  return total;
}

std::int64_t JobDag::total_tasks() const {
  std::int64_t total = 0;
  for (const Stage& s : stages_) total += s.num_tasks;
  return total;
}

// ---------------------------------------------------------------------------
// Builder

JobDagBuilder::JobDagBuilder(std::string name) {
  dag_.name_ = std::move(name);
}

RddId JobDagBuilder::input_rdd(std::string name, std::int32_t partitions,
                               Bytes bytes_per_partition,
                               std::int32_t initially_cached) {
  DAGON_CHECK(!built_);
  if (partitions <= 0) {
    throw ConfigError("input RDD '" + name + "' needs positive partitions");
  }
  if (initially_cached < 0 || initially_cached > partitions) {
    throw ConfigError("input RDD '" + name +
                      "': initially_cached out of range");
  }
  Rdd r;
  r.id = RddId(static_cast<std::int32_t>(dag_.rdds_.size()));
  r.name = std::move(name);
  r.num_partitions = partitions;
  r.bytes_per_partition = bytes_per_partition;
  r.is_input = true;
  r.initially_cached_partitions = initially_cached;
  dag_.rdds_.push_back(r);
  return r.id;
}

StageId JobDagBuilder::add_stage(const StageParams& params) {
  DAGON_CHECK(!built_);
  if (params.num_tasks <= 0) {
    throw ConfigError("stage '" + params.name + "' needs positive tasks");
  }
  if (params.task_cpus <= Cpus{0}) {
    throw ConfigError("stage '" + params.name + "' needs positive d_i");
  }
  if (params.task_duration <= SimTime{0}) {
    throw ConfigError("stage '" + params.name + "' needs positive duration");
  }
  if (!params.duration_skew.empty() &&
      params.duration_skew.size() !=
          static_cast<std::size_t>(params.num_tasks)) {
    throw ConfigError("stage '" + params.name +
                      "': duration_skew size != num_tasks");
  }
  for (auto it = params.inputs.begin(); it != params.inputs.end(); ++it) {
    const RddRef& ref = *it;
    if (!ref.rdd.valid() ||
        static_cast<std::size_t>(ref.rdd.value()) >= dag_.rdds_.size()) {
      throw ConfigError("stage '" + params.name + "' reads unknown RDD");
    }
    const Rdd& parent = dag_.rdds_[static_cast<std::size_t>(ref.rdd.value())];
    // One edge per parent: the reference oracle keeps one record per
    // (block, reader stage), and a second edge would consume it twice.
    if (std::any_of(params.inputs.begin(), it, [&](const RddRef& earlier) {
          return earlier.rdd == ref.rdd;
        })) {
      throw ConfigError("stage '" + params.name + "' reads '" + parent.name +
                        "' through more than one edge");
    }
    if (ref.kind == DepKind::Narrow &&
        parent.num_partitions != params.num_tasks) {
      throw ConfigError("stage '" + params.name + "': narrow dep on '" +
                        parent.name + "' requires matching partitions");
    }
  }

  // The implicit output RDD.
  Rdd out;
  out.id = RddId(static_cast<std::int32_t>(dag_.rdds_.size()));
  out.name = params.output_name.empty() ? params.name + ".out"
                                        : params.output_name;
  out.num_partitions = params.num_tasks;
  out.bytes_per_partition = params.output_bytes_per_partition;
  out.is_input = false;
  out.cacheable = params.cache_output;
  dag_.rdds_.push_back(out);

  Stage s;
  s.id = StageId(static_cast<std::int32_t>(dag_.stages_.size()));
  s.name = params.name;
  s.inputs = params.inputs;
  s.output = out.id;
  s.num_tasks = params.num_tasks;
  s.task_cpus = params.task_cpus;
  s.task_duration = params.task_duration;
  s.duration_skew = params.duration_skew;
  dag_.stages_.push_back(std::move(s));
  return dag_.stages_.back().id;
}

RddId JobDagBuilder::output_of(StageId stage) const {
  DAGON_CHECK(stage.valid() &&
              static_cast<std::size_t>(stage.value()) < dag_.stages_.size());
  return dag_.stages_[static_cast<std::size_t>(stage.value())].output;
}

void JobDagBuilder::set_output_cacheable(StageId stage, bool cacheable) {
  const RddId out = output_of(stage);
  dag_.rdds_[static_cast<std::size_t>(out.value())].cacheable = cacheable;
}

void JobDagBuilder::set_rdd_cacheable(RddId rdd, bool cacheable) {
  DAGON_CHECK(rdd.valid() &&
              static_cast<std::size_t>(rdd.value()) < dag_.rdds_.size());
  dag_.rdds_[static_cast<std::size_t>(rdd.value())].cacheable = cacheable;
}

JobDag JobDagBuilder::build() {
  DAGON_CHECK(!built_);
  built_ = true;
  if (dag_.stages_.empty()) {
    throw ConfigError("job '" + dag_.name_ + "' has no stages");
  }

  // Wire parent/child stage links through RDD producers.
  for (Stage& s : dag_.stages_) {
    for (const RddRef& ref : s.inputs) {
      if (const auto producer = dag_.producer_of(ref.rdd)) {
        if (std::find(s.parents.begin(), s.parents.end(), *producer) ==
            s.parents.end()) {
          s.parents.push_back(*producer);
          dag_.stages_[static_cast<std::size_t>(producer->value())]
              .children.push_back(s.id);
        }
      }
    }
  }

  // Kahn's algorithm: topological order + cycle detection. Stages are
  // created before their consumers so cycles cannot normally occur, but
  // we validate anyway (Gsl-style: trust nothing you didn't check).
  std::vector<int> pending(dag_.stages_.size());
  std::priority_queue<std::int32_t, std::vector<std::int32_t>,
                      std::greater<>> ready;
  for (const Stage& s : dag_.stages_) {
    pending[static_cast<std::size_t>(s.id.value())] =
        static_cast<int>(s.parents.size());
    if (s.parents.empty()) ready.push(s.id.value());
  }
  while (!ready.empty()) {
    const StageId sid(ready.top());
    ready.pop();
    dag_.topo_order_.push_back(sid);
    for (const StageId c : dag_.stage(sid).children) {
      if (--pending[static_cast<std::size_t>(c.value())] == 0) {
        ready.push(c.value());
      }
    }
  }
  if (dag_.topo_order_.size() != dag_.stages_.size()) {
    throw ConfigError("job '" + dag_.name_ + "' contains a dependency cycle");
  }

  // Transitive successor sets (the paper's SuccessorSet_i), computed in
  // reverse topological order with set union.
  dag_.successor_sets_.assign(dag_.stages_.size(), {});
  for (auto it = dag_.topo_order_.rbegin(); it != dag_.topo_order_.rend();
       ++it) {
    const Stage& s = dag_.stage(*it);
    std::unordered_set<std::int32_t> acc;
    for (const StageId c : s.children) {
      acc.insert(c.value());
      for (const StageId g :
           dag_.successor_sets_[static_cast<std::size_t>(c.value())]) {
        acc.insert(g.value());
      }
    }
    auto& out = dag_.successor_sets_[static_cast<std::size_t>(s.id.value())];
    out.reserve(acc.size());
    for (const std::int32_t v : sorted_keys(acc)) out.push_back(StageId(v));
  }
  // Their inverse; visiting stages by ascending id keeps each list sorted.
  dag_.ancestor_sets_.assign(dag_.stages_.size(), {});
  for (const Stage& s : dag_.stages_) {
    for (const StageId d :
         dag_.successor_sets_[static_cast<std::size_t>(s.id.value())]) {
      dag_.ancestor_sets_[static_cast<std::size_t>(d.value())].push_back(
          s.id);
    }
  }

  // Dense block ordinals: prefix sums of partition counts in rdd-id
  // order, so ordinal order == ascending BlockId order.
  dag_.block_offset_.reserve(dag_.rdds_.size() + 1);
  std::int64_t total_blocks = 0;
  for (const Rdd& r : dag_.rdds_) {
    dag_.block_offset_.push_back(total_blocks);
    total_blocks += r.num_partitions;
  }
  dag_.block_offset_.push_back(total_blocks);

  return std::move(dag_);
}

}  // namespace dagon
