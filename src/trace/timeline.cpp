#include "trace/timeline.hpp"

#include <algorithm>

#include "common/csv.hpp"
#include "common/table.hpp"

namespace dagon {

std::vector<StageSpan> stage_spans(const RunMetrics& metrics) {
  std::vector<StageSpan> spans;
  spans.reserve(metrics.stages.size());
  for (const StageRecord& s : metrics.stages) {
    StageSpan span;
    span.stage = s.id;
    span.name = s.name;
    span.ready = std::max(SimTime{0}, s.ready_time);
    span.first_launch = std::max(SimTime{0}, s.first_launch);
    span.finish = std::max(SimTime{0}, s.finish_time);
    spans.push_back(std::move(span));
  }
  std::sort(spans.begin(), spans.end(),
            [](const StageSpan& a, const StageSpan& b) {
              if (a.first_launch != b.first_launch) {
                return a.first_launch < b.first_launch;
              }
              return a.stage < b.stage;
            });
  return spans;
}

namespace {

BinnedSeries bin_function(const StepFunction& f, SimTime jct,
                          std::size_t bins) {
  BinnedSeries series;
  if (bins == 0 || jct <= SimTime{0}) return series;
  series.bin_width = jct / static_cast<std::int64_t>(bins);
  if (series.bin_width <= SimTime{0}) series.bin_width = SimTime{1};
  series.values.reserve(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const SimTime lo = static_cast<std::int64_t>(i) * series.bin_width;
    const SimTime hi = std::min<SimTime>(jct, lo + series.bin_width);
    series.values.push_back(f.average(lo, std::max(hi, lo + SimTime{1})));
  }
  return series;
}

}  // namespace

BinnedSeries utilization_series(const RunMetrics& metrics,
                                std::size_t bins) {
  return bin_function(metrics.busy_cores, metrics.jct, bins);
}

BinnedSeries parallelism_series(const RunMetrics& metrics,
                                std::size_t bins) {
  return bin_function(metrics.running_tasks, metrics.jct, bins);
}

std::vector<StageLocality> stage_locality_breakdown(
    const RunMetrics& metrics, const JobDag& dag) {
  std::vector<StageLocality> out(dag.num_stages());
  for (const Stage& s : dag.stages()) {
    auto& entry = out[static_cast<std::size_t>(s.id.value())];
    entry.stage = s.id;
    entry.name = s.name;
  }
  for (const TaskRecord& t : metrics.tasks) {
    ++out[static_cast<std::size_t>(t.stage.value())]
        .counts[static_cast<std::size_t>(t.locality)];
  }
  return out;
}

void write_timeline_csv(const RunMetrics& metrics, const JobDag& dag,
                        const std::string& path) {
  CsvWriter csv(path, {"stage", "name", "ready_sec", "launch_sec",
                       "finish_sec", "queue_delay_sec", "process", "node",
                       "nopref", "rack", "any"});
  const auto locality = stage_locality_breakdown(metrics, dag);
  for (const StageSpan& span : stage_spans(metrics)) {
    const StageLocality& loc =
        locality[static_cast<std::size_t>(span.stage.value())];
    csv.add_row({std::to_string(span.stage.value()), span.name,
                 TextTable::num(to_seconds(span.ready), 3),
                 TextTable::num(to_seconds(span.first_launch), 3),
                 TextTable::num(to_seconds(span.finish), 3),
                 TextTable::num(to_seconds(span.queue_delay()), 3),
                 std::to_string(loc.counts[0]), std::to_string(loc.counts[1]),
                 std::to_string(loc.counts[2]), std::to_string(loc.counts[3]),
                 std::to_string(loc.counts[4])});
  }
}

}  // namespace dagon
