// Statistics helpers used by the metrics subsystem and the benches:
// streaming moments, exact percentiles over collected samples, and
// time-weighted step functions (for CPU-utilization / parallelism
// timelines).
#pragma once

#include <cstddef>
#include <vector>

#include "common/sim_time.hpp"

namespace dagon {

/// True median of a sample vector: the middle element for odd sizes,
/// the midpoint of the two middle elements for even sizes. O(n) via
/// nth_element (the vector is taken by value and partially reordered).
/// Shared by speculation thresholds and reporting code so nobody
/// re-implements the even-count case as "upper middle element".
[[nodiscard]] SimTime median_of(std::vector<SimTime> v);

/// Streaming mean/variance/min/max (Welford).
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one.
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Collects raw samples; answers exact quantile queries.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

  /// Exact quantile via linear interpolation; q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// A right-continuous step function of simulated time, e.g. "busy vCPUs".
/// Supports incremental +=/-= updates and exact time-weighted averages —
/// this is how the benches compute the paper's "CPU utilization" metric.
class StepFunction {
 public:
  /// Starts at `initial` at time 0.
  explicit StepFunction(double initial = 0.0) : value_(initial) {
    points_.push_back({SimTime{0}, initial});
  }

  /// Sets the value from time `t` onward. `t` must be non-decreasing
  /// across calls.
  void set(SimTime t, double value);

  /// Adds `delta` from time `t` onward.
  void add(SimTime t, double delta) { set(t, value_ + delta); }

  [[nodiscard]] double value() const { return value_; }

  /// Time-weighted mean over [from, to).
  [[nodiscard]] double average(SimTime from, SimTime to) const;

  /// Integral of the function over [from, to) (value·microseconds).
  [[nodiscard]] double integral(SimTime from, SimTime to) const;

  /// Value at time t.
  [[nodiscard]] double at(SimTime t) const;

  /// Maximum value attained in [from, to).
  [[nodiscard]] double max_over(SimTime from, SimTime to) const;

  struct Point {
    SimTime time;
    double value;
  };
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
  double value_;
};

/// Renders a crude ASCII sparkline of a step function sampled at `bins`
/// equal intervals over [from, to); used by example programs to show
/// utilization timelines in a terminal.
[[nodiscard]] std::string sparkline(const StepFunction& f, SimTime from,
                                    SimTime to, std::size_t bins,
                                    double scale_max);

}  // namespace dagon
