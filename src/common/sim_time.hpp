// Simulated-time representation.
//
// Integer microseconds: additions are exact, event ordering is total, and
// two runs with the same seed produce bit-identical traces (a property
// the test suite asserts). SimTime is a strong Quantity type — time only
// mixes with time (and with Cpus to form CpuWork, see units.hpp); the
// raw microsecond count is reachable only through `.count()` and the
// named converters below, so every unit boundary in the tree is
// grep-able.
#pragma once

#include <cstdint>
#include <string>

#include "common/quantity.hpp"

namespace dagon {

/// Simulated time or duration, in microseconds since simulation start.
using SimTime = Quantity<std::int64_t, TimeTag>;

inline constexpr SimTime kUsec{1};
inline constexpr SimTime kMsec = 1000 * kUsec;
inline constexpr SimTime kSec = 1000 * kMsec;
inline constexpr SimTime kMinute = 60 * kSec;

/// The largest representable time; used as "never".
inline constexpr SimTime kTimeInfinity{INT64_MAX};

// ---------------------------------------------------------------------------
// Sanctioned floating-point converters. These are the only places where a
// double becomes a SimTime — dagonlint's narrowing-cast rule bans
// float→int static_casts outside common/, so rounding decisions stay
// centralized and auditable. Each throws InvariantError on NaN or on a
// result outside SimTime's range (qdetail::checked_trunc).

/// Converts fractional seconds to SimTime, rounding half away from zero
/// (symmetric for negative durations; the old `+ 0.5` form rounded
/// negatives toward +∞).
[[nodiscard]] constexpr SimTime from_seconds(double s) {
  const double us = s * static_cast<double>(kSec.count());
  return SimTime{qdetail::checked_trunc<SimTime::rep>(
      us < 0.0 ? us - 0.5 : us + 0.5, TimeTag::name())};
}

/// Converts a microsecond count held in a double to SimTime, truncating
/// toward zero — the exact semantics of the `static_cast<SimTime>(expr)`
/// sites this converter replaced (bit-identical fingerprints depend on
/// it; do not "fix" the rounding).
[[nodiscard]] constexpr SimTime time_from_usec(double us) {
  return SimTime{qdetail::checked_trunc<SimTime::rep>(us, TimeTag::name())};
}

/// Scales a duration by a dimensionless factor (degrade slowdowns, speed
/// tiers, speculation thresholds), truncating toward zero like the
/// `static_cast<SimTime>(double(t) * f)` sites it replaced.
[[nodiscard]] constexpr SimTime scale_time(SimTime t, double factor) {
  return time_from_usec(static_cast<double>(t.count()) * factor);
}

/// Converts SimTime to fractional seconds (for reporting only).
[[nodiscard]] constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t.count()) / static_cast<double>(kSec.count());
}

/// Renders a duration as a short human-readable string, e.g. "12.5s".
[[nodiscard]] inline std::string format_duration(SimTime t) {
  const double s = to_seconds(t);
  char buf[32];
  if (s >= 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1fmin", s / 60.0);
  } else if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fms", s * 1e3);
  }
  return buf;
}

}  // namespace dagon
