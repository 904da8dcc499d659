// Byte-quantity, vCPU and vCPU-work helpers — the non-time dimensions of
// the dagonunits strong-type layer (see quantity.hpp). The cross-unit
// operator whitelist at the bottom is the entire algebra the simulator
// is allowed: cpus × time → cpu-work (the paper's Eq. (2)) and its two
// inverses. Anything else (bytes × time, work + bytes, ...) is a
// compile error.
#pragma once

#include <cstdint>

#include "common/quantity.hpp"
#include "common/sim_time.hpp"

namespace dagon {

/// Data size in bytes.
using Bytes = Quantity<std::int64_t, BytesTag>;

inline constexpr Bytes kKiB{1024};
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Bandwidth in bytes per simulated second. Deliberately a plain double:
/// bandwidths only appear inside the sanctioned converters (cost-model
/// transfer math), never in fingerprinted integer state.
using BytesPerSec = double;

/// Number of vCPUs (Spark "cores"); tasks hold an integral demand.
using Cpus = Quantity<std::int32_t, CpuTag>;

/// Stage workload in vCPU-microseconds (the paper's "vCPU-minutes",
/// Eq. (2)); 64-bit because durations are microseconds.
using CpuWork = Quantity<std::int64_t, CpuWorkTag>;

// ---------------------------------------------------------------------------
// Cross-dimension operator whitelist.

/// Eq. (2): vCPU-demand × duration = vCPU-work (widened to 64-bit before
/// the multiply, exactly like the old `static_cast<CpuWork>(cpus) * t`).
[[nodiscard]] constexpr CpuWork operator*(Cpus c, SimTime t) {
  return CpuWork{qdetail::checked_mul(static_cast<std::int64_t>(c.count()),
                                      t.count(), CpuWorkTag::name())};
}
[[nodiscard]] constexpr CpuWork operator*(SimTime t, Cpus c) { return c * t; }

/// Work spread over a fixed parallelism is a duration.
[[nodiscard]] constexpr SimTime operator/(CpuWork w, Cpus c) {
  return SimTime{w.count() / static_cast<std::int64_t>(c.count())};
}

/// Work over a duration is a parallelism (average busy vCPUs).
[[nodiscard]] constexpr std::int64_t operator/(CpuWork w, SimTime t) {
  return w.count() / t.count();
}

/// Sanctioned double -> Cpus conversion (truncation toward zero, the
/// exact semantics of the static_cast<Cpus> sites it replaced). Callers
/// wanting round-to-nearest add 0.5 before the call. Throws
/// InvariantError on NaN or out of range (qdetail::checked_trunc).
[[nodiscard]] constexpr Cpus cpus_from_double(double c) {
  return Cpus{qdetail::checked_trunc<Cpus::rep>(c, CpuTag::name())};
}

/// Truncating double -> Bytes converter (sanctioned narrowing; see the
/// narrowing-cast dagonlint rule), range-checked like cpus_from_double.
[[nodiscard]] constexpr Bytes bytes_from_double(double b) {
  return Bytes{qdetail::checked_trunc<Bytes::rep>(b, BytesTag::name())};
}

}  // namespace dagon
