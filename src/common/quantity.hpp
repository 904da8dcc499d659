// dagonunits — strong-typed physical quantities.
//
// Every guarantee the simulator makes (bit-identical fingerprints, exact
// event ordering, Eq. (2) vCPU-work accounting) rests on integer
// arithmetic over times, byte counts and work totals. Bare int64 aliases
// let the compiler accept time×bytes mixing, silent double→int
// narrowing, and unnoticed overflow. Quantity<Rep, Tag> makes each unit
// a distinct type that admits only dimensionally valid operators:
//
//   time  + time          → time        bytes + bytes → bytes
//   time  - time          → time        q × integer   → q
//   q / integer           → q           q / q         → Rep (ratio)
//   q % q                 → q           cpus × time   → cpu-work
//   cpu-work / cpus       → time        cpu-work / time → cpus (rate)
//
// Heterogeneous mixes (time + bytes, bytes × time, double × q) do not
// compile. The one escape hatch is `.count()`, which yields the raw
// representation for I/O, hashing and sanctioned conversions — grep for
// it to audit every exit from the type system.
//
// Overflow policy: debug builds trap on +, -, × overflow via
// __builtin_*_overflow and throw dagon::InvariantError naming the unit
// and operator; release builds compile to the exact raw-Rep arithmetic
// used before this layer existed, so fingerprints stay bit-identical.
// The double -> quantity converters check their range in every build
// (checked_trunc below): an out-of-range cast is undefined behaviour,
// and in practice it yields INT64_MIN, a negative time.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"

namespace dagon {

namespace qdetail {

[[noreturn]] inline void overflow_trap(const char* unit, const char* op) {
  throw InvariantError(std::string("quantity overflow: ") + unit + " " + op);
}

#ifndef NDEBUG
inline constexpr bool kCheckedArithmetic = true;
#else
inline constexpr bool kCheckedArithmetic = false;
#endif

template <typename Rep>
constexpr Rep checked_add(Rep a, Rep b, const char* unit) {
  if constexpr (kCheckedArithmetic) {
    Rep out{};
    if (__builtin_add_overflow(a, b, &out)) overflow_trap(unit, "+");
    return out;
  } else {
    return static_cast<Rep>(a + b);
  }
}

template <typename Rep>
constexpr Rep checked_sub(Rep a, Rep b, const char* unit) {
  if constexpr (kCheckedArithmetic) {
    Rep out{};
    if (__builtin_sub_overflow(a, b, &out)) overflow_trap(unit, "-");
    return out;
  } else {
    return static_cast<Rep>(a - b);
  }
}

template <typename Rep>
constexpr Rep checked_mul(Rep a, Rep b, const char* unit) {
  if constexpr (kCheckedArithmetic) {
    Rep out{};
    if (__builtin_mul_overflow(a, b, &out)) overflow_trap(unit, "*");
    return out;
  } else {
    return static_cast<Rep>(a * b);
  }
}

[[noreturn]] inline void conversion_trap(const char* unit, double v) {
  std::ostringstream os;
  os << "quantity conversion out of range: " << unit << " from " << v;
  throw InvariantError(os.str());
}

/// Truncates `v` toward zero into `Rep`, exactly as static_cast does,
/// but throws InvariantError where that cast is undefined: on NaN, and
/// on a value whose integer part does not fit in `Rep`.
template <typename Rep>
constexpr Rep checked_trunc(double v, const char* unit) {
  // The cast is defined iff min - 1 < v < max + 1. Both min and
  // max + 1 == -min are powers of two, exact in a double. min - 1 is
  // exact for a 32-bit Rep; for a 64-bit Rep it rounds to min itself, so
  // `v == kMin` admits the one valid value that `v > kMin - 1.0` misses.
  constexpr double kMin = static_cast<double>(std::numeric_limits<Rep>::min());
  if (!(v < -kMin && (v > kMin - 1.0 || v == kMin))) conversion_trap(unit, v);
  return static_cast<Rep>(v);
}

}  // namespace qdetail

/// A strongly typed quantity: `Rep` is the integer representation, `Tag`
/// the dimension. Two quantities with different tags never mix, and a
/// quantity never converts implicitly to or from its representation.
template <typename Rep, typename Tag>
class Quantity {
  static_assert(std::is_integral_v<Rep> && std::is_signed_v<Rep>,
                "quantities are signed integers; bandwidths stay double");

 public:
  using rep = Rep;
  using tag = Tag;

  constexpr Quantity() = default;
  explicit constexpr Quantity(Rep v) : v_(v) {}

  /// The raw representation — the audited escape hatch for I/O, hashing
  /// and the sanctioned converters in common/.
  [[nodiscard]] constexpr Rep count() const { return v_; }

  // -- same-dimension arithmetic (debug-checked) --------------------------

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{qdetail::checked_add(a.v_, b.v_, Tag::name())};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{qdetail::checked_sub(a.v_, b.v_, Tag::name())};
  }
  constexpr Quantity operator-() const {
    return Quantity{qdetail::checked_sub(Rep{0}, v_, Tag::name())};
  }
  constexpr Quantity& operator+=(Quantity o) {
    v_ = qdetail::checked_add(v_, o.v_, Tag::name());
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ = qdetail::checked_sub(v_, o.v_, Tag::name());
    return *this;
  }
  constexpr Quantity& operator++() {
    v_ = qdetail::checked_add(v_, Rep{1}, Tag::name());
    return *this;
  }
  constexpr Quantity& operator--() {
    v_ = qdetail::checked_sub(v_, Rep{1}, Tag::name());
    return *this;
  }
  constexpr Quantity operator++(int) {
    const Quantity old = *this;
    ++*this;
    return old;
  }
  constexpr Quantity operator--(int) {
    const Quantity old = *this;
    --*this;
    return old;
  }

  // -- dimensionless scaling ---------------------------------------------
  // Only integral scalars: scaling by a double is a rounding decision and
  // must go through a named converter (scale_time, from_seconds, ...).

  template <typename I, typename = std::enable_if_t<std::is_integral_v<I>>>
  friend constexpr Quantity operator*(Quantity q, I s) {
    return Quantity{
        qdetail::checked_mul(q.v_, static_cast<Rep>(s), Tag::name())};
  }
  template <typename I, typename = std::enable_if_t<std::is_integral_v<I>>>
  friend constexpr Quantity operator*(I s, Quantity q) {
    return q * s;
  }
  template <typename I, typename = std::enable_if_t<std::is_integral_v<I>>>
  friend constexpr Quantity operator/(Quantity q, I s) {
    return Quantity{static_cast<Rep>(q.v_ / static_cast<Rep>(s))};
  }
  template <typename I, typename = std::enable_if_t<std::is_integral_v<I>>>
  constexpr Quantity& operator*=(I s) {
    v_ = qdetail::checked_mul(v_, static_cast<Rep>(s), Tag::name());
    return *this;
  }
  template <typename I, typename = std::enable_if_t<std::is_integral_v<I>>>
  constexpr Quantity& operator/=(I s) {
    v_ = static_cast<Rep>(v_ / static_cast<Rep>(s));
    return *this;
  }

  /// Ratio of two like quantities is dimensionless.
  friend constexpr Rep operator/(Quantity a, Quantity b) {
    return static_cast<Rep>(a.v_ / b.v_);
  }
  /// Remainder keeps the dimension (time % bucket-width is a time).
  friend constexpr Quantity operator%(Quantity a, Quantity b) {
    return Quantity{static_cast<Rep>(a.v_ % b.v_)};
  }

  // -- comparisons --------------------------------------------------------

  friend constexpr bool operator==(Quantity a, Quantity b) {
    return a.v_ == b.v_;
  }
  friend constexpr bool operator!=(Quantity a, Quantity b) {
    return a.v_ != b.v_;
  }
  friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.v_ < b.v_;
  }
  friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.v_ <= b.v_;
  }
  friend constexpr bool operator>(Quantity a, Quantity b) {
    return a.v_ > b.v_;
  }
  friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.v_ >= b.v_;
  }

  /// Streams the raw count (units are the reader's contract, as before).
  friend std::ostream& operator<<(std::ostream& os, Quantity q) {
    return os << q.v_;
  }

 private:
  Rep v_{};
};

// Dimension tags. name() feeds the overflow and conversion traps' messages.
struct TimeTag {
  static constexpr const char* name() { return "SimTime"; }
};
struct BytesTag {
  static constexpr const char* name() { return "Bytes"; }
};
struct CpuTag {
  static constexpr const char* name() { return "Cpus"; }
};
struct CpuWorkTag {
  static constexpr const char* name() { return "CpuWork"; }
};

}  // namespace dagon

namespace std {

/// Quantities hash as their representation (stable, allocator-free).
template <typename Rep, typename Tag>
struct hash<dagon::Quantity<Rep, Tag>> {
  size_t operator()(dagon::Quantity<Rep, Tag> q) const noexcept {
    return hash<Rep>{}(q.count());
  }
};

}  // namespace std
