// dagonunits acceptance tests (DESIGN.md §14).
//
// Four layers of coverage:
//   1. Compile-time: the operator whitelist admits exactly the documented
//      algebra. SFINAE probes assert that forbidden mixes (time + bytes,
//      double × quantity, bytes × time, ...) do NOT compile, and that
//      whitelisted cross-ops produce the right result type.
//   2. Debug overflow traps: +, -, × on a quantity throw InvariantError
//      at the representation's edge (checked builds only).
//   3. Release equivalence: on non-overflowing inputs, quantity
//      arithmetic is bit-for-bit the raw int64 arithmetic it replaced —
//      the property the pinned fingerprints rest on.
//   4. Converter range checks: double -> quantity converters throw
//      InvariantError on NaN and out-of-range values (every build) and
//      match static_cast exactly inside the range.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace dagon {
namespace {

// -- SFINAE probes -----------------------------------------------------------
// Each probe is true iff the expression compiles; no object is evaluated.

template <typename A, typename B, typename = void>
struct CanAdd : std::false_type {};
template <typename A, typename B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanSub : std::false_type {};
template <typename A, typename B>
struct CanSub<A, B,
              std::void_t<decltype(std::declval<A>() - std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanMul : std::false_type {};
template <typename A, typename B>
struct CanMul<A, B,
              std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanDiv : std::false_type {};
template <typename A, typename B>
struct CanDiv<A, B,
              std::void_t<decltype(std::declval<A>() / std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanMod : std::false_type {};
template <typename A, typename B>
struct CanMod<A, B,
              std::void_t<decltype(std::declval<A>() % std::declval<B>())>>
    : std::true_type {};

// Same-dimension arithmetic is allowed...
static_assert(CanAdd<SimTime, SimTime>::value);
static_assert(CanSub<SimTime, SimTime>::value);
static_assert(CanAdd<Bytes, Bytes>::value);
static_assert(CanAdd<CpuWork, CpuWork>::value);
static_assert(CanMod<SimTime, SimTime>::value);

// ...heterogeneous mixes are not.
static_assert(!CanAdd<SimTime, Bytes>::value);
static_assert(!CanAdd<Bytes, SimTime>::value);
static_assert(!CanSub<SimTime, CpuWork>::value);
static_assert(!CanAdd<SimTime, std::int64_t>::value);
static_assert(!CanAdd<std::int64_t, SimTime>::value);

// Integral scaling is allowed; double scaling must not compile (rounding
// decisions go through the named converters in common/).
static_assert(CanMul<SimTime, int>::value);
static_assert(CanMul<long long, Bytes>::value);
static_assert(CanDiv<SimTime, int>::value);
static_assert(!CanMul<SimTime, double>::value);
static_assert(!CanMul<double, SimTime>::value);
static_assert(!CanDiv<Bytes, double>::value);

// Same-tag × same-tag would be a dimension squared — not in the algebra.
static_assert(!CanMul<SimTime, SimTime>::value);
static_assert(!CanMul<Bytes, Bytes>::value);

// The cross-dimension whitelist: exactly Eq. (2) and its inverses.
static_assert(CanMul<Cpus, SimTime>::value);
static_assert(CanMul<SimTime, Cpus>::value);
static_assert(CanDiv<CpuWork, Cpus>::value);
static_assert(CanDiv<CpuWork, SimTime>::value);
static_assert(!CanMul<Bytes, SimTime>::value);
static_assert(!CanMul<Cpus, Bytes>::value);
static_assert(!CanDiv<Bytes, Cpus>::value);
static_assert(!CanDiv<SimTime, CpuWork>::value);

// Whitelisted cross-ops produce the documented result types.
static_assert(std::is_same_v<decltype(std::declval<Cpus>() *
                                      std::declval<SimTime>()),
                             CpuWork>);
static_assert(std::is_same_v<decltype(std::declval<CpuWork>() /
                                      std::declval<Cpus>()),
                             SimTime>);
static_assert(std::is_same_v<decltype(std::declval<CpuWork>() /
                                      std::declval<SimTime>()),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(std::declval<SimTime>() /
                                      std::declval<SimTime>()),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(std::declval<SimTime>() %
                                      std::declval<SimTime>()),
                             SimTime>);

// No implicit conversion in either direction: the only exits from the
// type system are `.count()` and the sanctioned converters.
static_assert(!std::is_convertible_v<std::int64_t, SimTime>);
static_assert(!std::is_convertible_v<SimTime, std::int64_t>);
static_assert(!std::is_convertible_v<SimTime, Bytes>);
static_assert(!std::is_convertible_v<SimTime, bool>);
static_assert(!std::is_convertible_v<double, SimTime>);

// The constants carry their documented magnitudes.
static_assert(kMsec.count() == 1000);
static_assert(kSec.count() == 1000000);
static_assert(kMinute.count() == 60000000);
static_assert(kKiB.count() == 1024);
static_assert(kMiB.count() == 1048576);
static_assert(kGiB.count() == 1073741824);

// -- release equivalence -----------------------------------------------------

TEST(Quantity, ArithmeticMatchesRawInt64OnSampledGrid) {
  // Non-overflowing samples spanning sign, zero, and large magnitudes.
  const std::vector<std::int64_t> samples = {
      0,  1,  -1, 7,  -7, 999,     1000,    1000000,         -1000000,
      42, 60, -3, 17, 5,  1 << 20, -(1 << 20), (1LL << 40), -(1LL << 40)};
  for (std::int64_t a : samples) {
    for (std::int64_t b : samples) {
      const SimTime qa{a};
      const SimTime qb{b};
      EXPECT_EQ((qa + qb).count(), a + b) << a << " + " << b;
      EXPECT_EQ((qa - qb).count(), a - b) << a << " - " << b;
      if (b != 0) {
        EXPECT_EQ(qa / qb, a / b) << a << " / " << b;
        EXPECT_EQ((qa % qb).count(), a % b) << a << " % " << b;
        EXPECT_EQ((qa / static_cast<int>(b % 1000 == 0 ? 8 : b % 1000))
                      .count(),
                  a / (b % 1000 == 0 ? 8 : b % 1000))
            << a << " / scalar(" << b << ")";
      }
    }
    // Scalar multiply, both operand orders (small scalars: no overflow).
    for (int s : {-3, -1, 0, 1, 2, 7, 1000}) {
      if (a > (1LL << 40) || a < -(1LL << 40)) continue;
      EXPECT_EQ((SimTime{a} * s).count(), a * s);
      EXPECT_EQ((s * SimTime{a}).count(), a * s);
    }
  }
}

TEST(Quantity, CrossOpsMatchTheRawFormsTheyReplaced) {
  const Cpus cores{12};
  const SimTime span = 90 * kSec;
  const CpuWork work = cores * span;
  EXPECT_EQ(work.count(),
            static_cast<std::int64_t>(cores.count()) * span.count());
  EXPECT_EQ(work / cores, span);
  EXPECT_EQ(work / span, static_cast<std::int64_t>(cores.count()));
  // Operand order is immaterial.
  EXPECT_EQ(span * cores, work);
}

TEST(Quantity, CompoundOpsAndIncrementsMatchRaw) {
  SimTime t = 5 * kUsec;
  t += 10 * kUsec;
  EXPECT_EQ(t, 15 * kUsec);
  t -= 5 * kUsec;
  EXPECT_EQ(t, 10 * kUsec);
  t *= 3;
  EXPECT_EQ(t, 30 * kUsec);
  t /= 4;
  EXPECT_EQ(t, 7 * kUsec);
  EXPECT_EQ(++t, 8 * kUsec);
  EXPECT_EQ(t++, 8 * kUsec);
  EXPECT_EQ(t--, 9 * kUsec);
  EXPECT_EQ(--t, 7 * kUsec);
  EXPECT_EQ(-t, SimTime{-7});
}

TEST(Quantity, HashEqualsRepresentationHash) {
  EXPECT_EQ(std::hash<SimTime>{}(kSec),
            std::hash<std::int64_t>{}(kSec.count()));
  EXPECT_EQ(std::hash<Bytes>{}(kGiB),
            std::hash<std::int64_t>{}(kGiB.count()));
}

// -- debug overflow traps ----------------------------------------------------

#ifndef NDEBUG
TEST(Quantity, DebugBuildTrapsOnOverflow) {
  const SimTime top = kTimeInfinity;
  const SimTime bottom{INT64_MIN};
  EXPECT_THROW((void)(top + kUsec), InvariantError);
  EXPECT_THROW((void)(bottom - kUsec), InvariantError);
  EXPECT_THROW((void)(top * 2), InvariantError);
  EXPECT_THROW((void)(-bottom), InvariantError);
  EXPECT_THROW((void)(Cpus{1 << 30} * (kTimeInfinity / 2)), InvariantError);
  // Non-overflowing edge cases pass through exactly.
  EXPECT_EQ((top - kUsec + kUsec), top);
}
#endif

// -- from_seconds boundary semantics (DESIGN.md §14) -------------------------

TEST(Quantity, FromSecondsRoundsHalfAwayFromZero) {
  EXPECT_EQ(from_seconds(0.0), SimTime{0});
  EXPECT_EQ(from_seconds(2.0), 2 * kSec);
  EXPECT_EQ(from_seconds(1.5e-6), SimTime{2});
  EXPECT_EQ(from_seconds(1.4e-6), SimTime{1});
  // The fix this PR audits: negative half-microseconds round away from
  // zero, not toward +inf as the old `+ 0.5` form did.
  EXPECT_EQ(from_seconds(-6e-7), SimTime{-1});
  EXPECT_EQ(from_seconds(-4e-7), SimTime{0});
  EXPECT_EQ(from_seconds(-1.5e-6), SimTime{-2});
  EXPECT_EQ(from_seconds(-2.0), SimTime{0} - 2 * kSec);
}

TEST(Quantity, FromSecondsIsSymmetricInSign) {
  for (double s : {1e-7, 4e-7, 5e-7, 6e-7, 1e-6, 1.5e-6, 0.25, 1.0, 3.75,
                   42.0, 9000.5}) {
    EXPECT_EQ(from_seconds(-s), -from_seconds(s)) << "s=" << s;
  }
}

TEST(Quantity, TruncatingConvertersKeepLegacySemantics) {
  // time_from_usec/scale_time truncate toward zero — fingerprints depend
  // on these exact semantics (see sim_time.hpp).
  EXPECT_EQ(time_from_usec(1.9), SimTime{1});
  EXPECT_EQ(time_from_usec(-1.9), SimTime{-1});
  EXPECT_EQ(scale_time(10 * kUsec, 0.55), SimTime{5});
  EXPECT_EQ(scale_time(SimTime{-10}, 0.55), SimTime{-5});
  EXPECT_EQ(bytes_from_double(1.99), Bytes{1});
  EXPECT_EQ(cpus_from_double(2.99), Cpus{2});
}

// -- converter range checks (DESIGN.md §14) ----------------------------------
// A double -> integer cast whose result does not fit is undefined; on
// x86 it yields INT64_MIN, a negative time. The converters throw instead.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kTwo63 = 9223372036854775808.0;  // 2^63
constexpr double kTwo31 = 2147483648.0;           // 2^31

TEST(Quantity, ConvertersAcceptTheFullIntegerRange) {
  // The largest double below 2^63 and -2^63 itself both fit.
  const double below = std::nextafter(kTwo63, 0.0);
  EXPECT_EQ(time_from_usec(below).count(), static_cast<std::int64_t>(below));
  EXPECT_EQ(time_from_usec(-kTwo63), SimTime{INT64_MIN});
  EXPECT_EQ(bytes_from_double(below).count(),
            static_cast<std::int64_t>(below));
  EXPECT_EQ(bytes_from_double(-kTwo63), Bytes{INT64_MIN});
  EXPECT_EQ(from_seconds(9.2e12), SimTime{9'200'000'000'000'000'000});
  EXPECT_EQ(scale_time(kSec, 1e12), SimTime{1'000'000'000'000'000'000});
  // 32-bit Cpus: truncation keeps anything strictly inside (min-1, max+1).
  EXPECT_EQ(cpus_from_double(kTwo31 - 0.5), Cpus{INT32_MAX});
  EXPECT_EQ(cpus_from_double(-kTwo31), Cpus{INT32_MIN});
  EXPECT_EQ(cpus_from_double(-kTwo31 - 0.5), Cpus{INT32_MIN});
}

TEST(Quantity, InRangeConversionsMatchStaticCast) {
  for (double v : {0.0, -0.0, 0.4, -0.4, 0.999, 1.0, -1.0, 12345.678,
                   -98765.4321, 1e9, -1e9, 2147483647.0, -2147483647.5,
                   1e15 + 0.5, -1e15 - 0.5, 9.2e18, -9.2e18}) {
    EXPECT_EQ(time_from_usec(v).count(), static_cast<std::int64_t>(v)) << v;
    EXPECT_EQ(bytes_from_double(v).count(), static_cast<std::int64_t>(v))
        << v;
    if (v > -kTwo31 - 1.0 && v < kTwo31) {
      EXPECT_EQ(cpus_from_double(v).count(), static_cast<std::int32_t>(v))
          << v;
    }
  }
}

TEST(Quantity, ConvertersThrowOnNaNAndOutOfRange) {
  for (double v : {kNaN, kInf, -kInf, kTwo63, -std::nextafter(kTwo63, kInf),
                   1e19, -1e19, 1e300}) {
    EXPECT_THROW((void)time_from_usec(v), InvariantError) << v;
    EXPECT_THROW((void)bytes_from_double(v), InvariantError) << v;
    EXPECT_THROW((void)cpus_from_double(v), InvariantError) << v;
  }
  EXPECT_THROW((void)cpus_from_double(kTwo31), InvariantError);
  EXPECT_THROW((void)cpus_from_double(-kTwo31 - 1.0), InvariantError);
  // from_seconds checks the rounded microsecond count.
  EXPECT_THROW((void)from_seconds(kNaN), InvariantError);
  EXPECT_THROW((void)from_seconds(1e13), InvariantError);
  EXPECT_THROW((void)from_seconds(-1e13), InvariantError);
  EXPECT_THROW((void)from_seconds(kInf), InvariantError);
  // scale_time goes through time_from_usec: a huge factor or an infinite
  // one (an unchecked ect_slack) throws instead of wrapping negative.
  EXPECT_THROW((void)scale_time(kSec, 1e13), InvariantError);
  EXPECT_THROW((void)scale_time(kTimeInfinity, 2.0), InvariantError);
  EXPECT_THROW((void)scale_time(kSec, kInf), InvariantError);
  EXPECT_THROW((void)scale_time(kSec, kNaN), InvariantError);
}

}  // namespace
}  // namespace dagon
