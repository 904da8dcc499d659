// Data-locality levels, matching Spark's TaskLocality lattice.
#pragma once

#include <array>
#include <cstdint>

namespace dagon {

/// Ordered from best to worst; lower numeric value = better locality.
/// NoPref sits between Node and Rack exactly as in Spark: tasks with no
/// preferred location (e.g. pure shuffle reads) can launch anywhere
/// without waiting but are not counted as locality wins.
enum class Locality : std::int8_t {
  Process = 0,
  Node = 1,
  NoPref = 2,
  Rack = 3,
  Any = 4,
};

inline constexpr std::array<Locality, 5> kAllLocalities = {
    Locality::Process, Locality::Node, Locality::NoPref, Locality::Rack,
    Locality::Any};

[[nodiscard]] constexpr const char* locality_name(Locality l) {
  switch (l) {
    case Locality::Process: return "PROCESS_LOCAL";
    case Locality::Node: return "NODE_LOCAL";
    case Locality::NoPref: return "NO_PREF";
    case Locality::Rack: return "RACK_LOCAL";
    case Locality::Any: return "ANY";
  }
  return "?";
}

/// True when `have` is at least as good as (not worse than) `want`.
[[nodiscard]] constexpr bool at_least(Locality have, Locality want) {
  return static_cast<int>(have) <= static_cast<int>(want);
}

/// A set of locality levels: those a delay policy launches at.
class LocalitySet {
 public:
  constexpr void insert(Locality l) { bits_ |= bit(l); }
  [[nodiscard]] constexpr bool contains(Locality l) const {
    return (bits_ & bit(l)) != 0;
  }

 private:
  static constexpr std::uint8_t bit(Locality l) {
    return static_cast<std::uint8_t>(1U << static_cast<unsigned>(l));
  }
  std::uint8_t bits_ = 0;
};

}  // namespace dagon
