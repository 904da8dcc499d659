// Cache replacement/prefetch policies.
//
// A policy is a pure decision function over (block, local LRU state,
// ReferenceOracle); the BlockManager owns the mechanics (capacity,
// victim search, admission). Implemented policies:
//   LRU  — Spark's default BlockManager policy (DAG-oblivious)
//   LRC  — least reference count [Yu et al., INFOCOM'17]
//   MRD  — most reference distance, FIFO stage order [Perez et al., ICPP'18]
//   LRP  — least reference priority, the paper's contribution (§III-C)
//   LERC — least effective reference count [Yu et al., ICDCS'17]:
//          all-or-nothing caching per consumer stage, so memory is only
//          spent on blocks whose whole peer group can produce effective
//          hits (needs ReferenceOracle peer tracking)
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cache/ref_oracle.hpp"
#include "common/sim_time.hpp"

namespace dagon {

enum class CachePolicyKind { Lru, Lrc, Mrd, Lrp, Lerc };

[[nodiscard]] constexpr const char* cache_policy_name(CachePolicyKind k) {
  switch (k) {
    case CachePolicyKind::Lru: return "LRU";
    case CachePolicyKind::Lrc: return "LRC";
    case CachePolicyKind::Mrd: return "MRD";
    case CachePolicyKind::Lrp: return "LRP";
    case CachePolicyKind::Lerc: return "LERC";
  }
  return "?";
}

/// The accepted --cache / config spellings, for actionable errors.
inline constexpr const char* kCachePolicyNames =
    "lru | lrc | mrd | lrp | lerc";

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Retention priority of a cached block: at eviction time the block
  /// with the SMALLEST value goes first. Ties are broken by the
  /// BlockManager using least-recent access.
  [[nodiscard]] virtual double retention_priority(
      const BlockId& block, SimTime last_access,
      const ReferenceOracle& oracle) const = 0;

  /// Whether blocks that can never be referenced again should be dropped
  /// eagerly to free space (LRP §III-C; MRD behaves the same way).
  [[nodiscard]] virtual bool proactive_eviction() const { return false; }

  /// True when a block has no remaining value under this policy and is a
  /// proactive-eviction candidate.
  [[nodiscard]] virtual bool is_dead(const BlockId& block,
                                     const ReferenceOracle& oracle) const;

  /// Whether newly produced/read blocks are always admitted (LRU), or
  /// only when their retention priority beats the would-be victims'
  /// (MRD/LRP — this is how MRD declines to cache RDD B in Table I).
  [[nodiscard]] virtual bool always_admit() const { return false; }

  /// Whether the policy prefetches at all (MRD and LRP). When false,
  /// prefetch_priority() is nullopt for every block, so the master keeps
  /// no prefetch index and the driver runs no prefetch pass.
  [[nodiscard]] virtual bool prefetches() const { return false; }

  /// Prefetch desirability: HIGHEST value fetched first; nullopt when the
  /// block should not be prefetched at all. Default: no prefetching.
  [[nodiscard]] virtual std::optional<double> prefetch_priority(
      const BlockId& block, const ReferenceOracle& oracle) const {
    (void)block;
    (void)oracle;
    return std::nullopt;
  }
};

/// LRU: retention = last access time; always admits; never prefetches.
class LruPolicy final : public CachePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "LRU"; }
  [[nodiscard]] double retention_priority(
      const BlockId& block, SimTime last_access,
      const ReferenceOracle& oracle) const override;
  [[nodiscard]] bool always_admit() const override { return true; }
  [[nodiscard]] bool is_dead(const BlockId&,
                             const ReferenceOracle&) const override {
    return false;
  }
};

/// LRC: retention = remaining reference count.
class LrcPolicy final : public CachePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "LRC"; }
  [[nodiscard]] double retention_priority(
      const BlockId& block, SimTime last_access,
      const ReferenceOracle& oracle) const override;
  [[nodiscard]] bool proactive_eviction() const override { return true; }
};

/// MRD: retention = −(stage reference distance in FIFO order); prefetches
/// the nearest-distance disk blocks.
class MrdPolicy final : public CachePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "MRD"; }
  [[nodiscard]] double retention_priority(
      const BlockId& block, SimTime last_access,
      const ReferenceOracle& oracle) const override;
  [[nodiscard]] bool proactive_eviction() const override { return true; }
  [[nodiscard]] bool prefetches() const override { return true; }
  [[nodiscard]] std::optional<double> prefetch_priority(
      const BlockId& block, const ReferenceOracle& oracle) const override;
};

/// LRP (the paper's §III-C): retention = reference priority (max pv of
/// unfinished reader stages); proactively drops zero-priority blocks;
/// prefetches the highest-priority disk blocks.
class LrpPolicy final : public CachePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "LRP"; }
  [[nodiscard]] double retention_priority(
      const BlockId& block, SimTime last_access,
      const ReferenceOracle& oracle) const override;
  [[nodiscard]] bool proactive_eviction() const override { return true; }
  [[nodiscard]] bool prefetches() const override { return true; }
  [[nodiscard]] std::optional<double> prefetch_priority(
      const BlockId& block, const ReferenceOracle& oracle) const override;
};

/// LERC [Yu et al., ICDCS'17]: retention = effective reference count
/// (live reader stages whose peer group is — or, with this block, would
/// be — fully cached), with the raw reference count as tie-break so
/// dead data still leaves before merely ineffective data. Proactively
/// evicts dead blocks; admission must beat a victim (all-or-nothing
/// pressure: a block of an uncachable-in-full group scores 0 and loses
/// to any effective block). Requires
/// ReferenceOracle::enable_peer_tracking().
class LercPolicy final : public CachePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "LERC"; }
  [[nodiscard]] double retention_priority(
      const BlockId& block, SimTime last_access,
      const ReferenceOracle& oracle) const override;
  [[nodiscard]] bool proactive_eviction() const override { return true; }
};

[[nodiscard]] std::unique_ptr<CachePolicy> make_cache_policy(
    CachePolicyKind kind);

}  // namespace dagon
