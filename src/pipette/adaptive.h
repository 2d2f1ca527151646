// Adaptive caching mechanism (paper §3.2.2).
//
// Pipette decides at every fine-grained miss whether the fetched data
// deserves a slot in the fine-grained read cache. The decision compares the
// object's reference count against a promotion threshold that tracks the
// workload's reusability: an access counter and a reuse counter measure the
// ratio of repeated fine-grained accesses; when the ratio sinks below
// kMinRatio the threshold rises (cache less under low reuse, e.g. uniform
// scans), and when it exceeds kMaxRatio the threshold falls (promote
// aggressively under high reuse). Reference counts for objects not yet
// cached live in a bounded ghost table.
#pragma once

#include <cstdint>

#include "common/lru.h"
#include "pipette/fg_key.h"

namespace pipette {

struct AdaptiveConfig {
  std::uint32_t initial_threshold = 2;
  std::uint32_t min_threshold = 1;  // 1 = promote on first access
  std::uint32_t max_threshold = 4;
  std::uint64_t adjust_period = 4096;  // accesses between adjustments
  bool enabled = true;  // false = threshold frozen at initial (ablation)
  std::uint64_t ghost_capacity = 1 << 21;  // tracked-but-uncached objects
};

class AdaptiveThreshold {
 public:
  // Ratio bounds calibrated so the filter targets genuinely cold streams:
  // a scan re-references <5% and gets throttled; steady-state uniform or
  // zipfian traffic re-references >25% and is promoted eagerly.
  static constexpr double kMinRatio = 0.05;  // below: raise the threshold
  static constexpr double kMaxRatio = 0.25;  // above: lower the threshold
  static_assert(kMinRatio <= kMaxRatio);

  explicit AdaptiveThreshold(const AdaptiveConfig& config);

  /// Record one fine-grained access; `repeated` marks a re-access of data
  /// seen before (hit, or ghost re-reference). Periodically re-tunes.
  void on_access(bool repeated);

  std::uint32_t threshold() const { return threshold_; }
  std::uint64_t accesses() const { return access_count_; }
  std::uint64_t reuses() const { return reuse_count_; }
  /// Reuse ratio over the current adjustment window.
  double window_ratio() const;

 private:
  AdaptiveConfig config_;
  std::uint32_t threshold_;
  std::uint64_t access_count_ = 0;
  std::uint64_t reuse_count_ = 0;
  std::uint64_t window_accesses_ = 0;
  std::uint64_t window_reuses_ = 0;
};

/// Reference counts for fine-grained objects that are not (yet) cached.
/// Bounded LRU so cold keys age out instead of growing without limit.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(std::uint64_t capacity) : counts_(capacity) {}

  /// Record an access to an uncached key; returns its updated count
  /// (including this access).
  std::uint32_t record(const FgKey& key);

  /// True if the key has been seen before (without recording).
  bool seen(const FgKey& key) const { return counts_.peek(key) != nullptr; }

  /// Forget a key (it was promoted into the cache or invalidated).
  void forget(const FgKey& key) { counts_.erase(key); }

  std::size_t tracked() const { return counts_.size(); }

 private:
  LruMap<FgKey, std::uint32_t, FgKeyHash> counts_;
};

}  // namespace pipette
