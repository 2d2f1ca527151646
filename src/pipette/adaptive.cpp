#include "pipette/adaptive.h"

#include "common/assert.h"

namespace pipette {

AdaptiveThreshold::AdaptiveThreshold(const AdaptiveConfig& config)
    : config_(config), threshold_(config.initial_threshold) {
  PIPETTE_ASSERT(config.min_threshold <= config.initial_threshold);
  PIPETTE_ASSERT(config.initial_threshold <= config.max_threshold);
  PIPETTE_ASSERT(config.adjust_period > 0);
}

double AdaptiveThreshold::window_ratio() const {
  return window_accesses_ == 0
             ? 0.0
             : static_cast<double>(window_reuses_) /
                   static_cast<double>(window_accesses_);
}

void AdaptiveThreshold::on_access(bool repeated) {
  ++access_count_;
  ++window_accesses_;
  if (repeated) {
    ++reuse_count_;
    ++window_reuses_;
  }
  if (!config_.enabled) return;
  if (window_accesses_ < config_.adjust_period) return;

  const double ratio = window_ratio();
  if (ratio < kMinRatio && threshold_ < config_.max_threshold) {
    // Low data reuse: cache infrequently.
    ++threshold_;
  } else if (ratio > kMaxRatio &&
             threshold_ > config_.min_threshold) {
    // High data reuse: allow frequent promotion.
    --threshold_;
  }
  window_accesses_ = 0;
  window_reuses_ = 0;
}

std::uint32_t ReferenceTracker::record(const FgKey& key) {
  if (std::uint32_t* count = counts_.find(key)) {
    return ++*count;
  }
  counts_.insert(key, 1);
  return 1;
}

}  // namespace pipette
