// Sim-time series sampling: periodic snapshots of throughput and cache
// state over the measured phase of a run.
//
// The sampler is polled from the experiment loop between requests (host
// side), so it can never perturb the simulation: no events, no RNG, no
// advance(). Samples are taken at most once per poll even when the request
// that just completed straddled several intervals — the series is a
// bounded, evenly-spaced-ish decimation, not an exact integral.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"

namespace pipette {

struct TimelineConfig {
  /// Sampling interval in sim ns; 0 disables the sampler.
  SimDuration interval = 0;
};

/// One snapshot. Counters are cumulative over the measured phase (deltas
/// against the measurement start), so rates between consecutive samples
/// are simple differences.
struct TimeSample {
  SimDuration t = 0;  // sim time since measurement start
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;  // replicated/dual writes show up here
  std::uint64_t traffic_bytes = 0;
  double page_cache_hit_ratio = 0.0;
  double fgrc_hit_ratio = 0.0;
  std::uint64_t fgrc_bytes = 0;

  // GC and fault activity (cumulative, like the counters above).
  std::uint64_t gc_moves = 0;       // victim pages GC relocated
  std::uint64_t read_retries = 0;   // NAND read-retry passes
  std::uint64_t degraded_reads = 0; // reads served degraded after faults

  // Utilization & queueing (obs/util.h accounts). Busy counters are
  // cumulative ns; depths are instantaneous levels at the sample instant.
  std::uint64_t nand_busy_ns = 0;          // die sensing + programming
  std::uint64_t interconnect_busy_ns = 0;  // PCIe DMA + LMB link
  std::uint64_t gc_busy_ns = 0;            // GC-attributed NAND time
  std::uint32_t info_ring_depth = 0;
  std::uint32_t nand_queue_depth = 0;

  bool operator==(const TimeSample&) const = default;
};

class TimelineSampler {
 public:
  /// Hard cap on stored samples (long runs stop sampling, not resize).
  static constexpr std::uint32_t kMaxSamples = 4096;

  TimelineSampler(const TimelineConfig& config, SimTime start)
      : config_(config), start_(start), next_(start + config.interval) {}

  /// True when a sample is owed at sim time `now`.
  bool due(SimTime now) const {
    return config_.interval > 0 && samples_.size() < kMaxSamples &&
           now >= next_;
  }

  void record(SimTime now, TimeSample sample) {
    sample.t = now - start_;
    samples_.push_back(sample);
    next_ = now + config_.interval;
  }

  std::vector<TimeSample> take() { return std::move(samples_); }

 private:
  TimelineConfig config_;
  SimTime start_;
  SimTime next_;
  std::vector<TimeSample> samples_;
};

}  // namespace pipette
