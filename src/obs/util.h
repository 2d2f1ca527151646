// Utilization & queueing observability: per-resource busy accounting,
// time-weighted queue-depth integrals, and bottleneck attribution.
//
// Every contended resource in the simulator already expresses contention as
// a busy-until horizon: an operation submitted at `arrival` computes
// `start = max(arrival, busy_until)` and `end = start + service` at
// scheduling time, so (arrival, start, end) is known the instant the op is
// issued — possibly entirely in the sim's future. This layer records those
// already-computed triples and nothing else. The contract is the tracer's
// (DESIGN §5b): strictly passive — no events scheduled, no sim time
// advanced, no RNG drawn — so an instrumented run is bit-identical to an
// uninstrumented one, a property the golden trace fixtures pin.
//
// Two accounting identities make the numbers trustworthy:
//
//  * busy_ns   = sum(end - start)         (service time)
//    wait_ns   = sum(start - arrival)     (queueing time)
//  * depth_integral_ns = time-integral of "operations in system", computed
//    independently by sweeping the (arrival, +1)/(end, -1) edge events in
//    time order.
//
// By Fubini, depth_integral_ns == busy_ns + wait_ns exactly — the same
// quantity computed through two different code paths. BottleneckReport
// surfaces the relative difference as a Little's-law residual (L = λW with
// λ = ops/T and W = (busy+wait)/ops gives λW·T = busy+wait ≈ ∫depth): a
// nonzero residual means the accounting itself is broken, so the check is
// a self-test, not a model validation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace pipette {

class Table;

/// Busy/wait/depth accounting for one serialised resource (or a pool of
/// identical units accounted together, e.g. all NAND dies). record() is
/// called at op submission with the already-computed horizon times. The
/// depth sweep is batched: record() inserts the op's +1 (arrival) and -1
/// (end) edges into two sorted runs, and every kBatch records, or on any
/// depth query, one merge of the two runs sweeps the edges up to the
/// latest `now`. Arrivals and ends come in nearly sorted, so insertion
/// rarely shifts; recording costs O(1) amortised, touches no event queue
/// and allocates nothing while at most kBatch ops are in flight.
class ResourceUsage {
 public:
  ResourceUsage() {
    arrivals_.reserve(kRunCapacity);
    ends_.reserve(kRunCapacity);
    arrivals_.push_back(kNever);
    ends_.push_back(kNever);
  }

  /// Account one operation: queued at `arrival`, service [start, end).
  /// `now` is the current sim time (sweep limit: edges later than `now`
  /// may belong to ops not yet submitted, so they stay pending).
  /// Requires `now` and `arrival` >= every earlier `now` (record or query)
  /// and arrival <= start <= end: the sweep never revisits swept time.
  void record(SimTime now, SimTime arrival, SimTime start, SimTime end) {
    PIPETTE_ASSERT_MSG(now >= last_now_ && arrival >= last_now_,
                       "ResourceUsage: op recorded behind the swept time");
    PIPETTE_ASSERT_MSG(arrival <= start && start <= end,
                       "ResourceUsage: arrival <= start <= end violated");
    last_now_ = now;
    ++ops_;
    busy_ns_ += end - start;
    wait_ns_ += start - arrival;
    insert_sorted(arrivals_, arrival);
    insert_sorted(ends_, end);
    if (++batched_ == kBatch) sweep(now);
  }

  std::uint64_t ops() const { return ops_; }
  std::uint64_t busy_ns() const { return busy_ns_; }
  std::uint64_t wait_ns() const { return wait_ns_; }

  /// Independent depth integral, advanced to `now` (sweeps pending edges).
  std::uint64_t depth_integral_ns(SimTime now) {
    sweep(now);
    return depth_integral_ns_;
  }
  /// Highest concurrent op count observed up to `now`.
  std::uint32_t depth_peak(SimTime now) {
    sweep(now);
    return static_cast<std::uint32_t>(peak_);
  }
  /// Ops in system (queued or in service) at `now`.
  std::uint32_t depth(SimTime now) {
    sweep(now);
    return static_cast<std::uint32_t>(level_);
  }

 private:
  /// Records per sweep. The runs hold one batch plus the edges still in
  /// the future at the last sweep (ops in flight), so kRunCapacity covers
  /// up to kBatch in-flight ops before a run grows.
  static constexpr std::uint32_t kBatch = 256;
  static constexpr std::size_t kRunCapacity = 2 * kBatch + 1;
  /// Sentinel closing each run; no edge at or past it is ever swept.
  static constexpr SimTime kNever = ~SimTime{0};

  /// Insert `t` into a sorted run, keeping the kNever sentinel last.
  static void insert_sorted(std::vector<SimTime>& run, SimTime t) {
    run.push_back(kNever);
    std::size_t k = run.size() - 2;
    while (k > 0 && run[k - 1] > t) {
      run[k] = run[k - 1];
      --k;
    }
    run[k] = t;
  }

  /// Sweep every pending edge at or before the latest `now` (recorded or
  /// queried) in (time, delta) order. The delta tie-break (-1 before +1)
  /// keeps back-to-back ops from counting depth 2 at the shared instant.
  /// Sweeping once per batch gives the same peak as sweeping after every
  /// record: an op recorded at an already-swept instant T adds edges at T
  /// only as a +1, or as a zero-length op's -1 with its own +1, so each
  /// later sweep leaves the level at T no lower, and the highest level at
  /// T is the one after its last edge in both schedules. Edges past the
  /// latest `now` stay pending: an op submitted later can still carry an
  /// arrival earlier than them.
  void sweep(SimTime now) {
    if (now > last_now_) last_now_ = now;
    // Below kNever, so the sentinels always end the merge.
    const SimTime limit = std::min(last_now_, kNever - 1);
    // Locals, not members: the runs are SimTime arrays too, so member
    // stores inside the loop would alias them and force reloads.
    const SimTime* a = arrivals_.data();
    const SimTime* e = ends_.data();
    std::size_t i = 0;
    std::size_t j = 0;
    std::int64_t level = level_;
    std::int64_t peak = peak_;
    std::uint64_t integral = depth_integral_ns_;
    SimTime swept = swept_to_;
    for (;;) {
      const SimTime ta = a[i];
      const SimTime te = e[j];
      const bool down = te <= ta;
      const SimTime t = down ? te : ta;
      if (t > limit) break;
      integral += static_cast<std::uint64_t>(level) * (t - swept);
      swept = t;
      level += down ? -1 : 1;
      peak = std::max(peak, level);
      i += !down;
      j += down;
    }
    depth_integral_ns_ =
        integral + static_cast<std::uint64_t>(level) * (last_now_ - swept);
    swept_to_ = last_now_;
    level_ = level;
    peak_ = peak;
    arrivals_.erase(arrivals_.begin(),
                    arrivals_.begin() + static_cast<std::ptrdiff_t>(i));
    ends_.erase(ends_.begin(), ends_.begin() + static_cast<std::ptrdiff_t>(j));
    batched_ = 0;
  }

  std::uint64_t ops_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t wait_ns_ = 0;
  std::uint64_t depth_integral_ns_ = 0;
  std::int64_t level_ = 0;
  std::int64_t peak_ = 0;
  SimTime swept_to_ = 0;
  SimTime last_now_ = 0;
  std::uint32_t batched_ = 0;
  // Pending edge times, each run sorted and closed by kNever.
  std::vector<SimTime> arrivals_;  // +1 edges
  std::vector<SimTime> ends_;      // -1 edges
};

/// Time-weighted occupancy accounting for a level that changes at known
/// instants (Info-ring in-flight records, GC page-buffer reads, the
/// prefetcher's outstanding budget). update() is called right after the
/// level changes; busy time is the time spent at a nonzero level.
class OccupancyIntegrator {
 public:
  void update(SimTime now, std::uint64_t level) {
    advance(now);
    level_ = level;
    if (level > peak_) peak_ = level;
  }

  /// Extend the integral to `now` without changing the level.
  void advance(SimTime now) {
    if (now > last_) {
      integral_ns_ += level_ * (now - last_);
      if (level_ > 0) busy_ns_ += now - last_;
      last_ = now;
    }
  }

  std::uint64_t level() const { return level_; }
  std::uint64_t peak() const { return peak_; }
  std::uint64_t integral_ns() const { return integral_ns_; }
  std::uint64_t busy_ns() const { return busy_ns_; }

 private:
  std::uint64_t level_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t integral_ns_ = 0;
  std::uint64_t busy_ns_ = 0;  // time at nonzero occupancy
  SimTime last_ = 0;
};

/// Export one ResourceUsage under util.<name>.* / queue.<name>.* metric
/// names. The depth peak deliberately ends in "_peak" so the fleet merge
/// takes the max across shards instead of summing (MetricsRegistry rule).
void export_usage(MetricsRegistry& out, const std::string& name,
                  ResourceUsage& usage, std::uint64_t units, SimTime now);

/// Export one OccupancyIntegrator the same way (busy_ns = nonzero time).
void export_occupancy(MetricsRegistry& out, const std::string& name,
                      OccupancyIntegrator& occ, std::uint64_t units,
                      SimTime now);

/// One ranked row of the bottleneck report, reconstructed from util.* and
/// queue.* registry entries (so it works identically on a RunResult and on
/// a fleet's merged registry, where busy and elapsed both sum per shard).
struct ResourceReport {
  std::string name;
  std::uint64_t units = 1;
  std::uint64_t ops = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t depth_integral_ns = 0;
  std::uint64_t depth_peak = 0;
  bool has_waits = false;  // occupancy-only resources have no wait account

  /// Total busy time over elapsed — the ranking key. Exceeds 1.0 when a
  /// pool's units are busy concurrently; per-unit utilization is
  /// busy_share / units.
  double busy_share(std::uint64_t elapsed_ns) const {
    return elapsed_ns == 0
               ? 0.0
               : static_cast<double>(busy_ns) /
                     static_cast<double>(elapsed_ns);
  }
  double mean_depth(std::uint64_t elapsed_ns) const {
    return elapsed_ns == 0
               ? 0.0
               : static_cast<double>(depth_integral_ns) /
                     static_cast<double>(elapsed_ns);
  }
  double mean_wait_us() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(wait_ns) /
                          static_cast<double>(ops) / 1e3;
  }
  /// |∫depth - (busy + wait)| / ∫depth — zero when the two independent
  /// accounts agree (see the file comment). Only defined for resources
  /// with wait accounting.
  double littles_residual() const;
};

/// Ranks every instrumented resource by busy-time share and cross-checks
/// the queueing accounts. Built from a metrics registry, so it applies to
/// single runs and merged fleet registries alike.
class BottleneckReport {
 public:
  static BottleneckReport from_metrics(const MetricsRegistry& metrics);

  /// Rows sorted service resources first (those with wait accounting),
  /// then by descending busy share, ties broken by name. Occupancy-only
  /// accounts trail the ranking: their busy time is time-at-nonzero-level,
  /// which is not comparable to consumed service capacity.
  const std::vector<ResourceReport>& resources() const { return resources_; }
  /// The top-ranked service resource name (has_waits and busy), or ""
  /// when no service resource did any work.
  std::string top() const;
  std::uint64_t elapsed_ns() const { return elapsed_ns_; }
  /// Worst Little's-law residual across resources with wait accounting.
  double max_littles_residual() const;

  /// Rendered via the common Table: resource, busy share, per-unit
  /// utilization, mean depth, mean wait, peak depth, residual.
  Table to_table() const;

 private:
  std::vector<ResourceReport> resources_;
  std::uint64_t elapsed_ns_ = 0;
};

}  // namespace pipette
