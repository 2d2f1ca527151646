// Deterministic fault-injection plans and the per-component injector.
//
// A FaultPlan describes every failure the simulation may inject — NAND read
// errors with retry/backoff, HMB/DMA engine faults and lost completions on
// the fine-grained path — plus, at the fleet layer, shard outage schedules
// with a policy for requests aimed at a down shard. All injection draws come
// from xoshiro sub-streams derived with Rng::split_seed(plan seed, domain),
// so components never perturb each other's randomness.
//
// Determinism contract (pinned by tests/fault_test.cpp and the golden
// fixture): a zero-rate plan draws NO random values and schedules NO extra
// events, so a run with faults disabled is bit-identical to a run built
// before this subsystem existed — whatever seed the plan carries. Nonzero
// rates are a pure function of (plan seed, domain, draw index), so the same
// seed reproduces the same retry/failure trace at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace pipette {

/// Sub-stream selector for FaultInjector: each fault-injecting component
/// owns one domain so its draw sequence is independent of every other's.
enum class FaultDomain : std::uint64_t {
  kNand = 1,    // per-attempt read sensing failures
  kHmbDma = 2,  // fine-grained engine HMB transfer faults / lost completions
};

/// NAND media read errors (paper-world: raw bit-error spikes the default
/// read threshold cannot correct). Each sensing pass fails independently
/// with `read_error_rate`; a failed pass waits an exponentially growing
/// backoff (the drive retuning its read voltages) and senses again, up to
/// `max_attempts` passes, after which the read is a terminal ECC failure
/// and no data is transferred.
struct NandFaultPlan {
  double read_error_rate = 0.0;
  std::uint32_t max_attempts = 4;
  SimDuration backoff_base = 10 * kUs;  // wait before retry k: base << (k-1)

  /// Wear-correlated media errors: each completed erase on a die adds
  /// `wear_error_per_erase` to that die's per-pass read error probability,
  /// so heavily-erased dies retry (and eventually fail) more. 0 disables
  /// the wear model entirely — including the burst window below — and the
  /// draw stream is bit-identical to a plan without these fields.
  double wear_error_per_erase = 0.0;
  /// Bursty post-erase window: the first `wear_burst_reads` reads on a die
  /// after one of its blocks is erased see the wear contribution multiplied
  /// by (1 + wear_burst_boost) — freshly-erased blocks disturb neighbouring
  /// cells, so errors cluster right after an erase rather than arriving
  /// flat. Inert while wear_error_per_erase == 0.
  double wear_burst_boost = 3.0;
  std::uint32_t wear_burst_reads = 64;
};

/// Faults of the fine-grained read engine's host-memory-buffer transfers.
struct HmbFaultPlan {
  /// P(a kFgRead command's HMB DMA engine faults): the command aborts after
  /// `fault_latency` without moving any bytes; the host degrades the
  /// request to the block path.
  double dma_fault_rate = 0.0;
  /// P(a kFgRead command's completion is lost): all device work runs but
  /// the CQ entry never arrives; only the host's timeout guard ends the
  /// wait.
  double drop_rate = 0.0;
  SimDuration fault_latency = 5 * kUs;
  /// Host-side guard on the closed-loop fine-read wait; 0 disables it.
  /// Must exceed any legitimate command latency (it is the hang detector,
  /// not a QoS deadline).
  SimDuration timeout = 100 * kMs;
};

/// Device-level fault plan, carried by ControllerConfig. `seed` is the root
/// of every injector sub-stream on this device.
struct FaultPlan {
  std::uint64_t seed = 0xfa17;
  NandFaultPlan nand;
  HmbFaultPlan hmb;

  bool any_device_faults() const {
    return nand.read_error_rate > 0.0 || nand.wear_error_per_erase > 0.0 ||
           hmb.dma_fault_rate > 0.0 || hmb.drop_rate > 0.0;
  }
};

/// What a client does with a read no copy of its owning shard can serve.
enum class DownShardPolicy {
  kFailFast,      // error immediately after fail_fast_latency
  kRetryBackoff,  // back off exponentially; replay against the recovered shard
  kReroute,       // serve on the next shard in ring order with an up copy
};

const char* to_string(DownShardPolicy policy);

/// One shard's outage window, in master-stream request indices (the fleet's
/// deterministic clock): the shard is down for requests with index in
/// [fail_at, recover_at) and comes back with cold host caches (a kReroute
/// outage is a routing drain and keeps them). `replica` selects which copy
/// of the group dies (0 = the primary, the only copy of an R=1 fleet).
struct ShardOutage {
  std::size_t shard = 0;
  std::uint64_t fail_at = 0;
  std::uint64_t recover_at = 0;  // == fail_at: no outage
  std::size_t replica = 0;

  bool active() const { return recover_at > fail_at; }
  bool down_at(std::uint64_t master_index) const {
    return master_index >= fail_at && master_index < recover_at;
  }
};

/// Fleet-level fault schedule: shard outages plus the down-shard policy.
struct FleetFaultPlan {
  std::vector<ShardOutage> outages;
  DownShardPolicy policy = DownShardPolicy::kFailFast;
  /// Client-observed latency of a fail-fast rejection.
  SimDuration fail_fast_latency = 50 * kUs;
  /// First retry wait under kRetryBackoff; doubles per attempt.
  SimDuration retry_backoff_base = 1 * kMs;
  std::uint32_t retry_attempts = 3;

  /// Outage scheduled for one specific copy of a group.
  const ShardOutage* outage_for(std::size_t shard, std::size_t replica) const;
  /// Total wait of the full backoff ladder: sum of base << k over attempts.
  SimDuration total_retry_backoff() const;
};

/// A component's private fault stream. fire(rate) returns true with
/// probability `rate` — and, crucially, consumes NO randomness when the
/// rate is zero, so disabled plans are bit-identical to no plan at all.
class FaultInjector {
 public:
  FaultInjector(std::uint64_t plan_seed, FaultDomain domain)
      : rng_(Rng::split_seed(plan_seed,
                             static_cast<std::uint64_t>(domain))) {}

  bool fire(double rate) {
    if (rate <= 0.0) return false;
    ++draws_;
    if (rng_.next_bool(rate)) {
      ++fired_;
      return true;
    }
    return false;
  }

  /// Random values consumed so far (diagnostics; zero iff all rates zero).
  std::uint64_t draws() const { return draws_; }
  /// Draws that came up positive (faults actually injected).
  std::uint64_t fired() const { return fired_; }

 private:
  Rng rng_;
  std::uint64_t draws_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace pipette
