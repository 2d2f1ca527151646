// Fleet simulation layer: many machines serving one partitioned workload.
//
// The paper's evaluation (§4) runs one host against one SSD. Deployments of
// the applications it targets — recommendation inference, social-graph
// serving — shard the dataset across a fleet of such machines, and fleet
// behaviour (skewed shard load, divergent per-shard cache hit ratios, tail
// latency set by the hottest shard) is qualitatively different from any
// single-machine result. This layer simulates exactly that:
//
//  * FleetConfig — shard count, key->shard partitioning scheme, the base
//                  MachineConfig, optional per-shard overrides, outages and
//                  replica groups.
//  * FleetRunner — routes the master stream through a ReplicaRouter, runs
//                  one Machine (and with it a private Simulator) per
//                  machine id through parallel_for, and composes the
//                  client's view into a FleetResult.
//
// Determinism contract (what fleet_test pins):
//  * Same seed => bit-identical FleetResult, at any job count. Machines
//    never share mutable state; each one is a self-contained simulation.
//  * Every machine replays the same master stream (splittable-RNG seeding
//    keeps it a pure function of the fleet seed) and serves only what the
//    router assigns it, so a k-shard fleet serves exactly the per-key
//    request sequence of the 1-shard run — and a 1-shard fleet IS the
//    single-machine experiment, field for field.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "faults/faults.h"
#include "fleet/partition.h"
#include "fleet/replica.h"
#include "sim/experiment.h"

namespace pipette {

/// Constructs a workload from a seed. Called once for the counting
/// pre-pass, then once per machine (made just before that machine, dropped
/// just after it); every call with the same seed must yield an identical
/// stream.
using SeededWorkloadFactory =
    std::function<std::unique_ptr<Workload>(std::uint64_t seed)>;

struct FleetConfig {
  std::size_t shards = 1;
  PartitionScheme partition = PartitionScheme::kHash;
  /// Base machine for every shard.
  MachineConfig machine;
  /// Optional per-shard overrides: empty, or exactly one entry per shard
  /// (heterogeneous fleets: a straggler shard, mixed path kinds, ...).
  std::vector<MachineConfig> shard_machines;
  /// Shard outage schedule + down-shard policy. Outages are indexed by
  /// master-stream position (the fleet's deterministic clock). Device-level
  /// fault rates live in machine.ssd.faults; the runner splits that plan's
  /// seed per machine so each device draws a private error trace.
  FleetFaultPlan faults;
  /// Replica groups, read policy, shadow reads, and live resharding (see
  /// fleet/replica.h). With `shards` groups of `replication.replicas`
  /// copies, machine ids are group * R + replica and shard_results holds
  /// one entry per machine; the default R=1 makes machine id == shard.
  ReplicationConfig replication;
};

struct FleetResult {
  /// One per machine, in machine-id order (group * R + replica; the shard
  /// index when R=1).
  std::vector<RunResult> shard_results;

  // Fleet-wide totals over the measured phase. The client-facing fields
  // (requests, measured_reads, bytes_requested, latency and its
  // percentiles, failed_reads) describe the *client's* view composed from
  // the router's assignments — one value per master request, quorum legs
  // joined on the k-th fastest — while traffic_bytes, events_executed and
  // the load-imbalance block sum the device-level work of every machine
  // (replicated writes, shadow/warm reads included).
  std::uint64_t requests = 0;
  std::uint64_t measured_reads = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t traffic_bytes = 0;
  std::uint64_t events_executed = 0;  // warmup + measurement, all shards

  // Fault-model totals over the measured phase (sums across shards):
  // NAND retry passes + client retries, terminal read failures, reads that
  // fell back to the block path after an HMB fault, and requests that
  // arrived while their owning shard was down.
  std::uint64_t retries = 0;
  std::uint64_t failed_reads = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t down_requests = 0;

  /// Simulated makespan of the measured phase: the slowest shard's elapsed
  /// time. Shards run concurrently in a real deployment, so fleet
  /// throughput is total work over this, not over the sum.
  SimDuration makespan = 0;

  /// Cross-shard read-latency distribution: the per-shard measured-phase
  /// histograms merged bucket-wise. The percentiles below are percentiles
  /// of this merged distribution — averaging per-shard percentile readouts
  /// would understate the tail whenever one shard runs hot.
  LatencyHistogram latency;
  double mean_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  /// The failover headline number: bounded p999 under a replica loss is
  /// what bench/fleet_failover demonstrates.
  double p999_latency_us = 0.0;

  /// Fleet-wide component metrics: per-shard registries merged by key-wise
  /// sum. Always collected (see RunResult::metrics), so it participates in
  /// Deterministic().
  MetricsRegistry metrics;

  /// Cross-shard per-stage latency decomposition (merged bucket-wise like
  /// `latency`). Empty unless shards ran with tracing; excluded from
  /// Deterministic() for the same reason as RunResult::stage_latency.
  std::vector<LatencyHistogram> stage_latency;

  // Load imbalance over measured requests.
  std::uint64_t max_shard_requests = 0;
  std::uint64_t min_shard_requests = 0;
  double mean_shard_requests = 0.0;
  /// max/mean shard requests; 1.0 = perfectly balanced.
  double load_imbalance = 0.0;
  /// First shard with max_shard_requests, and its FGRC hit ratio — under
  /// skew the hottest shard's cache behaviour bounds fleet tail latency.
  std::size_t hottest_shard = 0;
  double hottest_shard_fgrc_hit_ratio = 0.0;

  /// Host wall-clock for the whole fleet run. Nondeterministic; excluded
  /// from Deterministic() and deterministic_equal().
  double host_seconds = 0.0;

  /// Fraction of measured reads the fleet served (possibly degraded);
  /// 1.0 when no read was attempted.
  double availability() const {
    const std::uint64_t attempted = measured_reads + failed_reads;
    return attempted == 0 ? 1.0
                          : static_cast<double>(measured_reads) /
                                static_cast<double>(attempted);
  }

  double requests_per_sec() const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(requests) /
                               (static_cast<double>(makespan) / 1e9);
  }
  double throughput_mib_s() const {
    return makespan == 0
               ? 0.0
               : static_cast<double>(bytes_requested) / (1024.0 * 1024.0) /
                     (static_cast<double>(makespan) / 1e9);
  }

  /// Every deterministic aggregate as one comparable tuple (per-shard
  /// results are covered by deterministic_equal(), which also walks
  /// shard_results).
  auto Deterministic() const {
    return std::tie(requests, measured_reads, bytes_requested, traffic_bytes,
                    events_executed, retries, failed_reads, degraded_reads,
                    down_requests, makespan, latency, mean_latency_us,
                    p50_latency_us, p99_latency_us, p999_latency_us,
                    max_shard_requests, min_shard_requests,
                    mean_shard_requests, load_imbalance, hottest_shard,
                    hottest_shard_fgrc_hit_ratio, metrics);
  }
};

/// True iff every deterministic field of the two results matches — the
/// aggregates and each shard's RunResult::Deterministic().
bool deterministic_equal(const FleetResult& a, const FleetResult& b);

class FleetRunner {
 public:
  /// `workload_seed` is the fleet-level seed every machine's copy of the
  /// master stream is built from.
  FleetRunner(FleetConfig config, SeededWorkloadFactory make_workload,
              std::uint64_t workload_seed);

  /// Run the fleet. `run` counts the fleet-wide stream: the first
  /// run.warmup master requests are warmup, the next run.requests are
  /// measured — each machine receives its share of both phases (exact
  /// counts come from a counting pre-pass over the master stream). `jobs` =
  /// worker threads for fanning machines (0 = hardware concurrency, 1 =
  /// serial on the calling thread; see parallel_for); results are
  /// bit-identical at any job count.
  FleetResult run(const RunConfig& run, unsigned jobs = 0) const;

  const FleetConfig& config() const { return config_; }

 private:
  MachineConfig machine_config(std::size_t machine_id) const;

  FleetConfig config_;
  SeededWorkloadFactory make_workload_;
  std::uint64_t seed_;
};

}  // namespace pipette
