#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <compare>
#include <utility>

#include "common/assert.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace pipette {

bool deterministic_equal(const FleetResult& a, const FleetResult& b) {
  if (a.Deterministic() != b.Deterministic()) return false;
  if (a.shard_results.size() != b.shard_results.size()) return false;
  for (std::size_t s = 0; s < a.shard_results.size(); ++s) {
    if (a.shard_results[s].Deterministic() !=
        b.shard_results[s].Deterministic())
      return false;
  }
  return true;
}

FleetRunner::FleetRunner(FleetConfig config,
                         SeededWorkloadFactory make_workload,
                         std::uint64_t workload_seed)
    : config_(std::move(config)),
      make_workload_(std::move(make_workload)),
      seed_(workload_seed) {
  PIPETTE_ASSERT(config_.shards > 0);
  PIPETTE_ASSERT_MSG(config_.shard_machines.empty() ||
                         config_.shard_machines.size() == config_.shards,
                     "shard_machines must be empty or one per shard");
  PIPETTE_ASSERT(make_workload_ != nullptr);
  const ReplicationConfig& repl = config_.replication;
  PIPETTE_ASSERT_MSG(repl.replicas >= 1, "a group needs at least one copy");
  PIPETTE_ASSERT_MSG(repl.shadow_read_fraction >= 0.0 &&
                         repl.shadow_read_fraction <= 1.0,
                     "shadow_read_fraction is a probability");
  if (repl.read_policy == ReadPolicy::kQuorum) {
    PIPETTE_ASSERT_MSG(repl.quorum_k >= 1 && repl.quorum_k <= repl.replicas,
                       "quorum_k must be in [1, replicas]");
  }
  if (repl.migration.active()) {
    PIPETTE_ASSERT_MSG(repl.migration.target < config_.shards,
                       "migration target is not a group");
  }
  for (const ShardOutage& o : config_.faults.outages) {
    PIPETTE_ASSERT_MSG(o.shard < config_.shards, "outage for unknown shard");
    PIPETTE_ASSERT_MSG(o.recover_at >= o.fail_at, "outage recovers in the past");
    PIPETTE_ASSERT_MSG(o.replica < repl.replicas,
                       "outage for a replica the fleet does not have");
  }
}

MachineConfig FleetRunner::machine_config(std::size_t machine_id) const {
  const std::size_t group = machine_id / config_.replication.replicas;
  MachineConfig machine = config_.shard_machines.empty()
                              ? config_.machine
                              : config_.shard_machines[group];
  // Every machine's device draws from a private fault sub-stream; without
  // the split each device would replay the identical error trace. A
  // zero-rate plan never draws, so reseeding keeps fault-free runs
  // bit-identical.
  machine.ssd.faults.seed =
      Rng::split_seed(machine.ssd.faults.seed, machine_id);
  return machine;
}

namespace {

/// One leg of a quorum read, as the client saw it.
struct QuorumLeg {
  std::uint64_t index;
  SimDuration latency;
  std::uint32_t len;

  auto operator<=>(const QuorumLeg&) const = default;
};

/// The measured client reads one machine answered. Singleton serves are
/// recorded straight into the histogram; only quorum legs wait for the
/// cross-machine join.
struct ClientReads {
  LatencyHistogram latency;
  std::uint64_t served = 0;
  std::uint64_t bytes = 0;
  std::uint64_t penalty_ns = 0;  // failover detection latency charged
  std::vector<QuorumLeg> quorum_legs;
};

}  // namespace

FleetResult FleetRunner::run(const RunConfig& run, unsigned jobs) const {
  const auto host_t0 = std::chrono::steady_clock::now();
  const ReplicationConfig& repl = config_.replication;
  const FleetFaultPlan& faults = config_.faults;
  const std::size_t groups = config_.shards;
  const std::size_t replicas = repl.replicas;
  const std::size_t machines = groups * replicas;

  // Counting pre-pass: replay the master stream through a private router to
  // size every machine's warmup/measured phases, so each machine's phases
  // cut at the fleet-wide master-stream boundary. The same router also
  // yields the client-side tallies (attempted reads, failovers, quorum legs,
  // migration progress) — pure RNG/arithmetic work, no simulation. Plans
  // start from `run` with zeroed phase counts (not a braced zero) so
  // run-level options like the timeline config carry into every machine.
  RunConfig zero_plan = run;
  zero_plan.warmup = 0;
  zero_plan.requests = 0;
  std::vector<RunConfig> plans(machines, zero_plan);
  std::vector<std::uint64_t> down_requests(machines, 0);
  ReplicaCounters counters;
  std::uint64_t lost_writes = 0;
  {
    std::unique_ptr<Workload> master = make_workload_(seed_);
    PIPETTE_ASSERT_MSG(master != nullptr, "fleet workload factory failed");
    const Partitioner part(config_.partition, groups, master->files());
    ReplicaRouter router(repl, faults, part, seed_, run.warmup);
    std::vector<ReplicaAssignment> scratch;
    for (std::uint64_t i = 0; i < run.warmup + run.requests; ++i) {
      scratch.clear();
      router.route(i, master->next(), scratch);
      for (const ReplicaAssignment& a : scratch) {
        if (a.index < run.warmup) {
          ++plans[a.machine].warmup;
        } else {
          ++plans[a.machine].requests;
        }
      }
    }
    counters = router.counters();
    lost_writes = router.pending_catchup_writes();
    for (std::uint32_t m = 0; m < machines; ++m)
      down_requests[m] = router.down_requests(m);
  }

  std::vector<RunResult> machine_results(machines);
  std::vector<ClientReads> client_reads(machines);

  auto run_machine = [&](std::size_t m) {
    std::unique_ptr<Workload> master = make_workload_(seed_);
    PIPETTE_ASSERT_MSG(master != nullptr, "fleet workload factory failed");
    const Partitioner part(config_.partition, groups, master->files());
    ReplicaWorkload sub(std::move(master), repl, faults, part,
                        static_cast<std::uint32_t>(m), seed_, run.warmup);
    Machine machine(machine_config(m), sub.files());
    ClientReads& client = client_reads[m];

    // Issue a client read and, if it is measured and returned data, record
    // what the client saw. A successful read's path-recorded latency equals
    // the sim-time delta across the closed-loop issue, so the client view
    // reproduces path-recorded values bit-for-bit; a device-failed read
    // records nothing and the composition below charges it as a failure.
    auto issue_read = [&](const ReplicaAssignment& a,
                          const RunHooks::IssueFn& issue) {
      const SimTime t0 = machine.sim().now();
      const std::uint64_t failed0 = machine.path().stats().failed_reads;
      issue(a.req);
      if (a.index < run.warmup ||
          machine.path().stats().failed_reads != failed0)
        return;
      const SimDuration latency = machine.sim().now() - t0;
      if (a.role == ReplicaRole::kQuorumServe) {
        client.quorum_legs.push_back({a.index, latency, a.req.len});
        return;
      }
      if (a.role == ReplicaRole::kFailoverServe) {
        // The client burned the fail-fast detection latency before
        // re-issuing to the standby.
        client.latency.record(latency + faults.fail_fast_latency);
        client.penalty_ns +=
            static_cast<std::uint64_t>(faults.fail_fast_latency);
      } else {
        client.latency.record(latency);
      }
      ++client.served;
      client.bytes += a.req.len;
    };

    // Outage handling. A down copy only ever sees kReject/kDefer reads. The
    // first assignment at or past recovery cold-restarts the machine (host
    // caches come back empty) unless the outage was a kReroute drain; its
    // catch-up writes follow, then the parked deferrals replay — each after
    // its client's full backoff ladder — before any newer work.
    const ShardOutage* outage = faults.outage_for(m / replicas, m % replicas);
    const bool restarts = outage != nullptr && outage->active() &&
                          faults.policy != DownShardPolicy::kReroute;
    bool restarted = false;
    std::vector<ReplicaAssignment> parked;
    std::uint64_t backoff_retries = 0;
    RunHooks hooks;
    hooks.on_request = [&](const Request&, const RunHooks::IssueFn& issue) {
      const ReplicaAssignment& a = sub.last();
      if (restarts && !restarted && a.index >= outage->recover_at) {
        restarted = true;
        machine.cold_restart();
      }
      switch (a.role) {
        case ReplicaRole::kReject:
          machine.path().reject_read(faults.fail_fast_latency);
          return true;
        case ReplicaRole::kDefer:
          parked.push_back(a);
          return true;
        case ReplicaRole::kCatchupWrite:
          issue(a.req);
          return true;
        default:
          break;
      }
      for (const ReplicaAssignment& d : parked) {
        machine.sim().advance(faults.total_retry_backoff());
        if (d.index >= run.warmup) backoff_retries += faults.retry_attempts;
        issue_read(d, issue);
      }
      parked.clear();
      if (a.req.is_write || a.role == ReplicaRole::kShadowRead ||
          a.role == ReplicaRole::kWarmRead) {
        issue(a.req);
      } else {
        issue_read(a, issue);
      }
      return true;
    };
    RunResult result = run_experiment_on(machine, sub, plans[m], hooks);
    // Deferrals still parked when the stream ends (recovery lies beyond the
    // run) exhausted their backoff ladder without an answer: failures.
    for (const ReplicaAssignment& d : parked) {
      if (d.index < run.warmup) continue;
      backoff_retries += faults.retry_attempts;
      ++result.failed_reads;
    }
    result.retries += backoff_retries;
    result.down_requests = down_requests[m];
    machine_results[m] = std::move(result);
  };

  // Each machine writes only its own slots in machine_results and
  // client_reads, so which worker runs it never changes the result.
  parallel_for(machines, jobs, run_machine);

  // Client-side composition: serial, pure arithmetic. Singleton serves
  // merge bucket-wise; quorum legs are pooled, grouped by master index, and
  // the client completes on the k'-th fastest where k' = min(quorum_k, legs
  // that answered).
  LatencyHistogram client;
  std::uint64_t served = 0;
  std::uint64_t served_bytes = 0;
  std::uint64_t failover_penalty_ns = 0;
  std::vector<QuorumLeg> quorum_legs;
  for (const ClientReads& c : client_reads) {
    client.merge(c.latency);
    served += c.served;
    served_bytes += c.bytes;
    failover_penalty_ns += c.penalty_ns;
    quorum_legs.insert(quorum_legs.end(), c.quorum_legs.begin(),
                       c.quorum_legs.end());
  }
  std::sort(quorum_legs.begin(), quorum_legs.end());
  for (std::size_t i = 0; i < quorum_legs.size();) {
    std::size_t j = i;
    while (j < quorum_legs.size() &&
           quorum_legs[j].index == quorum_legs[i].index)
      ++j;
    const std::size_t kth = std::min<std::size_t>(repl.quorum_k, j - i);
    client.record(quorum_legs[i + kth - 1].latency);
    ++served;
    served_bytes += quorum_legs[i].len;
    i = j;
  }

  FleetResult out;
  out.shard_results = std::move(machine_results);
  out.requests = run.requests;  // the client's measured request count
  out.measured_reads = served;
  out.bytes_requested = served_bytes;
  out.failed_reads = counters.client_reads - served;
  out.down_requests = counters.down_requests;
  out.retries = counters.client_retries;
  // Normalize extremes to representative bucket values (diff against an
  // empty snapshot recomputes them from the buckets), exactly as every
  // machine's measured-phase histogram passes through diff(). Without this
  // a 1-machine fleet would match run_experiment in every bucket yet differ
  // on exact-vs-representative min/max.
  out.latency = client.diff(LatencyHistogram{});

  // Device-level sums over every machine: replication fan-out, shadow and
  // warm reads all count here, which is exactly the point — availability
  // costs device work, and these fields price it. Guards keep the merge
  // total for degenerate fleets: zero-request runs, machines that served
  // nothing (down the whole stream, or an empty partition slice).
  std::uint64_t device_requests = 0;
  out.min_shard_requests = ~0ull;
  for (std::size_t m = 0; m < out.shard_results.size(); ++m) {
    const RunResult& r = out.shard_results[m];
    device_requests += r.requests;
    out.traffic_bytes += r.traffic_bytes;
    out.events_executed += r.events_executed;
    out.retries += r.retries;
    out.degraded_reads += r.degraded_reads;
    out.makespan = std::max(out.makespan, r.elapsed);
    out.metrics.merge_add(r.metrics);
    merge_stage_latency(out.stage_latency, r.stage_latency);
    if (r.requests > out.max_shard_requests) {
      out.max_shard_requests = r.requests;
      out.hottest_shard = m;
    }
    out.min_shard_requests = std::min(out.min_shard_requests, r.requests);
  }
  // Percentile readouts only when the histogram has samples — a window (or
  // whole run) where every copy was down composes an empty histogram, and
  // the readouts must stay 0 rather than divide by zero.
  if (out.latency.count() > 0) {
    out.mean_latency_us = out.latency.mean_ns() / 1e3;
    out.p50_latency_us = to_us(out.latency.percentile(50));
    out.p99_latency_us = to_us(out.latency.percentile(99));
    out.p999_latency_us = to_us(out.latency.percentile(99.9));
  }
  out.mean_shard_requests = static_cast<double>(device_requests) /
                            static_cast<double>(machines);
  out.load_imbalance =
      out.mean_shard_requests == 0.0
          ? 0.0
          : static_cast<double>(out.max_shard_requests) /
                out.mean_shard_requests;
  out.hottest_shard_fgrc_hit_ratio =
      out.shard_results[out.hottest_shard].fgrc_hit_ratio;

  // Router-level counters join the merged machine registries under fleet.*
  // so one MetricsRegistry tells the whole availability story.
  out.metrics.set("fleet.machines", machines);
  out.metrics.set("fleet.replica_groups", groups);
  out.metrics.set("fleet.replicas_per_group", replicas);
  out.metrics.set("fleet.replica_client_reads", counters.client_reads);
  out.metrics.set("fleet.replica_served_reads", served);
  out.metrics.set("fleet.replica_unserved_reads", counters.unserved_reads);
  out.metrics.set("fleet.replica_failover_reads", counters.failover_reads);
  out.metrics.set("fleet.replica_failover_penalty_ns", failover_penalty_ns);
  out.metrics.set("fleet.replica_shadow_reads", counters.shadow_reads);
  out.metrics.set("fleet.replica_stale_reads", counters.stale_reads);
  out.metrics.set("fleet.replica_catchup_writes", counters.catchup_writes);
  out.metrics.set("fleet.replica_lost_writes", lost_writes);
  if (repl.read_policy == ReadPolicy::kQuorum) {
    out.metrics.set("fleet.replica_quorum_reads", counters.quorum_reads);
    out.metrics.set("fleet.replica_quorum_fanout", counters.quorum_fanout);
    out.metrics.set("fleet.replica_quorum_shortfall",
                    counters.quorum_shortfall);
  }
  if (repl.migration.active()) {
    out.metrics.set("fleet.migration_dual_reads", counters.dual_reads);
    out.metrics.set("fleet.migration_warm_reads", counters.warm_reads_done);
    out.metrics.set("fleet.migration_dual_writes", counters.dual_writes);
    out.metrics.set("fleet.migration_cut_over", counters.cut_over ? 1 : 0);
    out.metrics.set("fleet.migration_cutover_index", counters.cutover_index);
    out.metrics.set("fleet.migration_migrated_reads",
                    counters.migrated_reads);
  }

  out.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0)
          .count();
  return out;
}

}  // namespace pipette
