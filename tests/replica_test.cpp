// Tests for the replica/rebalancing layer: R=1 read-policy identity with
// the plain sharded fleet, jobs-1 == jobs-N under failover, policy semantics
// (primary-only cliff, warm-standby failover, quorum first-k-of-R), the
// down-shard policies at R=2, shadow reads, catch-up writes + the
// stale-read == 0 invariant, and live resharding with dual-read cutover.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/replica.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

constexpr std::uint64_t kSeed = 42;

SeededWorkloadFactory synth_factory(char wl, Distribution dist,
                                    double write_ratio = 0.0) {
  return [wl, dist, write_ratio](std::uint64_t seed)
             -> std::unique_ptr<Workload> {
    SyntheticConfig sc = table1_workload(wl, dist, seed);
    sc.file_size = 8 * kMiB;
    sc.write_ratio = write_ratio;
    return std::make_unique<SyntheticWorkload>(sc);
  };
}

FleetConfig replica_fleet(std::size_t groups, std::size_t replicas,
                          ReadPolicy policy,
                          PathKind kind = PathKind::kPipette) {
  FleetConfig fleet;
  fleet.shards = groups;
  fleet.machine = default_machine(kind);
  fleet.replication.replicas = replicas;
  fleet.replication.read_policy = policy;
  return fleet;
}

std::uint64_t metric(const FleetResult& r, const char* name) {
  return r.metrics.value(name);
}

// With one copy per group and no faults, kFailover has nothing to fail over
// to, so it must reproduce the plain sharded fleet (R=1 kPrimaryOnly,
// pinned by the golden fleet fixture) exactly: same per-machine
// simulations, same composed aggregates.
TEST(Replica, DegenerateReplicaPathMatchesLegacyFleet) {
  const RunConfig rc{1200, 600};
  FleetConfig legacy_cfg = replica_fleet(3, 1, ReadPolicy::kPrimaryOnly);
  FleetRunner legacy(legacy_cfg, synth_factory('C', Distribution::kZipf, 0.2),
                     kSeed);
  FleetConfig repl_cfg = replica_fleet(3, 1, ReadPolicy::kFailover);
  FleetRunner replicated(repl_cfg,
                         synth_factory('C', Distribution::kZipf, 0.2), kSeed);

  const FleetResult a = legacy.run(rc, /*jobs=*/1);
  const FleetResult b = replicated.run(rc, /*jobs=*/1);

  ASSERT_EQ(a.shard_results.size(), b.shard_results.size());
  for (std::size_t s = 0; s < a.shard_results.size(); ++s) {
    EXPECT_EQ(a.shard_results[s].Deterministic(),
              b.shard_results[s].Deterministic())
        << "machine " << s;
  }
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.measured_reads, b.measured_reads);
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.traffic_bytes, b.traffic_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failed_reads, b.failed_reads);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.down_requests, b.down_requests);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.p50_latency_us, b.p50_latency_us);
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us);
  EXPECT_EQ(a.p999_latency_us, b.p999_latency_us);
  EXPECT_EQ(a.max_shard_requests, b.max_shard_requests);
  EXPECT_EQ(a.min_shard_requests, b.min_shard_requests);
  EXPECT_EQ(a.mean_shard_requests, b.mean_shard_requests);
  EXPECT_EQ(a.load_imbalance, b.load_imbalance);
  EXPECT_EQ(a.hottest_shard, b.hottest_shard);
  EXPECT_EQ(metric(b, "fleet.replica_stale_reads"), 0u);
}

// The headline failover property: losing the primary of a group mid-run
// with R=2 kFailover keeps every read served (availability == 1, zero
// failed reads), the standby absorbing the window with per-read detection
// latency + one client retry each.
TEST(Replica, PrimaryOutageFailsOverWithoutFailedReads) {
  FleetConfig fleet = replica_fleet(3, 2, ReadPolicy::kFailover);
  fleet.faults.outages = {
      {/*shard=*/0, /*fail_at=*/900, /*recover_at=*/1500, /*replica=*/0}};
  FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf), kSeed);
  const FleetResult r = runner.run({1200, 600}, /*jobs=*/1);

  EXPECT_EQ(r.failed_reads, 0u);
  EXPECT_DOUBLE_EQ(r.availability(), 1.0);
  EXPECT_EQ(r.measured_reads, 1200u);
  EXPECT_GT(r.down_requests, 0u);
  EXPECT_GT(metric(r, "fleet.replica_failover_reads"), 0u);
  EXPECT_EQ(metric(r, "fleet.replica_failover_reads"), r.down_requests);
  // One client retry per failover serve (plus any NAND retry passes).
  EXPECT_GE(r.retries, metric(r, "fleet.replica_failover_reads"));
  EXPECT_EQ(metric(r, "fleet.replica_unserved_reads"), 0u);
  EXPECT_EQ(metric(r, "fleet.replica_stale_reads"), 0u);
  // The standby (machine 1) actually served client traffic in the window.
  EXPECT_GT(r.shard_results[1].requests, 0u);
}

// Same outage under kPrimaryOnly: the standby never serves, so the window
// is the R=1-style availability cliff — exactly what bench/fleet_failover
// contrasts against kFailover/kQuorum.
TEST(Replica, PrimaryOnlyShowsTheAvailabilityCliff) {
  FleetConfig fleet = replica_fleet(3, 2, ReadPolicy::kPrimaryOnly);
  fleet.faults.outages = {
      {/*shard=*/0, /*fail_at=*/900, /*recover_at=*/1500, /*replica=*/0}};
  FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf), kSeed);
  const FleetResult r = runner.run({1200, 600}, /*jobs=*/1);

  EXPECT_GT(r.failed_reads, 0u);
  EXPECT_LT(r.availability(), 1.0);
  EXPECT_EQ(r.failed_reads, metric(r, "fleet.replica_unserved_reads"));
  EXPECT_EQ(r.failed_reads, r.down_requests);
  // With no shadow reads and a read-only stream the standby serves nothing.
  EXPECT_EQ(r.shard_results[1].requests, 0u);
  EXPECT_EQ(metric(r, "fleet.replica_failover_reads"), 0u);
}

// Quorum fan-out: every up replica serves every read of its group; the
// client completes on the k-th fastest. Losing one of three replicas keeps
// quorum (k=2) with no shortfall and no detection penalty.
TEST(Replica, QuorumToleratesReplicaLossWithoutDetectionPenalty) {
  FleetConfig fleet = replica_fleet(2, 3, ReadPolicy::kQuorum);
  fleet.replication.quorum_k = 2;
  fleet.faults.outages = {
      {/*shard=*/0, /*fail_at=*/900, /*recover_at=*/1500, /*replica=*/0}};
  FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf), kSeed);
  const FleetResult r = runner.run({1200, 600}, /*jobs=*/1);

  EXPECT_EQ(r.failed_reads, 0u);
  EXPECT_DOUBLE_EQ(r.availability(), 1.0);
  EXPECT_EQ(metric(r, "fleet.replica_quorum_reads"), 1200u);
  EXPECT_EQ(metric(r, "fleet.replica_quorum_shortfall"), 0u);
  EXPECT_EQ(metric(r, "fleet.replica_failover_penalty_ns"), 0u);
  // Fan-out: 3 legs per read normally, 2 for group-0 reads in the window.
  const std::uint64_t fanout = metric(r, "fleet.replica_quorum_fanout");
  EXPECT_LT(fanout, 3 * 1200u);
  EXPECT_EQ(3 * 1200u - fanout, r.down_requests);
}

// jobs-1 == jobs-N under failover, quorum and shadow reads: the router is a
// pure function of (config, seed), so the worker count can never leak into
// results. This is the replica-world acceptance determinism gate.
TEST(Replica, JobsOneEqualsJobsFourUnderFailoverAndQuorum) {
  for (ReadPolicy policy : {ReadPolicy::kFailover, ReadPolicy::kQuorum}) {
    FleetConfig fleet = replica_fleet(3, 2, policy);
    fleet.replication.quorum_k = 2;
    fleet.replication.shadow_read_fraction = 0.25;
    fleet.faults.outages = {
        {/*shard=*/1, /*fail_at=*/800, /*recover_at=*/1400, /*replica=*/0}};
    FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf, 0.1),
                       kSeed);
    const FleetResult serial = runner.run({1200, 600}, /*jobs=*/1);
    const FleetResult parallel = runner.run({1200, 600}, /*jobs=*/4);
    EXPECT_TRUE(deterministic_equal(serial, parallel))
        << "policy " << to_string(policy);
  }
}

// One engine at every R: the down-shard policies keep their R=1 meaning
// when a whole replica group goes dark. Both copies of group 0 are down for
// a window under a 10% write mix; writes buffer on the down copies and
// catch up at rejoin, so no read is ever stale and no write is lost.
TEST(Replica, DownShardPoliciesHoldAtEveryReplicationFactor) {
  const RunConfig rc{1200, 600};  // measured master indices [600, 1800)
  for (DownShardPolicy policy :
       {DownShardPolicy::kFailFast, DownShardPolicy::kRetryBackoff,
        DownShardPolicy::kReroute}) {
    SCOPED_TRACE(to_string(policy));
    FleetConfig fleet = replica_fleet(3, 2, ReadPolicy::kFailover);
    fleet.faults.policy = policy;
    fleet.faults.outages = {
        {/*shard=*/0, /*fail_at=*/900, /*recover_at=*/1300, /*replica=*/0},
        {/*shard=*/0, /*fail_at=*/900, /*recover_at=*/1300, /*replica=*/1}};
    FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf, 0.1),
                       kSeed);
    const FleetResult r = runner.run(rc, /*jobs=*/1);

    EXPECT_GT(r.down_requests, 0u);
    if (policy == DownShardPolicy::kFailFast) {
      // Every read of the dark group is rejected, and by its primary.
      EXPECT_EQ(r.failed_reads, r.down_requests);
      EXPECT_EQ(r.shard_results[0].failed_reads, r.down_requests);
      EXPECT_EQ(r.shard_results[0].down_requests, r.down_requests);
      for (std::size_t m = 1; m < r.shard_results.size(); ++m)
        EXPECT_EQ(r.shard_results[m].failed_reads, 0u) << "machine " << m;
    } else if (policy == DownShardPolicy::kRetryBackoff) {
      // Recovery lands inside the run: every parked read replays, each
      // charged its client's full backoff ladder.
      EXPECT_EQ(r.failed_reads, 0u);
      EXPECT_EQ(r.retries, r.down_requests * fleet.faults.retry_attempts);
    } else {
      // A reroute is a routing drain: served elsewhere, no detection stall.
      EXPECT_EQ(r.failed_reads, 0u);
      EXPECT_EQ(metric(r, "fleet.replica_failover_penalty_ns"), 0u);
      EXPECT_GT(metric(r, "fleet.replica_failover_reads"), 0u);
    }
    EXPECT_GT(metric(r, "fleet.replica_catchup_writes"), 0u);
    EXPECT_EQ(metric(r, "fleet.replica_stale_reads"), 0u);
    EXPECT_EQ(metric(r, "fleet.replica_lost_writes"), 0u);
    EXPECT_TRUE(deterministic_equal(r, runner.run(rc, /*jobs=*/4)));
  }
}

// Shadow reads are invisible to clients: turning them on warms the standby
// (it now serves device traffic) without changing a single client-visible
// bit — same composed latency histogram, same aggregates.
TEST(Replica, ShadowReadsWarmStandbysWithoutTouchingClients) {
  const RunConfig rc{1200, 600};
  FleetConfig off = replica_fleet(2, 2, ReadPolicy::kFailover);
  FleetConfig on = off;
  on.replication.shadow_read_fraction = 0.5;
  const auto factory = synth_factory('C', Distribution::kZipf);
  const FleetResult a = FleetRunner(off, factory, kSeed).run(rc, 1);
  const FleetResult b = FleetRunner(on, factory, kSeed).run(rc, 1);

  EXPECT_GT(metric(b, "fleet.replica_shadow_reads"), 0u);
  EXPECT_GT(b.shard_results[1].requests, 0u);  // the standby worked
  EXPECT_EQ(a.shard_results[1].requests, 0u);
  EXPECT_EQ(a.latency, b.latency);  // client distribution bit-identical
  EXPECT_EQ(a.measured_reads, b.measured_reads);
  EXPECT_EQ(a.makespan, b.makespan);
}

// A standby that dies misses the writes replicated to its group; at
// recovery the router replays them (catch-up writes) right after the cold
// restart, and no client read ever lands on the stale copy: the stale-read
// counter stays zero by construction, and lost writes stay zero because
// recovery happens inside the run.
TEST(Replica, CatchupWritesReplayMissedWritesAndStaleStaysZero) {
  FleetConfig fleet = replica_fleet(2, 2, ReadPolicy::kFailover);
  fleet.faults.outages = {
      {/*shard=*/0, /*fail_at=*/700, /*recover_at=*/1200, /*replica=*/1}};
  FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf, 0.3),
                     kSeed);
  const FleetResult r = runner.run({1200, 600}, /*jobs=*/1);

  EXPECT_GT(metric(r, "fleet.replica_catchup_writes"), 0u);
  EXPECT_EQ(metric(r, "fleet.replica_lost_writes"), 0u);
  EXPECT_EQ(metric(r, "fleet.replica_stale_reads"), 0u);
  // The primary never died: clients saw full availability throughout.
  EXPECT_EQ(r.failed_reads, 0u);
  EXPECT_DOUBLE_EQ(r.availability(), 1.0);
}

// If recovery never arrives, the buffered writes are lost — counted, not
// silently dropped.
TEST(Replica, WritesMissedForeverAreCountedAsLost) {
  FleetConfig fleet = replica_fleet(2, 2, ReadPolicy::kFailover);
  fleet.faults.outages = {{/*shard=*/0, /*fail_at=*/700,
                           /*recover_at=*/1'000'000, /*replica=*/1}};
  FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf, 0.3),
                     kSeed);
  const FleetResult r = runner.run({1200, 600}, /*jobs=*/1);

  EXPECT_GT(metric(r, "fleet.replica_lost_writes"), 0u);
  EXPECT_EQ(metric(r, "fleet.replica_catchup_writes"), 0u);
  EXPECT_EQ(metric(r, "fleet.replica_stale_reads"), 0u);
}

// Live resharding: the zipf-hot head range migrates mid-measurement. The
// old owner serves every dual read (no availability dip), the target warms
// through kWarmRead traffic, and after the watermark the range cuts over
// and the target serves it — deterministically at any jobs count.
TEST(Replica, MigrationCutsOverDeterministicallyWithoutAvailabilityDip) {
  FleetConfig fleet = replica_fleet(3, 1, ReadPolicy::kFailover);
  fleet.partition = PartitionScheme::kRange;
  MigrationPlan& mig = fleet.replication.migration;
  mig.target = 2;
  mig.key_lo = 0;
  mig.key_hi = 1 * kMiB;  // the zipf head: hottest slice of the keyspace
  mig.start_at = 900;     // mid-measured
  mig.warm_reads = 100;
  FleetRunner runner(fleet, synth_factory('C', Distribution::kZipf, 0.1),
                     kSeed);
  const FleetResult serial = runner.run({1200, 600}, /*jobs=*/1);
  const FleetResult parallel = runner.run({1200, 600}, /*jobs=*/3);
  EXPECT_TRUE(deterministic_equal(serial, parallel));

  EXPECT_EQ(metric(serial, "fleet.migration_cut_over"), 1u);
  EXPECT_GE(metric(serial, "fleet.migration_dual_reads"), 100u);
  EXPECT_GT(metric(serial, "fleet.migration_warm_reads"), 0u);
  EXPECT_GT(metric(serial, "fleet.migration_cutover_index"), 900u);
  EXPECT_GT(metric(serial, "fleet.migration_migrated_reads"), 0u);
  EXPECT_GT(metric(serial, "fleet.migration_dual_writes"), 0u);
  EXPECT_EQ(metric(serial, "fleet.replica_stale_reads"), 0u);
  EXPECT_EQ(serial.failed_reads, 0u);
  EXPECT_DOUBLE_EQ(serial.availability(), 1.0);
  EXPECT_EQ(serial.measured_reads, metric(serial, "fleet.replica_client_reads"));
}

// Every copy of a group down in one window: reads in the window are
// unserved and counted (fail-fast), or rerouted cross-group when the fleet
// policy says so — never silently served by a dead machine.
TEST(Replica, WholeGroupDownWindowFailsCleanlyOrReroutes) {
  FleetConfig fleet = replica_fleet(2, 2, ReadPolicy::kFailover);
  fleet.faults.outages = {
      {/*shard=*/0, /*fail_at=*/900, /*recover_at=*/1300, /*replica=*/0},
      {/*shard=*/0, /*fail_at=*/900, /*recover_at=*/1300, /*replica=*/1}};
  FleetRunner fail_fast(fleet, synth_factory('C', Distribution::kZipf),
                        kSeed);
  const FleetResult a = fail_fast.run({1200, 600}, /*jobs=*/1);
  EXPECT_GT(a.failed_reads, 0u);
  EXPECT_LT(a.availability(), 1.0);
  EXPECT_EQ(a.failed_reads, a.metrics.value("fleet.replica_unserved_reads"));
  EXPECT_GT(a.p99_latency_us, 0.0);  // merge still total, nothing divided by 0

  fleet.faults.policy = DownShardPolicy::kReroute;
  FleetRunner reroute(fleet, synth_factory('C', Distribution::kZipf), kSeed);
  const FleetResult b = reroute.run({1200, 600}, /*jobs=*/1);
  EXPECT_EQ(b.failed_reads, 0u);
  EXPECT_DOUBLE_EQ(b.availability(), 1.0);
  EXPECT_GT(b.metrics.value("fleet.replica_failover_reads"), 0u);
}

}  // namespace
}  // namespace pipette
