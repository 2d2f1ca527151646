// Tests for the fleet layer: determinism (repeated runs, serial vs
// parallel), 1-shard equivalence with run_experiment, sub-stream filtering,
// histogram-merge percentiles, partitioning behaviour under skew, and
// per-shard machine overrides.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/replica.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

// A small synthetic cell: 8 MiB file keeps runtimes in sim_test territory.
SeededWorkloadFactory synth_factory(char wl, Distribution dist) {
  return [wl, dist](std::uint64_t seed) -> std::unique_ptr<Workload> {
    SyntheticConfig sc = table1_workload(wl, dist, seed);
    sc.file_size = 8 * kMiB;
    return std::make_unique<SyntheticWorkload>(sc);
  };
}

FleetConfig small_fleet(std::size_t shards, PathKind kind) {
  FleetConfig fleet;
  fleet.shards = shards;
  fleet.machine = default_machine(kind);
  return fleet;
}

// Same seed => bit-identical FleetResult across repeated runs.
TEST(Fleet, RepeatedRunsAreBitIdentical) {
  FleetRunner runner(small_fleet(4, PathKind::kPipette),
                     synth_factory('C', Distribution::kUniform), 42);
  const FleetResult a = runner.run({1200, 600}, /*jobs=*/1);
  const FleetResult b = runner.run({1200, 600}, /*jobs=*/1);
  EXPECT_TRUE(deterministic_equal(a, b));
}

// The acceptance cell: a 4-shard fleet run with intra-fleet parallelism is
// bit-identical to the serial run, shard by shard and in every aggregate.
TEST(Fleet, JobsOneEqualsJobsFour) {
  FleetRunner runner(small_fleet(4, PathKind::kPipette),
                     synth_factory('C', Distribution::kUniform), 42);
  const FleetResult serial = runner.run({1600, 800}, /*jobs=*/1);
  const FleetResult parallel = runner.run({1600, 800}, /*jobs=*/4);
  ASSERT_EQ(serial.shard_results.size(), parallel.shard_results.size());
  for (std::size_t s = 0; s < serial.shard_results.size(); ++s) {
    EXPECT_EQ(serial.shard_results[s].Deterministic(),
              parallel.shard_results[s].Deterministic())
        << "shard " << s;
  }
  EXPECT_EQ(serial.Deterministic(), parallel.Deterministic());
  EXPECT_TRUE(deterministic_equal(serial, parallel));
}

// Non-divisor worker count: 5 shards on 3 workers, each shard taken by
// whichever worker is free, so workers run uneven and timing-dependent
// sets of shards — still bit-identical to the serial run.
TEST(Fleet, NonDivisorWorkerCountIsDeterministic) {
  FleetRunner runner(small_fleet(5, PathKind::kPipette),
                     synth_factory('C', Distribution::kZipf), 42);
  const FleetResult serial = runner.run({1500, 700}, /*jobs=*/1);
  const FleetResult three = runner.run({1500, 700}, /*jobs=*/3);
  EXPECT_TRUE(deterministic_equal(serial, three));
}

// A 1-shard fleet IS the single-machine experiment: every deterministic
// RunResult field matches run_experiment on the same config and workload,
// and the fleet aggregates collapse onto that one shard.
TEST(Fleet, OneShardFleetMatchesRunExperiment) {
  const RunConfig rc{2000, 1000};
  SyntheticConfig sc = table1_workload('C', Distribution::kUniform, 42);
  sc.file_size = 8 * kMiB;
  SyntheticWorkload w(sc);
  const RunResult direct =
      run_experiment(default_machine(PathKind::kPipette), w, rc);

  FleetRunner runner(small_fleet(1, PathKind::kPipette),
                     synth_factory('C', Distribution::kUniform), 42);
  const FleetResult fleet = runner.run(rc, /*jobs=*/1);

  ASSERT_EQ(fleet.shard_results.size(), 1u);
  EXPECT_EQ(direct.Deterministic(), fleet.shard_results[0].Deterministic());
  EXPECT_EQ(fleet.requests, direct.requests);
  EXPECT_EQ(fleet.measured_reads, direct.measured_reads);
  EXPECT_EQ(fleet.bytes_requested, direct.bytes_requested);
  EXPECT_EQ(fleet.traffic_bytes, direct.traffic_bytes);
  EXPECT_EQ(fleet.events_executed, direct.events_executed);
  EXPECT_EQ(fleet.makespan, direct.elapsed);
  EXPECT_EQ(fleet.latency, direct.read_latency);
  EXPECT_EQ(fleet.p50_latency_us, direct.p50_latency_us);
  EXPECT_EQ(fleet.p99_latency_us, direct.p99_latency_us);
  EXPECT_EQ(fleet.load_imbalance, 1.0);
}

// Partitioning changes who serves a request, never which requests exist:
// fleet-wide totals over the measured phase are invariant in the shard
// count.
TEST(Fleet, ShardCountPreservesFleetTotals) {
  const RunConfig rc{1500, 700};
  std::vector<FleetResult> results;
  for (std::size_t shards : {1u, 3u}) {
    FleetRunner runner(small_fleet(shards, PathKind::kBlockIo),
                       synth_factory('C', Distribution::kUniform), 42);
    results.push_back(runner.run(rc, /*jobs=*/1));
  }
  EXPECT_EQ(results[0].requests, rc.requests);
  EXPECT_EQ(results[1].requests, rc.requests);
  EXPECT_EQ(results[0].measured_reads, results[1].measured_reads);
  EXPECT_EQ(results[0].bytes_requested, results[1].bytes_requested);
  EXPECT_EQ(results[1].latency.count(), results[0].latency.count());
}

// The sub-stream contract, checked against a by-hand filter of the master
// stream: at R=1, machine s's workload yields exactly the master requests
// whose key maps to s, in master order, each tagged with its master index.
TEST(ShardWorkloadTest, FiltersTheMasterStreamInOrder) {
  constexpr std::size_t kShards = 3;
  constexpr int kDraws = 4000;
  SyntheticConfig sc = table1_workload('C', Distribution::kUniform, 7);
  sc.file_size = 4 * kMiB;

  SyntheticWorkload master(sc);
  const Partitioner part(PartitionScheme::kHash, kShards, master.files());
  std::vector<std::vector<Request>> expected(kShards);
  std::vector<std::vector<std::uint64_t>> expected_index(kShards);
  for (int i = 0; i < kDraws; ++i) {
    const Request req = master.next();
    expected[part.shard_of(req)].push_back(req);
    expected_index[part.shard_of(req)].push_back(i);
  }

  for (std::size_t s = 0; s < kShards; ++s) {
    ReplicaWorkload sub(std::make_unique<SyntheticWorkload>(sc),
                        ReplicationConfig{}, FleetFaultPlan{}, part,
                        static_cast<std::uint32_t>(s), /*seed=*/7,
                        /*warmup=*/0);
    for (std::size_t i = 0; i < expected[s].size(); ++i) {
      const Request got = sub.next();
      const Request& want = expected[s][i];
      ASSERT_EQ(got.file_index, want.file_index) << "shard " << s;
      ASSERT_EQ(got.offset, want.offset) << "shard " << s << " draw " << i;
      ASSERT_EQ(got.len, want.len);
      ASSERT_EQ(got.is_write, want.is_write);
      ASSERT_EQ(sub.last().index, expected_index[s][i]) << "shard " << s;
      ASSERT_EQ(sub.last().machine, s);
      ASSERT_EQ(sub.last().role, ReplicaRole::kServe);
    }
  }
}

// Histogram merge returns true percentiles of the union: merging per-shard
// histograms equals the histogram of the concatenated samples, bucket for
// bucket — so p50/p99 of a fleet are the percentiles of all requests, not
// an average of per-shard percentile readouts.
TEST(FleetHistogramMerge, EqualsHistogramOfConcatenatedSamples) {
  const std::vector<std::vector<SimDuration>> per_shard = {
      {100, 250, 250, 900, 1200, 88000},
      {90, 95, 260, 270, 300, 310, 150000, 151000},
      {40 * 1000, 41 * 1000, 42 * 1000, 43 * 1000},
  };

  LatencyHistogram merged;
  LatencyHistogram concatenated;
  for (const auto& samples : per_shard) {
    LatencyHistogram shard;
    for (SimDuration d : samples) {
      shard.record(d);
      concatenated.record(d);
    }
    merged.merge(shard);
  }

  EXPECT_EQ(merged, concatenated);
  for (double p : {50.0, 90.0, 99.0, 100.0})
    EXPECT_EQ(merged.percentile(p), concatenated.percentile(p)) << "p" << p;
  EXPECT_EQ(merged.count(), 18u);
  // The merged p99 lives in the hot shard's tail, far above every other
  // shard's p99 — the failure mode percentile-averaging would hide.
  EXPECT_GE(merged.percentile(99), 150000u * 95 / 100);
}

// The paper's zipf construction clusters the hot head at the start of the
// file, so range partitioning concentrates load on shard 0 while hash
// partitioning spreads it.
TEST(Fleet, RangePartitioningConcentratesZipfHead) {
  const RunConfig rc{2000, 1000};
  FleetConfig hash_fleet = small_fleet(4, PathKind::kBlockIo);
  FleetConfig range_fleet = hash_fleet;
  range_fleet.partition = PartitionScheme::kRange;

  const auto factory = synth_factory('E', Distribution::kZipf);
  const FleetResult hashed =
      FleetRunner(hash_fleet, factory, 42).run(rc, /*jobs=*/1);
  const FleetResult ranged =
      FleetRunner(range_fleet, factory, 42).run(rc, /*jobs=*/1);

  EXPECT_GT(ranged.load_imbalance, hashed.load_imbalance);
  EXPECT_EQ(ranged.hottest_shard, 0u);
  EXPECT_GT(ranged.max_shard_requests, rc.requests / 2);  // hot head
}

// Heterogeneous fleets: per-shard MachineConfig overrides are honoured.
TEST(Fleet, PerShardMachineOverrides) {
  FleetConfig fleet = small_fleet(3, PathKind::kPipette);
  fleet.shard_machines = {default_machine(PathKind::kPipette),
                          default_machine(PathKind::kBlockIo),
                          default_machine(PathKind::kPipette)};
  FleetRunner runner(fleet, synth_factory('E', Distribution::kZipf), 42);
  const FleetResult r = runner.run({2000, 1000}, /*jobs=*/1);
  ASSERT_EQ(r.shard_results.size(), 3u);
  EXPECT_EQ(r.shard_results[0].path_name, "Pipette");
  EXPECT_EQ(r.shard_results[1].path_name, "Block I/O");
  EXPECT_EQ(r.shard_results[2].path_name, "Pipette");
  EXPECT_GT(r.shard_results[0].fgrc_hit_ratio, 0.0);
  EXPECT_EQ(r.shard_results[1].fgrc_hit_ratio, 0.0);
}

}  // namespace
}  // namespace pipette
