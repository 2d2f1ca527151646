// Fleet failover: what replica groups buy when a primary dies mid-run.
//
// A 4-group zipf fleet (Table 1 'C', hash partitioner) loses the primary of
// group 0 for the middle half of the measured window. The matrix contrasts:
//
//  * R=1 baseline   — no faults; the plain sharded fleet, for reference tails.
//  * R=1 cliff      — the same outage with nobody to fail over to: the
//    window's reads are unserved and availability falls off a cliff
//    (~ group share x window share below 1).
//  * R=2 failover   — a warm standby (25% shadow reads) absorbs the window:
//    availability recovers to 1.0 at the price of a per-read detection
//    penalty + client retry, visible as a bounded p999 bump.
//  * R=3 quorum k=2 — every read fans out to all up copies and completes on
//    the 2nd-fastest: the outage costs no detection latency at all, tails
//    stay flat through the window.
//  * R=2 reshard    — failover config plus a live migration of the zipf
//    head to another group mid-measurement: dual reads warm the target
//    until the watermark, then the range cuts over. The timeline sampler
//    on the target's primary shows the warm/dual write traffic arriving.
//
// What to look for: the cliff cell's availability column vs everything
// else, and p999 staying within a small multiple of the baseline for R>=2
// while R=1 simply drops the reads. fleet.replica_stale_reads is asserted 0
// in every cell — a recovering copy is never read before catch-up.
//
// --selfcheck asserts those acceptance properties (R>=2 availability >=
// 99.9%, bounded p999, the R=1 cliff, migration cutover, zero stale reads,
// jobs-1 == jobs-N determinism) and exits nonzero on violation. --json
// writes the BENCH_fleet.json-style summary.
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/fleet.h"

using namespace pipette;
using namespace pipette::bench;

namespace {

struct FailoverCell {
  const char* name;
  std::size_t replicas;
  ReadPolicy policy;
  bool outage;
  bool migrate;
  FleetResult result;
};

constexpr std::size_t kGroups = 4;

void write_failover_json(const BenchArgs& args, const Scale& scale,
                         const std::vector<FailoverCell>& cells) {
  if (args.json_path.empty()) return;
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "fleet_failover");
  w.kv("jobs", args.jobs);
  w.kv("groups", kGroups);
  w.kv("requests", scale.requests);
  w.key("cells");
  w.begin_array();
  for (const FailoverCell& c : cells) {
    w.begin_object();
    w.kv("cell", c.name);
    w.kv("replicas", c.replicas);
    w.kv("policy", to_string(c.policy));
    w.kv("outage", c.outage);
    w.kv("availability", c.result.availability(), 6);
    w.kv("failed_reads", c.result.failed_reads);
    w.kv("p50_us", c.result.p50_latency_us, 6);
    w.kv("p99_us", c.result.p99_latency_us, 6);
    w.kv("p999_us", c.result.p999_latency_us, 6);
    w.kv("machines", c.result.shard_results.size());
    w.kv("host_seconds", c.result.host_seconds, 6);
    w.kv("events_executed", c.result.events_executed);
    json_metrics(w, "metrics", c.result.metrics);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(args.json_path);
}

}  // namespace

int main(int argc, char** argv) {
  bool selfcheck = false;
  const BenchArgs args = BenchArgs::parse(
      argc, argv,
      [&](const char* flag, const BenchArgs::ValueFn&) {
        if (std::strcmp(flag, "--selfcheck") == 0) {
          selfcheck = true;
          return true;
        }
        return false;
      },
      "  --selfcheck  assert the failover acceptance properties (R>=2\n"
      "               availability >= 99.9%, bounded p999 vs the R=1\n"
      "               cliff, migration cutover, zero stale reads,\n"
      "               jobs-1 == jobs-N) and exit nonzero on violation\n");
  // Replica cells multiply device work by R, so the default scale is
  // lighter than the single-machine benches'; --quick and --requests
  // rescale as usual.
  Scale scale = Scale::from_args(args);
  if (!args.quick && args.requests == 0) scale = {200'000, 100'000};
  print_header("Fleet failover — Table 1 'C' zipf, replica groups", scale);
  std::printf("(groups: %zu, hash partitioner; outage: group 0 primary down "
              "for the middle half of the measured window)\n\n",
              kGroups);

  // The outage window, on the master-stream clock: the middle half of the
  // measured phase.
  const std::uint64_t fail_at = scale.warmup + scale.requests / 4;
  const std::uint64_t recover_at = scale.warmup + 3 * scale.requests / 4;

  auto make_runner = [&](std::size_t replicas, ReadPolicy policy, bool outage,
                         bool migrate) {
    FleetConfig fleet;
    fleet.shards = kGroups;
    fleet.machine = default_machine_for(args, PathKind::kPipette);
    fleet.replication.replicas = replicas;
    fleet.replication.read_policy = policy;
    if (policy == ReadPolicy::kQuorum) fleet.replication.quorum_k = 2;
    if (replicas > 1 && policy == ReadPolicy::kFailover)
      fleet.replication.shadow_read_fraction = 0.25;
    if (outage) fleet.faults.outages = {{/*shard=*/0, fail_at, recover_at,
                                         /*replica=*/0}};
    if (migrate) {
      // Move the zipf head (the hottest 1/16th of the keyspace) off its
      // hash-assigned groups onto group 3, starting mid-measurement.
      MigrationPlan& mig = fleet.replication.migration;
      mig.target = 3;
      mig.key_lo = 0;
      mig.key_hi = 4 * kMiB;
      mig.start_at = scale.warmup + scale.requests / 4;
      mig.warm_reads = 256;
    }
    return FleetRunner(
        fleet,
        [](std::uint64_t s) -> std::unique_ptr<Workload> {
          return std::make_unique<SyntheticWorkload>(
              table1_workload('C', Distribution::kZipf, s));
        },
        args.seed);
  };

  std::vector<FailoverCell> cells = {
      {"R=1 baseline", 1, ReadPolicy::kPrimaryOnly, false, false, {}},
      {"R=1 cliff", 1, ReadPolicy::kPrimaryOnly, true, false, {}},
      {"R=2 failover", 2, ReadPolicy::kFailover, true, false, {}},
      {"R=3 quorum k=2", 3, ReadPolicy::kQuorum, true, false, {}},
      {"R=2 reshard", 2, ReadPolicy::kFailover, true, true, {}},
  };
  RunConfig rc = scale.run();
  for (FailoverCell& c : cells) {
    RunConfig cell_rc = rc;
    if (c.migrate) cell_rc.timeline.interval = 20 * kMs;
    FleetRunner runner = make_runner(c.replicas, c.policy, c.outage,
                                     c.migrate);
    c.result = runner.run(cell_rc, args.jobs);
    std::fprintf(stderr,
                 "  %-16s done (avail %.4f, p999 %.2f us, %.1fs host)\n",
                 c.name, c.result.availability(), c.result.p999_latency_us,
                 c.result.host_seconds);
  }

  Table t({"Cell", "Machines", "Avail", "p50 us", "p99 us", "p999 us",
           "Failover", "Unserved", "Stale"});
  for (const FailoverCell& c : cells) {
    const FleetResult& r = c.result;
    t.add_row({c.name, std::to_string(r.shard_results.size()),
               Table::fmt(r.availability(), 4),
               Table::fmt(r.p50_latency_us, 2), Table::fmt(r.p99_latency_us, 2),
               Table::fmt(r.p999_latency_us, 2),
               std::to_string(r.metrics.value("fleet.replica_failover_reads")),
               // Reads the fleet failed to serve. Outages here are
               // fail-fast, so absent device faults this equals
               // fleet.replica_unserved_reads: the primary's kReject reads.
               std::to_string(r.failed_reads),
               std::to_string(r.metrics.value("fleet.replica_stale_reads"))});
  }
  emit(t, args);

  // Migration visibility: the target group's primary sees the warm/dual
  // traffic arrive in its sim-time series (reads and — via dual writes —
  // writes both climb after the migration starts).
  {
    const FleetResult& reshard = cells[4].result;
    const std::size_t target_primary = 3 * cells[4].replicas;  // group 3
    const auto& timeline = reshard.shard_results[target_primary].timeline;
    std::printf("\n-- R=2 reshard: migration target (group 3 primary) "
                "timeline --\n");
    std::printf("cutover at master index %llu (dual reads %llu, warm reads "
                "%llu, dual writes %llu)\n",
                static_cast<unsigned long long>(
                    reshard.metrics.value("fleet.migration_cutover_index")),
                static_cast<unsigned long long>(
                    reshard.metrics.value("fleet.migration_dual_reads")),
                static_cast<unsigned long long>(
                    reshard.metrics.value("fleet.migration_warm_reads")),
                static_cast<unsigned long long>(
                    reshard.metrics.value("fleet.migration_dual_writes")));
    if (!timeline.empty()) {
      const TimeSample& last = timeline.back();
      std::printf("%zu samples; final: %llu reads, %llu writes on the "
                  "target\n",
                  timeline.size(),
                  static_cast<unsigned long long>(last.reads),
                  static_cast<unsigned long long>(last.writes));
    }
  }

  write_failover_json(args, scale, cells);

  if (selfcheck) {
    bool ok = true;
    auto fail = [&](const char* msg) {
      std::fprintf(stderr, "pipette: selfcheck: %s\n", msg);
      ok = false;
    };
    const FleetResult& baseline = cells[0].result;
    const FleetResult& cliff = cells[1].result;
    const FleetResult& failover = cells[2].result;
    const FleetResult& quorum = cells[3].result;
    const FleetResult& reshard = cells[4].result;

    // (a) R=1 really is a cliff: the outage window's reads are lost.
    if (cliff.availability() >= 0.999) fail("R=1 outage shows no cliff");
    if (cliff.failed_reads == 0) fail("R=1 outage dropped no reads");
    // (b) R=2 failover holds the availability target.
    if (failover.availability() < 0.999)
      fail("R=2 failover availability below 99.9%");
    if (failover.failed_reads != 0) fail("R=2 failover failed reads");
    if (failover.metrics.value("fleet.replica_failover_reads") == 0)
      fail("R=2 failover cell never failed over");
    // (c) The failover tail is bounded: p999 within a small multiple of
    // the healthy baseline (the cliff, by contrast, *drops* its window).
    if (baseline.p999_latency_us > 0.0 &&
        failover.p999_latency_us > 20.0 * baseline.p999_latency_us)
      fail("R=2 failover p999 unbounded vs baseline");
    // (d) Quorum sails through the outage without detection penalty.
    if (quorum.availability() != 1.0) fail("R=3 quorum availability < 1");
    if (quorum.metrics.value("fleet.replica_quorum_shortfall") != 0)
      fail("R=3 quorum fell below k");
    if (quorum.metrics.value("fleet.replica_failover_penalty_ns") != 0)
      fail("R=3 quorum paid detection latency");
    // (e) The migration cut over and never served a stale read.
    if (reshard.metrics.value("fleet.migration_cut_over") != 1)
      fail("reshard cell never cut over");
    if (reshard.metrics.value("fleet.migration_migrated_reads") == 0)
      fail("reshard cell served nothing post-cutover");
    // (f) The stale-read invariant holds in every cell.
    for (const FailoverCell& c : cells) {
      if (c.result.metrics.value("fleet.replica_stale_reads") != 0)
        fail("stale reads observed");
    }
    // (g) Worker count never leaks into results.
    {
      RunConfig check_rc = rc;
      check_rc.timeline.interval = 20 * kMs;
      FleetRunner runner = make_runner(2, ReadPolicy::kFailover, true, true);
      const FleetResult serial = runner.run(check_rc, /*jobs=*/1);
      const FleetResult parallel = runner.run(check_rc, /*jobs=*/0);
      if (!deterministic_equal(serial, parallel))
        fail("jobs-1 != jobs-N under failover + migration");
      if (!deterministic_equal(serial, reshard))
        fail("reshard cell not reproducible");
    }
    if (!ok) return 1;
    std::printf("\nselfcheck: all failover acceptance properties hold\n");
  }
  return 0;
}
