// Tests for the deterministic fault-injection framework: zero-rate plans
// are bit-identical to fault-free runs, nonzero rates reproduce exactly,
// NAND terminal failures and HMB faults surface as failed/degraded reads,
// the timeout guard unsticks lost completions, cold restart drops host
// caches, and the fleet's shard-outage policies stay deterministic at any
// job count.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "fleet/fleet.h"
#include "fleet/replica.h"
#include "nand/nand.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

// Small synthetic cells (8 MiB file) keep every run in unit-test territory.
SyntheticConfig small_synth(char wl, std::uint64_t seed = 42) {
  SyntheticConfig sc = table1_workload(wl, Distribution::kUniform, seed);
  sc.file_size = 8 * kMiB;
  return sc;
}

SeededWorkloadFactory synth_factory(char wl) {
  return [wl](std::uint64_t seed) -> std::unique_ptr<Workload> {
    return std::make_unique<SyntheticWorkload>(small_synth(wl, seed));
  };
}

RunResult run_cell(const MachineConfig& config, const RunConfig& rc) {
  SyntheticWorkload w(small_synth('C'));
  return run_experiment(config, w, rc);
}

// --- Zero-rate identity -------------------------------------------------

// A zero-rate plan draws no randomness and schedules no extra events, so
// the injector seed cannot matter: runs with wildly different fault seeds
// are bit-identical on every path kind. (The checked-in golden fixture pins
// the same property against pre-fault-framework history.)
TEST(FaultPlan, ZeroRateSeedIsInert) {
  const RunConfig rc{400, 200};
  for (PathKind kind : kAllPaths) {
    MachineConfig base = default_machine(kind);
    MachineConfig reseeded = base;
    reseeded.ssd.faults.seed = 0xdecafbadull;
    EXPECT_EQ(run_cell(base, rc).Deterministic(),
              run_cell(reseeded, rc).Deterministic())
        << to_string(kind);
  }
}

// --- Device-fault behaviour, single machine -----------------------------

MachineConfig faulty_machine(PathKind kind, double rate) {
  MachineConfig m = default_machine(kind);
  m.ssd.faults.nand.read_error_rate = rate;
  m.ssd.faults.hmb.dma_fault_rate = rate;
  m.ssd.faults.hmb.drop_rate = rate / 10;
  return m;
}

TEST(DeviceFaults, NonzeroRatesReproduceBitForBit) {
  const RunConfig rc{500, 250};
  const MachineConfig m = faulty_machine(PathKind::kPipette, 1e-2);
  EXPECT_EQ(run_cell(m, rc).Deterministic(), run_cell(m, rc).Deterministic());
}

TEST(DeviceFaults, NandRetriesAndTerminalFailuresSurface) {
  MachineConfig m = default_machine(PathKind::kBlockIo);
  m.ssd.faults.nand.read_error_rate = 0.5;  // terminal failure: 1/16 reads
  const RunResult r = run_cell(m, {600, 300});
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.failed_reads, 0u);
  EXPECT_LT(r.availability(), 1.0);
  EXPECT_GT(r.availability(), 0.5);
  // Failed reads are not counted as served.
  EXPECT_EQ(r.measured_reads + r.failed_reads, 600u);
}

// Frames of block reads that failed with a media error go back to the page
// cache's pool: once the device is idle (read-ahead retired), the frames
// held are exactly the resident pages, and the pool never grew past the
// cache's capacity.
TEST(DeviceFaults, FailedBlockReadsReturnTheirFrames) {
  const MachineConfig m = faulty_machine(PathKind::kBlockIo, 0.5);
  Machine machine(m, SyntheticWorkload(small_synth('C')).files());
  SyntheticWorkload w(small_synth('C'));
  const RunResult r = run_experiment_on(machine, w, {600, 300});
  EXPECT_GT(r.failed_reads, 0u);
  EXPECT_GT(machine.ssd().stats().media_errors, 0u);
  machine.sim().run_all();
  const PageCache& pc = *machine.page_cache();
  EXPECT_GT(pc.resident_pages(), 0u);
  EXPECT_EQ(pc.frames_held(), pc.resident_pages());
  EXPECT_LE(machine.page_cache()->frames().frames_allocated(),
            pc.capacity_pages());
}

TEST(DeviceFaults, HmbFaultDegradesPipetteToBlockPath) {
  MachineConfig m = default_machine(PathKind::kPipette);
  m.ssd.faults.hmb.dma_fault_rate = 1.0;  // every FG_READ aborts in the HMB
  Machine machine(m, SyntheticWorkload(small_synth('C')).files());
  SyntheticWorkload w(small_synth('C'));
  const RunResult r = run_experiment_on(machine, w, {400, 200});
  // Every device-reaching fine read degrades; none fail outright, so the
  // path still serves 100% of requests.
  EXPECT_GT(r.degraded_reads, 0u);
  EXPECT_EQ(r.failed_reads, 0u);
  EXPECT_EQ(r.measured_reads, 400u);
  EXPECT_EQ(r.availability(), 1.0);
  EXPECT_GT(machine.pipette_path()->pipette_stats().hmb_fault_fallbacks, 0u);
  EXPECT_TRUE(machine.pipette_path()->fgrc().index_consistent());
}

TEST(DeviceFaults, DegradedReadReturnsTheWrittenBytes) {
  MachineConfig m = default_machine(PathKind::kPipette);
  m.ssd.faults.hmb.dma_fault_rate = 1.0;
  const std::vector<FileSpec> files{{"f", 1 * kMiB, 0, 0}};
  Machine machine(m, files);
  const int fd = machine.vfs().open("f", machine.open_flags(true));

  std::vector<std::uint8_t> wrote(64);
  for (std::size_t i = 0; i < wrote.size(); ++i)
    wrote[i] = static_cast<std::uint8_t>(0xA0 + i);
  machine.vfs().pwrite(fd, 4096 + 128, {wrote.data(), wrote.size()});
  // Flush + drop host caches so the read must go to the device and take the
  // (always-faulting) fine-grained path before degrading to block I/O.
  machine.cold_restart();

  std::vector<std::uint8_t> got(wrote.size(), 0);
  machine.vfs().pread(fd, 4096 + 128, {got.data(), got.size()});
  EXPECT_EQ(std::memcmp(got.data(), wrote.data(), wrote.size()), 0);
  EXPECT_GT(machine.pipette_path()->pipette_stats().hmb_fault_fallbacks, 0u);
}

TEST(DeviceFaults, TimeoutGuardUnsticksLostCompletions) {
  MachineConfig m = default_machine(PathKind::kPipette);
  m.ssd.faults.hmb.drop_rate = 1.0;  // every FG_READ completion is lost
  Machine machine(m, SyntheticWorkload(small_synth('E')).files());
  SyntheticWorkload w(small_synth('E'));  // all-small: everything goes fine
  // The test completing at all proves the guard: without it the first
  // dropped completion would spin run_until_condition forever.
  const RunResult r = run_experiment_on(machine, w, {50, 20});
  EXPECT_GT(machine.pipette_path()->pipette_stats().lost_completions, 0u);
  EXPECT_GT(r.failed_reads, 0u);
  EXPECT_TRUE(machine.pipette_path()->fgrc().index_consistent());
  // Each lost completion charges the full guard window of simulated time.
  EXPECT_GE(r.elapsed, m.ssd.faults.hmb.timeout);
}

TEST(DeviceFaults, PoisonedFillsKeepFgrcConsistent) {
  MachineConfig m = default_machine(PathKind::kPipette);
  m.ssd.faults.nand.read_error_rate = 0.5;
  Machine machine(m, SyntheticWorkload(small_synth('C')).files());
  SyntheticWorkload w(small_synth('C'));
  (void)run_experiment_on(machine, w, {600, 300});
  EXPECT_GT(machine.pipette_path()->fgrc().stats().aborted_fills, 0u);
  EXPECT_TRUE(machine.pipette_path()->fgrc().index_consistent());
}

TEST(DeviceFaults, FaultPathsStayAllocationFree) {
  MachineConfig m = faulty_machine(PathKind::kPipette, 5e-2);
  Machine machine(m, SyntheticWorkload(small_synth('C')).files());
  SyntheticWorkload w(small_synth('C'));
  const std::uint64_t heap0 = inline_function_heap_allocations();
  (void)run_experiment_on(machine, w, {400, 200});
  EXPECT_EQ(inline_function_heap_allocations() - heap0, 0u)
      << "a fault-path closure outgrew the InlineFunction inline buffer";
}

// --- Wear-correlated media errors ---------------------------------------

// NandArray level: erases on one die raise that die's per-pass read error
// probability; an untouched die with a zero flat rate draws nothing at all.
TEST(WearFaults, ErasedDieRetriesMoreThanPristineDie) {
  NandGeometry g;
  g.channels = 4;
  g.ways_per_channel = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 4;
  g.pages_per_block = 16;
  Simulator sim;
  NandFaultPlan plan;
  plan.wear_error_per_erase = 2e-3;  // 40 erases -> 8% per sensing pass
  NandArray nand(sim, g, NandTiming{}, plan);

  for (int i = 0; i < 40; ++i) nand.note_erase(0);
  EXPECT_EQ(nand.erase_count(0), 40u);
  EXPECT_EQ(nand.erase_count(1), 0u);

  // Equal read traffic on the worn die ({ch0, way0}) and a pristine one
  // ({ch0, way1}): only the worn die's wear term can fire.
  for (std::uint64_t i = 0; i < 400; ++i) {
    nand.read_page({0, 0, i % 64}, [] {});
    nand.read_page({0, 1, i % 64}, [] {});
  }
  sim.run_all();
  EXPECT_EQ(nand.reads_on_die(0), 400u);
  EXPECT_EQ(nand.reads_on_die(1), 400u);
  EXPECT_GT(nand.retries_on_die(0), 0u);
  EXPECT_EQ(nand.retries_on_die(1), 0u);
  EXPECT_GT(nand.retries_on_die(0), nand.retries_on_die(1));
}

// A GC-heavy machine whose FTL erases feed the wear model: retries appear
// under a nonzero wear rate and reproduce bit for bit; the zero-rate twin
// is wear-free however the burst knobs and the injector seed are set.
MachineConfig wear_machine(double wear_rate) {
  MachineConfig m = default_machine(PathKind::kPipette);
  // Tiny drive at 50% utilisation so a short write-heavy run reaches GC:
  // 4ch x 2way x 1pl x 8blk x 16pg = 1024 pages (4 MiB).
  m.ssd.geometry.channels = 4;
  m.ssd.geometry.ways_per_channel = 2;
  m.ssd.geometry.planes_per_die = 1;
  m.ssd.geometry.blocks_per_plane = 8;
  m.ssd.geometry.pages_per_block = 16;
  m.ssd.lba_count = 512;
  m.ssd.read_buffer_bytes = 2 * kMiB;
  m.page_cache_bytes = 256 * 1024;  // reads must reach the device
  m.pipette.fine_writes = true;
  m.mapping_unit = 512;
  m.ssd.faults.nand.wear_error_per_erase = wear_rate;
  return m;
}

RunResult run_wear_cell(const MachineConfig& m, const RunConfig& rc) {
  SyntheticConfig sc;
  sc.file_size = (512 - 64) * 4096;  // the FS reserves 64 metadata LBAs
  sc.small_ratio = 1.0;
  sc.small_size = 512;
  sc.write_ratio = 0.5;
  sc.seed = 42;
  SyntheticWorkload w(sc);
  return run_experiment(m, w, rc);
}

TEST(WearFaults, GcErasesInjectRetriesAndReproduce) {
  const RunConfig rc{3000, 3000};
  const MachineConfig worn = wear_machine(2e-2);
  const RunResult r = run_wear_cell(worn, rc);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.Deterministic(), run_wear_cell(worn, rc).Deterministic());

  // Same machine, wear disabled: the identical run with zero retries.
  const RunResult clean = run_wear_cell(wear_machine(0.0), rc);
  EXPECT_EQ(clean.retries, 0u);
}

TEST(WearFaults, ZeroWearRateSeedAndBurstKnobsAreInert) {
  const RunConfig rc{1500, 1500};
  const MachineConfig base = wear_machine(0.0);
  MachineConfig tweaked = base;
  tweaked.ssd.faults.seed = 0xdecafbadull;
  tweaked.ssd.faults.nand.wear_burst_boost = 99.0;
  tweaked.ssd.faults.nand.wear_burst_reads = 1u << 20;
  EXPECT_EQ(run_wear_cell(base, rc).Deterministic(),
            run_wear_cell(tweaked, rc).Deterministic());
}

// --- Cold restart -------------------------------------------------------

TEST(ColdRestart, DropsHostCachesAndKeepsServing) {
  Machine machine(default_machine(PathKind::kPipette),
                  SyntheticWorkload(small_synth('C')).files());
  SyntheticWorkload w(small_synth('C'));
  (void)run_experiment_on(machine, w, {300, 300});
  EXPECT_GT(machine.pipette_path()->fgrc().memory_bytes(), 0u);
  EXPECT_GT(machine.page_cache()->resident_bytes(), 0u);

  machine.cold_restart();
  EXPECT_EQ(machine.pipette_path()->fgrc().memory_bytes(), 0u);
  EXPECT_EQ(machine.page_cache()->resident_bytes(), 0u);
  EXPECT_TRUE(machine.pipette_path()->fgrc().index_consistent());

  const RunResult after = run_experiment_on(machine, w, {300, 0});
  EXPECT_EQ(after.measured_reads, 300u);
  EXPECT_EQ(after.failed_reads, 0u);
}

// --- Fleet outages ------------------------------------------------------

FleetConfig faulty_fleet(std::size_t shards, PathKind kind) {
  FleetConfig fleet;
  fleet.shards = shards;
  fleet.machine = default_machine(kind);
  return fleet;
}

// Synthetic workloads are all-read, so measured down-shard requests map
// 1:1 onto rejected reads under fail-fast and onto replayed (or failed)
// reads under retry-backoff — which the assertions below exploit.

TEST(FleetFaults, FailFastRejectsExactlyTheDownWindow) {
  FleetConfig fleet = faulty_fleet(3, PathKind::kBlockIo);
  fleet.faults.outages = {{/*shard=*/1, /*fail_at=*/500, /*recover_at=*/800}};
  fleet.faults.policy = DownShardPolicy::kFailFast;
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const RunConfig rc{900, 400};  // measured master indices [400, 1300)
  const FleetResult serial = runner.run(rc, /*jobs=*/1);

  EXPECT_GT(serial.down_requests, 0u);
  EXPECT_EQ(serial.failed_reads, serial.down_requests);
  EXPECT_EQ(serial.measured_reads + serial.failed_reads, rc.requests);
  EXPECT_LT(serial.availability(), 1.0);
  EXPECT_EQ(serial.shard_results[1].down_requests, serial.down_requests);
  EXPECT_EQ(serial.shard_results[0].down_requests, 0u);

  const FleetResult parallel = runner.run(rc, /*jobs=*/3);
  EXPECT_TRUE(deterministic_equal(serial, parallel));
}

TEST(FleetFaults, RetryBackoffReplaysEverythingAfterRecovery) {
  FleetConfig fleet = faulty_fleet(3, PathKind::kPipette);
  fleet.faults.outages = {{/*shard=*/1, /*fail_at=*/500, /*recover_at=*/800}};
  fleet.faults.policy = DownShardPolicy::kRetryBackoff;
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const RunConfig rc{900, 400};
  const FleetResult serial = runner.run(rc, /*jobs=*/1);

  // Recovery lands mid-run: every deferred request is replayed against the
  // cold-restarted shard, each charged its client's full backoff ladder.
  EXPECT_GT(serial.down_requests, 0u);
  EXPECT_EQ(serial.failed_reads, 0u);
  EXPECT_EQ(serial.measured_reads, rc.requests);
  EXPECT_EQ(serial.availability(), 1.0);
  EXPECT_EQ(serial.retries,
            serial.down_requests * fleet.faults.retry_attempts);

  const FleetResult parallel = runner.run(rc, /*jobs=*/3);
  EXPECT_TRUE(deterministic_equal(serial, parallel));
}

TEST(FleetFaults, RetryBackoffFailsDeferralsWhenRecoveryNeverComes) {
  FleetConfig fleet = faulty_fleet(3, PathKind::kBlockIo);
  // Down from mid-measurement to far beyond the stream's end.
  fleet.faults.outages = {{1, 700, 1u << 20}};
  fleet.faults.policy = DownShardPolicy::kRetryBackoff;
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const FleetResult r = runner.run({900, 400}, /*jobs=*/1);
  EXPECT_GT(r.down_requests, 0u);
  EXPECT_EQ(r.failed_reads, r.down_requests);
  EXPECT_EQ(r.retries, r.down_requests * fleet.faults.retry_attempts);
  EXPECT_LT(r.availability(), 1.0);
}

TEST(FleetFaults, RerouteServesTheFullStreamElsewhere) {
  FleetConfig fleet = faulty_fleet(3, PathKind::kBlockIo);
  fleet.faults.outages = {{1, 500, 800}};
  fleet.faults.policy = DownShardPolicy::kReroute;
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const RunConfig rc{900, 400};
  const FleetResult rerouted = runner.run(rc, /*jobs=*/1);

  EXPECT_GT(rerouted.down_requests, 0u);
  EXPECT_EQ(rerouted.failed_reads, 0u);
  EXPECT_EQ(rerouted.measured_reads, rc.requests);
  EXPECT_EQ(rerouted.availability(), 1.0);

  // Same master stream, so the fleet-wide request count is untouched; the
  // failover targets absorb what the down shard would have served.
  FleetConfig healthy = faulty_fleet(3, PathKind::kBlockIo);
  const FleetResult baseline =
      FleetRunner(healthy, synth_factory('C'), 42).run(rc, /*jobs=*/1);
  EXPECT_EQ(rerouted.requests, baseline.requests);
  EXPECT_LT(rerouted.shard_results[1].requests,
            baseline.shard_results[1].requests);

  const FleetResult parallel = runner.run(rc, /*jobs=*/3);
  EXPECT_TRUE(deterministic_equal(rerouted, parallel));
}

TEST(FleetFaults, DeviceFaultsAreDeterministicAcrossJobCounts) {
  FleetConfig fleet = faulty_fleet(4, PathKind::kPipette);
  fleet.machine = faulty_machine(PathKind::kPipette, 1e-2);
  fleet.faults.outages = {{2, 600, 900}};
  fleet.faults.policy = DownShardPolicy::kRetryBackoff;
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const FleetResult serial = runner.run({1200, 600}, /*jobs=*/1);
  const FleetResult parallel = runner.run({1200, 600}, /*jobs=*/4);
  EXPECT_TRUE(deterministic_equal(serial, parallel));
  // Each shard's device splits the fault seed, so error traces differ.
  EXPECT_GT(serial.retries, 0u);
}

TEST(FleetFaults, ZeroRequestRunMergesClean) {
  FleetRunner runner(faulty_fleet(3, PathKind::kBlockIo), synth_factory('C'),
                     42);
  const FleetResult r = runner.run({0, 0}, /*jobs=*/1);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.availability(), 1.0);
  EXPECT_EQ(r.load_imbalance, 0.0);
  EXPECT_EQ(r.min_shard_requests, 0u);
  EXPECT_EQ(r.mean_latency_us, 0.0);
}

// --- Reroute ring (ReplicaRouter at R=1) --------------------------------

// Routes one read whose key `owner` owns (range partitioner, middle of the
// owner's slice) through a fresh R=1 router at master index `index`, and
// returns the single assignment it makes. A read-only probe leaves no
// router state behind, so one fresh router per probe is exact.
ReplicaAssignment route_read(const FleetFaultPlan& faults, std::size_t shards,
                             std::size_t owner, std::uint64_t index) {
  SyntheticWorkload w(small_synth('C'));
  const Partitioner part(PartitionScheme::kRange, shards, w.files());
  Request req = w.next();
  req.is_write = false;
  req.file_index = 0;
  req.offset = part.keyspace() * (2 * owner + 1) / (2 * shards);
  EXPECT_EQ(part.shard_of(req), owner);
  ReplicaRouter router(ReplicationConfig{}, faults, part, /*seed=*/42,
                       /*warmup=*/0);
  std::vector<ReplicaAssignment> out;
  router.route(index, req, out);
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? ReplicaAssignment{} : out.front();
}

std::uint32_t reroute_target(const FleetFaultPlan& faults, std::size_t shards,
                             std::size_t owner, std::uint64_t index) {
  const ReplicaAssignment a = route_read(faults, shards, owner, index);
  EXPECT_EQ(a.role, ReplicaRole::kServe);
  return a.machine;
}

// The pre-pass and every machine's stream filter route through identical
// routers and must agree bit-for-bit; these pin the R=1 reroute table.
TEST(EffectiveShard, RingOrderSkipsDownShardsUnderReroute) {
  FleetFaultPlan faults;
  faults.policy = DownShardPolicy::kReroute;
  faults.outages = {{/*shard=*/1, /*fail_at=*/100, /*recover_at=*/200},
                    {/*shard=*/2, /*fail_at=*/100, /*recover_at=*/200}};
  // Outside the window: everyone serves their own keys.
  EXPECT_EQ(reroute_target(faults, 5, 1, 99), 1u);
  EXPECT_EQ(reroute_target(faults, 5, 1, 200), 1u);
  // Inside: shard 1's traffic skips the also-down shard 2 and lands on 3.
  EXPECT_EQ(reroute_target(faults, 5, 1, 100), 3u);
  EXPECT_EQ(reroute_target(faults, 5, 2, 150), 3u);
  // Up shards keep their own traffic regardless of the window.
  EXPECT_EQ(reroute_target(faults, 5, 0, 150), 0u);
  EXPECT_EQ(reroute_target(faults, 5, 4, 150), 4u);
}

TEST(EffectiveShard, WrapsTheRingAndHandlesWholeFleetDown) {
  FleetFaultPlan faults;
  faults.policy = DownShardPolicy::kReroute;
  faults.outages = {{/*shard=*/2, /*fail_at=*/0, /*recover_at=*/100},
                    {/*shard=*/0, /*fail_at=*/0, /*recover_at=*/100}};
  // Shard 2's ring walk wraps past the down shard 0 to reach shard 1.
  EXPECT_EQ(reroute_target(faults, 3, 2, 50), 1u);
  // Whole fleet down: nobody can take the read, so the owner rejects it
  // rather than silently serving it.
  faults.outages.push_back({/*shard=*/1, /*fail_at=*/0, /*recover_at=*/100});
  const ReplicaAssignment a = route_read(faults, 3, 2, 50);
  EXPECT_EQ(a.machine, 2u);
  EXPECT_EQ(a.role, ReplicaRole::kReject);
}

TEST(EffectiveShard, NonRerouteMakesItTheIdentity) {
  for (DownShardPolicy policy :
       {DownShardPolicy::kFailFast, DownShardPolicy::kRetryBackoff}) {
    FleetFaultPlan faults;
    faults.policy = policy;
    faults.outages = {{/*shard=*/1, /*fail_at=*/0, /*recover_at=*/100}};
    const ReplicaAssignment a = route_read(faults, 4, 1, 50);
    EXPECT_EQ(a.machine, 1u) << to_string(policy);
    EXPECT_EQ(a.role, policy == DownShardPolicy::kFailFast
                          ? ReplicaRole::kReject
                          : ReplicaRole::kDefer)
        << to_string(policy);
  }
}

// --- Every-shard-down windows ------------------------------------------

// A window where every shard is down must surface as failed reads and a
// merge that stays finite — never a div-by-zero, never a silently served
// request.
TEST(FleetFaults, AllShardsDownWindowFailsFastAndMergesClean) {
  FleetConfig fleet = faulty_fleet(3, PathKind::kBlockIo);
  fleet.faults.policy = DownShardPolicy::kFailFast;
  for (std::size_t s = 0; s < 3; ++s)
    fleet.faults.outages.push_back({s, 600, 900});
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const RunConfig rc{900, 400};
  const FleetResult serial = runner.run(rc, /*jobs=*/1);

  EXPECT_GT(serial.failed_reads, 0u);
  EXPECT_EQ(serial.failed_reads, serial.down_requests);
  EXPECT_EQ(serial.measured_reads + serial.failed_reads, rc.requests);
  EXPECT_LT(serial.availability(), 1.0);
  EXPECT_GT(serial.p99_latency_us, 0.0);  // served reads still have stats
  const FleetResult parallel = runner.run(rc, /*jobs=*/3);
  EXPECT_TRUE(deterministic_equal(serial, parallel));
}

// Reroute with nowhere to go: the router finds no ring target and the
// owner rejects the read fail-fast (kReject) instead of letting the down
// shard serve it into a healthy-looking histogram.
TEST(FleetFaults, RerouteWithNowhereToGoFailsInsteadOfServing) {
  FleetConfig fleet = faulty_fleet(3, PathKind::kBlockIo);
  fleet.faults.policy = DownShardPolicy::kReroute;
  for (std::size_t s = 0; s < 3; ++s)
    fleet.faults.outages.push_back({s, 600, 900});
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const RunConfig rc{900, 400};
  const FleetResult r = runner.run(rc, /*jobs=*/1);

  EXPECT_GT(r.failed_reads, 0u);
  EXPECT_LT(r.availability(), 1.0);
  EXPECT_EQ(r.measured_reads + r.failed_reads, rc.requests);
  const FleetResult parallel = runner.run(rc, /*jobs=*/3);
  EXPECT_TRUE(deterministic_equal(r, parallel));
}

// The degenerate extreme: the whole fleet is down for the whole stream.
// Zero reads served, availability 0, every percentile readout 0 — and no
// crash anywhere in the merge.
TEST(FleetFaults, WholeFleetDownWholeRunMergesToZeros) {
  FleetConfig fleet = faulty_fleet(2, PathKind::kBlockIo);
  fleet.faults.policy = DownShardPolicy::kFailFast;
  fleet.faults.outages = {{0, 0, 1u << 20}, {1, 0, 1u << 20}};
  FleetRunner runner(fleet, synth_factory('C'), 42);
  const FleetResult r = runner.run({600, 300}, /*jobs=*/1);

  EXPECT_EQ(r.measured_reads, 0u);
  EXPECT_EQ(r.failed_reads, 600u);
  EXPECT_EQ(r.availability(), 0.0);
  EXPECT_EQ(r.latency.count(), 0u);
  EXPECT_EQ(r.mean_latency_us, 0.0);
  EXPECT_EQ(r.p50_latency_us, 0.0);
  EXPECT_EQ(r.p99_latency_us, 0.0);
  EXPECT_EQ(r.p999_latency_us, 0.0);
}

// Reroute composed with a range partitioner and a non-divisor shard count:
// the hot low-key slice belongs to shard 0; while it is down the ring
// sends its traffic to shard 1, and the pre-pass (which sizes phases with
// the same router) agrees with the filters at any job count.
TEST(FleetFaults, RerouteWithRangePartitionerAndNonDivisorShards) {
  FleetConfig fleet = faulty_fleet(5, PathKind::kBlockIo);
  fleet.partition = PartitionScheme::kRange;
  fleet.faults.policy = DownShardPolicy::kReroute;
  fleet.faults.outages = {{/*shard=*/0, /*fail_at=*/500, /*recover_at=*/900}};
  auto zipf_factory = [](std::uint64_t seed) -> std::unique_ptr<Workload> {
    SyntheticConfig sc = table1_workload('C', Distribution::kZipf, seed);
    sc.file_size = 8 * kMiB;
    return std::make_unique<SyntheticWorkload>(sc);
  };
  FleetRunner runner(fleet, zipf_factory, 42);
  const RunConfig rc{900, 400};
  const FleetResult r = runner.run(rc, /*jobs=*/1);

  EXPECT_EQ(r.failed_reads, 0u);
  EXPECT_EQ(r.measured_reads, rc.requests);
  EXPECT_GT(r.down_requests, 0u);
  // The ring neighbour absorbed the zipf head during the window.
  FleetConfig healthy = fleet;
  healthy.faults.outages.clear();
  const FleetResult base = FleetRunner(healthy, zipf_factory, 42).run(rc, 1);
  EXPECT_GT(r.shard_results[1].requests, base.shard_results[1].requests);
  EXPECT_LT(r.shard_results[0].requests, base.shard_results[0].requests);
  const FleetResult parallel = runner.run(rc, /*jobs=*/4);
  EXPECT_TRUE(deterministic_equal(r, parallel));
}

}  // namespace
}  // namespace pipette
