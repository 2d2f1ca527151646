// Observability layer tests: the tracer must observe without perturbing
// (tracing on/off is bit-identical, at any fleet job count), exports must
// parse, and the metrics registry must merge deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/table.h"
#include "fleet/fleet.h"
#include "obs/chrome_trace.h"
#include "obs/timeline.h"
#include "obs/util.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr RunConfig kRun{/*requests=*/8'000, /*warmup=*/2'000};

SyntheticWorkload make_workload() {
  SyntheticConfig sc = table1_workload('C', Distribution::kUniform, kSeed);
  sc.file_size = 32 * kMiB;
  return SyntheticWorkload(sc);
}

RunResult run_cell(PathKind kind, bool traced,
                   const RunConfig& run = kRun) {
  MachineConfig config = default_machine(kind);
  config.trace.enabled = traced;
  SyntheticWorkload workload = make_workload();
  return run_experiment(config, workload, run);
}

// The tentpole guarantee: the tracer only reads timestamps the simulation
// already computed, so enabling it changes no deterministic field — same
// events, same RNG draws, same latencies, same metrics registry.
TEST(Tracing, OnOffBitIdentical) {
  for (PathKind kind : kAllPaths) {
    const RunResult off = run_cell(kind, /*traced=*/false);
    const RunResult on = run_cell(kind, /*traced=*/true);
    EXPECT_EQ(off.Deterministic(), on.Deterministic())
        << "tracing perturbed " << to_string(kind);

    // The traced run actually observed something...
    std::uint64_t spans = 0;
    for (const LatencyHistogram& h : on.stage_latency) spans += h.count();
    EXPECT_GT(spans, 0u) << to_string(kind);
    EXPECT_FALSE(on.trace_spans.empty()) << to_string(kind);
    // ...and the untraced one paid nothing for not observing.
    EXPECT_TRUE(off.stage_latency.empty());
    EXPECT_TRUE(off.trace_spans.empty());
  }
}

TEST(Tracing, EveryRequestTraced) {
  const RunResult r = run_cell(PathKind::kPipette, /*traced=*/true);
  // host_submit opens every read and write, warmup included.
  const auto submit = static_cast<std::size_t>(Stage::kHostSubmit);
  ASSERT_LT(submit, r.stage_latency.size());
  EXPECT_EQ(r.stage_latency[submit].count(), kRun.requests);
}

TEST(Tracing, RespectsMaxSpans) {
  MachineConfig config = default_machine(PathKind::kBlockIo);
  config.trace.enabled = true;
  config.trace.max_spans = 64;
  SyntheticWorkload workload = make_workload();
  const RunResult r = run_experiment(config, workload, kRun);
  EXPECT_LE(r.trace_spans.size(), 64u);
  // Histograms keep counting past the span cap.
  std::uint64_t spans = 0;
  for (const LatencyHistogram& h : r.stage_latency) spans += h.count();
  EXPECT_GT(spans, 64u);
}

TEST(Fleet, TracedFleetDeterministicAcrossJobs) {
  auto run_fleet = [](bool traced, unsigned jobs) {
    FleetConfig fleet;
    fleet.shards = 4;
    fleet.machine = default_machine(PathKind::kPipette);
    fleet.machine.trace.enabled = traced;
    FleetRunner runner(
        fleet,
        [](std::uint64_t s) -> std::unique_ptr<Workload> {
          SyntheticConfig sc = table1_workload('C', Distribution::kUniform, s);
          sc.file_size = 32 * kMiB;
          return std::make_unique<SyntheticWorkload>(sc);
        },
        kSeed);
    return runner.run(kRun, jobs);
  };
  const FleetResult off = run_fleet(false, 1);
  const FleetResult on_serial = run_fleet(true, 1);
  const FleetResult on_parallel = run_fleet(true, 4);
  EXPECT_TRUE(deterministic_equal(off, on_serial));
  EXPECT_TRUE(deterministic_equal(on_serial, on_parallel));

  // Cross-shard decomposition merged bucket-wise: stage counts are the sums
  // of the per-shard counts.
  ASSERT_FALSE(on_serial.stage_latency.empty());
  const auto submit = static_cast<std::size_t>(Stage::kHostSubmit);
  std::uint64_t per_shard = 0;
  for (const RunResult& r : on_serial.shard_results)
    per_shard += r.stage_latency[submit].count();
  EXPECT_EQ(on_serial.stage_latency[submit].count(), per_shard);
  EXPECT_TRUE(off.stage_latency.empty());
}

TEST(ChromeTrace, ExportsValidJson) {
  RunResult r = run_cell(PathKind::kPipette, /*traced=*/true);
  ASSERT_FALSE(r.trace_spans.empty());
  std::vector<ShardTrace> shards;
  shards.push_back({"Pipette", std::move(r.trace_spans)});
  const std::string doc = chrome_trace_json(shards);
  EXPECT_TRUE(json_valid(doc)) << doc.substr(0, 200);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  // Every stage that emitted a span has a named track.
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("host/fgrc_lookup"), std::string::npos);
}

TEST(ChromeTrace, EmptyInputIsValid) {
  EXPECT_TRUE(json_valid(chrome_trace_json({})));
}

TEST(Timeline, SamplesMeasuredPhase) {
  MachineConfig config = default_machine(PathKind::kPipette);
  RunConfig run = kRun;
  run.timeline.interval = 100'000;  // 0.1 ms sim time
  SyntheticWorkload workload = make_workload();
  const RunResult r = run_experiment(config, workload, run);
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_LE(r.timeline.size(), run.timeline.max_samples);
  for (std::size_t i = 1; i < r.timeline.size(); ++i) {
    EXPECT_GT(r.timeline[i].t, r.timeline[i - 1].t);
    EXPECT_GE(r.timeline[i].reads, r.timeline[i - 1].reads);
    EXPECT_GE(r.timeline[i].traffic_bytes, r.timeline[i - 1].traffic_bytes);
  }
  EXPECT_LE(r.timeline.back().reads, r.measured_reads);

  // Sampling, like tracing, must not perturb the simulation.
  const RunResult plain = run_cell(PathKind::kPipette, /*traced=*/false);
  EXPECT_EQ(plain.Deterministic(), r.Deterministic());
  EXPECT_TRUE(plain.timeline.empty());
}

TEST(Metrics, RegistryBasics) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.value("nope"), 0u);
  m.set("a.gauge", 7);
  m.add("a.counter", 3);
  m.add("a.counter", 4);
  EXPECT_EQ(m.value("a.gauge"), 7u);
  EXPECT_EQ(m.value("a.counter"), 7u);
  EXPECT_TRUE(m.contains("a.gauge"));
  EXPECT_FALSE(m.contains("a"));

  MetricsRegistry other;
  other.set("a.counter", 10);
  other.set("b.only", 1);
  m.merge_add(other);
  EXPECT_EQ(m.value("a.counter"), 17u);
  EXPECT_EQ(m.value("b.only"), 1u);
  EXPECT_EQ(m.size(), 3u);

  // std::map iteration order = deterministic export order.
  std::string prev;
  for (const auto& [k, v] : m.values()) {
    EXPECT_LT(prev, k);
    prev = k;
  }
}

// The merge rule satellites: plain counters sum across shards, but any
// metric named `*_peak` / `*.peak` is a high-water gauge and must take the
// max — summing peaks across shards would fabricate a depth no shard saw.
TEST(Metrics, PeakGaugesMaxMergeOthersSum) {
  MetricsRegistry mine;
  mine.set("queue.nand_die.depth_peak", 7);
  mine.set("ring.peak", 2);
  mine.set("reads.count", 3);
  MetricsRegistry theirs;
  theirs.set("queue.nand_die.depth_peak", 5);
  theirs.set("ring.peak", 9);
  theirs.set("reads.count", 4);
  theirs.set("peak.reads", 11);  // "peak" not a suffix: still a counter
  mine.merge_add(theirs);
  EXPECT_EQ(mine.value("queue.nand_die.depth_peak"), 7u);  // max, not 12
  EXPECT_EQ(mine.value("ring.peak"), 9u);
  EXPECT_EQ(mine.value("reads.count"), 7u);  // sum
  mine.merge_add(theirs);
  EXPECT_EQ(mine.value("peak.reads"), 22u);  // summed twice
  EXPECT_EQ(mine.value("ring.peak"), 9u);    // max is idempotent
}

TEST(Timeline, SamplerEdgeCases) {
  // interval = 0 disables sampling outright.
  TimelineSampler off({/*interval=*/0, /*max_samples=*/4}, /*start=*/100);
  EXPECT_FALSE(off.due(1'000'000'000));

  TimelineConfig cfg;
  cfg.interval = 10;
  cfg.max_samples = 3;
  TimelineSampler s(cfg, /*start=*/5);
  EXPECT_FALSE(s.due(5));
  EXPECT_FALSE(s.due(14));
  // A poll that straddles many intervals yields ONE sample (decimation,
  // not catch-up), and the next deadline is rebased on the poll time.
  EXPECT_TRUE(s.due(95));
  s.record(95, {});
  EXPECT_FALSE(s.due(95));
  EXPECT_FALSE(s.due(104));
  EXPECT_TRUE(s.due(105));
  s.record(105, {});
  s.record(130, {});
  // max_samples reached: the sampler stops being due, it never resizes.
  EXPECT_FALSE(s.due(1'000'000));
  const std::vector<TimeSample> samples = s.take();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].t, 90u);  // t is relative to the start time
  EXPECT_EQ(samples[1].t, 100u);
}

TEST(Utilization, MetricsExportedWithExactQueueIdentity) {
  const RunResult r = run_cell(PathKind::kPipette, /*traced=*/false);
  EXPECT_GT(r.metrics.value("util.sim_time_ns"), 0u);
  EXPECT_GT(r.metrics.value("util.nand_die.busy_ns"), 0u);
  EXPECT_GT(r.metrics.value("util.nand_die.ops"), 0u);
  EXPECT_GT(r.metrics.value("util.pcie_link.busy_ns"), 0u);
  // The Fubini/Little's cross-check holds exactly on the integer sim
  // clock: time in system (busy + wait) == the queue-depth integral.
  for (const char* res : {"nand_die", "nand_channel", "pcie_link"}) {
    const std::string n(res);
    EXPECT_EQ(r.metrics.value("util." + n + ".busy_ns") +
                  r.metrics.value("queue." + n + ".wait_ns"),
              r.metrics.value("queue." + n + ".depth_integral_ns"))
        << n;
  }
  // Occupancy accounts (ring levels) export no wait leg...
  EXPECT_TRUE(r.metrics.contains("util.info_ring.busy_ns"));
  EXPECT_FALSE(r.metrics.contains("queue.info_ring.wait_ns"));
  // ...and gated accounts stay absent: HMB build has no LMB link, no
  // prefetcher was configured.
  EXPECT_FALSE(r.metrics.contains("util.lmb_link.busy_ns"));
  EXPECT_FALSE(r.metrics.contains("util.prefetch_outstanding.busy_ns"));
}

TEST(Utilization, BottleneckReportRanksServiceResourcesFirst) {
  MetricsRegistry m;
  m.set("util.sim_time_ns", 1'000);
  // An occupancy account busier than every service account: non-empty 90%
  // of the time must still not out-rank a die that is serving 50%.
  m.set("util.ring.busy_ns", 900);
  m.set("util.ring.units", 1);
  m.set("queue.ring.depth_integral_ns", 900);
  m.set("queue.ring.depth_peak", 4);
  m.set("util.die.busy_ns", 500);
  m.set("util.die.units", 4);
  m.set("util.die.ops", 10);
  m.set("queue.die.wait_ns", 100);
  m.set("queue.die.depth_integral_ns", 600);
  m.set("queue.die.depth_peak", 3);
  m.set("util.link.busy_ns", 200);
  m.set("util.link.units", 1);
  m.set("util.link.ops", 4);
  m.set("queue.link.wait_ns", 0);
  m.set("queue.link.depth_integral_ns", 200);
  m.set("queue.link.depth_peak", 1);
  const BottleneckReport report = BottleneckReport::from_metrics(m);
  ASSERT_EQ(report.resources().size(), 3u);
  EXPECT_EQ(report.top(), "die");
  EXPECT_EQ(report.resources()[0].name, "die");
  EXPECT_EQ(report.resources()[1].name, "link");
  EXPECT_EQ(report.resources()[2].name, "ring");
  EXPECT_FALSE(report.resources()[2].has_waits);
  EXPECT_DOUBLE_EQ(report.resources()[0].busy_share(report.elapsed_ns()),
                   0.5);
  EXPECT_DOUBLE_EQ(report.max_littles_residual(), 0.0);  // 500+100 == 600
  EXPECT_FALSE(report.to_table().to_text().empty());
}

TEST(Fleet, UtilizationMetricsMergeAcrossJobs) {
  auto run_fleet = [](unsigned jobs) {
    FleetConfig fleet;
    fleet.shards = 4;
    fleet.machine = default_machine(PathKind::kPipette);
    FleetRunner runner(
        fleet,
        [](std::uint64_t s) -> std::unique_ptr<Workload> {
          SyntheticConfig sc = table1_workload('C', Distribution::kUniform, s);
          sc.file_size = 32 * kMiB;
          return std::make_unique<SyntheticWorkload>(sc);
        },
        kSeed);
    return runner.run(kRun, jobs);
  };
  const FleetResult serial = run_fleet(1);
  const FleetResult parallel = run_fleet(4);
  EXPECT_TRUE(deterministic_equal(serial, parallel));

  // Cumulative util legs sum across shards; peak depths take the max.
  std::uint64_t sim_time = 0, busy = 0, peak = 0;
  for (const RunResult& r : serial.shard_results) {
    sim_time += r.metrics.value("util.sim_time_ns");
    busy += r.metrics.value("util.nand_die.busy_ns");
    peak = std::max(peak, r.metrics.value("queue.nand_die.depth_peak"));
  }
  EXPECT_GT(busy, 0u);
  EXPECT_EQ(serial.metrics.value("util.sim_time_ns"), sim_time);
  EXPECT_EQ(serial.metrics.value("util.nand_die.busy_ns"), busy);
  EXPECT_EQ(serial.metrics.value("queue.nand_die.depth_peak"), peak);

  // The merged registry still parses into a ranked report.
  const BottleneckReport report =
      BottleneckReport::from_metrics(serial.metrics);
  EXPECT_FALSE(report.top().empty());
}

TEST(Metrics, CollectedIntoRunResult) {
  const RunResult r = run_cell(PathKind::kPipette, /*traced=*/false);
  EXPECT_EQ(r.metrics.value("sim.events_executed"), r.events_executed);
  EXPECT_GT(r.metrics.value("ssd.commands"), 0u);
  EXPECT_GT(r.metrics.value("nand.page_reads"), 0u);
  EXPECT_GT(r.metrics.value("fgrc.promotions"), 0u);
  EXPECT_GT(r.metrics.value("hmb.info_peak_in_flight"), 0u);
  // Zero-rate fault plans draw nothing.
  EXPECT_EQ(r.metrics.value("faults.nand_fired"), 0u);
  // Per-class slab metrics exist for at least one item size.
  bool has_class = false;
  for (const auto& [k, v] : r.metrics.values())
    has_class = has_class || k.rfind("fgrc.class.", 0) == 0;
  EXPECT_TRUE(has_class);

  const RunResult block = run_cell(PathKind::kBlockIo, /*traced=*/false);
  EXPECT_GT(block.metrics.value("page_cache.fills"), 0u);
  EXPECT_FALSE(block.metrics.contains("fgrc.promotions"));
}

}  // namespace
}  // namespace pipette
