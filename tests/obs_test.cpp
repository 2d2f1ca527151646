// Observability layer tests: the tracer must observe without perturbing
// (tracing on/off is bit-identical, at any fleet job count), exports must
// parse, the metrics registry must merge deterministically, and the batched
// depth sweep must equal a per-record heap sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/table.h"
#include "counting_new.h"
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
  EXPECT_LE(r.timeline.size(), TimelineSampler::kMaxSamples);
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
  TimelineSampler off({/*interval=*/0}, /*start=*/100);
  EXPECT_FALSE(off.due(1'000'000'000));

  TimelineConfig cfg;
  cfg.interval = 10;
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
  SimTime now = 105;
  for (std::uint32_t n = 2; n < TimelineSampler::kMaxSamples; ++n) {
    now += 10;
    ASSERT_TRUE(s.due(now)) << n;
    s.record(now, {});
  }
  // kMaxSamples reached: the sampler stops being due, it never resizes.
  EXPECT_FALSE(s.due(now + 10));
  EXPECT_FALSE(s.due(now + 1'000'000));
  const std::vector<TimeSample> samples = s.take();
  ASSERT_EQ(samples.size(), TimelineSampler::kMaxSamples);
  EXPECT_EQ(samples[0].t, 90u);  // t is relative to the start time
  EXPECT_EQ(samples[1].t, 100u);
  EXPECT_EQ(samples.back().t, now - 5);
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

// Reference depth sweep: every record pushes its (time, +-1) edges into a
// min-heap and drains it up to `now` at once. ResourceUsage batches the
// same sweep; every depth answer must match this one exactly.
class HeapUsage {
 public:
  void record(SimTime now, SimTime arrival, SimTime start, SimTime end) {
    ++ops_;
    busy_ns_ += end - start;
    wait_ns_ += start - arrival;
    pending_.emplace(arrival, +1);
    pending_.emplace(end, -1);
    drain(now);
  }
  std::uint64_t ops() const { return ops_; }
  std::uint64_t busy_ns() const { return busy_ns_; }
  std::uint64_t wait_ns() const { return wait_ns_; }
  std::uint64_t depth_integral_ns(SimTime now) {
    drain(now);
    return depth_integral_ns_;
  }
  std::uint32_t depth_peak(SimTime now) {
    drain(now);
    return peak_;
  }
  std::uint32_t depth(SimTime now) {
    drain(now);
    return static_cast<std::uint32_t>(level_);
  }

 private:
  void drain(SimTime now) {
    while (!pending_.empty() && pending_.top().first <= now) {
      const auto [t, delta] = pending_.top();
      pending_.pop();
      advance_to(t);
      level_ += delta;
      if (level_ > static_cast<std::int64_t>(peak_))
        peak_ = static_cast<std::uint32_t>(level_);
    }
    advance_to(now);
  }
  void advance_to(SimTime t) {
    if (t <= swept_to_) return;
    depth_integral_ns_ +=
        static_cast<std::uint64_t>(level_) * (t - swept_to_);
    swept_to_ = t;
  }

  using Edge = std::pair<SimTime, std::int8_t>;
  std::uint64_t ops_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t wait_ns_ = 0;
  std::uint64_t depth_integral_ns_ = 0;
  std::int64_t level_ = 0;
  std::uint32_t peak_ = 0;
  SimTime swept_to_ = 0;
  std::priority_queue<Edge, std::vector<Edge>, std::greater<Edge>> pending_;
};

// Drives one account with the op shapes the simulator records: PCIe/LMB
// transfers (arrival == now, back-to-back on one link), NAND legs on a
// pool of dies (arrival = now + command overhead, and a program leg whose
// arrival is the transfer leg's end), GC legs up to `gc_horizon` ahead,
// and zero-length ops. Times are coarse multiples so equal-time +-1 ties
// are common. The dies and link run below saturation, so only the GC
// horizon sets how many edges stay pending.
class UsageStream {
 public:
  UsageStream(std::uint64_t seed, SimDuration gc_horizon)
      : rng_(seed), gc_horizon_(gc_horizon) {}

  /// Advances the clock (often not at all, sometimes exactly onto a link's
  /// free time so a -1 and a +1 share an instant) and records one op.
  template <typename A, typename B>
  void record_one(A& a, B& b) {
    const std::uint64_t step = rng_.next_below(4);
    if (step == 1) {
      now_ += 100 * rng_.next_below(8);
    } else if (step == 2 && link_busy_until_ > now_) {
      now_ = link_busy_until_;
    }
    const SimDuration service = 100 * rng_.next_below(6);  // may be 0
    SimTime arrival = now_;
    SimTime start = 0;
    switch (rng_.next_below(4)) {
      case 0: {  // PCIe-style transfer on one link
        start = std::max(now_, link_busy_until_);
        link_busy_until_ = start + service;
        break;
      }
      case 1: {  // NAND sense leg on one of several dies
        const std::size_t die = rng_.next_below(kDies);
        arrival = now_ + 1000;
        start = std::max(arrival, die_busy_until_[die]);
        die_busy_until_[die] = start + service;
        break;
      }
      case 2: {  // NAND program: channel leg, then the die leg it feeds
        const std::size_t die = rng_.next_below(kDies);
        const SimTime xfer_start = std::max(now_ + 1000, channel_busy_until_);
        const SimTime xfer_end = xfer_start + service;
        channel_busy_until_ = xfer_end;
        a.record(now_, now_ + 1000, xfer_start, xfer_end);
        b.record(now_, now_ + 1000, xfer_start, xfer_end);
        arrival = xfer_end;
        start = std::max(xfer_end, die_busy_until_[die]);
        die_busy_until_[die] = start + 100 * rng_.next_below(12);
        a.record(now_, arrival, start, die_busy_until_[die]);
        b.record(now_, arrival, start, die_busy_until_[die]);
        return;
      }
      default: {  // GC leg, possibly far in the future
        arrival = now_ + 100 * rng_.next_below(gc_horizon_ / 100);
        start = arrival + 100 * rng_.next_below(100);
        break;
      }
    }
    a.record(now_, arrival, start, start + service);
    b.record(now_, arrival, start, start + service);
  }

  Rng& rng() { return rng_; }
  SimTime& now() { return now_; }

 private:
  static constexpr std::size_t kDies = 4;
  Rng rng_;
  SimDuration gc_horizon_;
  SimTime now_ = 0;
  SimTime link_busy_until_ = 0;
  SimTime channel_busy_until_ = 0;
  SimTime die_busy_until_[kDies] = {};
};

TEST(Utilization, BatchedDepthSweepMatchesHeapSweep) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    ResourceUsage usage;
    HeapUsage ref;
    // Far-future GC legs keep thousands of edges pending, past the runs'
    // reserved capacity.
    UsageStream stream(seed, /*gc_horizon=*/1 * kMs);
    // Query density varies by seed, from one query per ~2 records (the
    // sweep rarely fills a batch) to one per ~2000 (many full batches).
    const std::uint64_t query_odds = 2ull << (seed % 11);
    std::uint64_t queries = 0;
    for (int i = 0; i < 20'000; ++i) {
      stream.record_one(usage, ref);
      if (stream.rng().next_below(query_odds) != 0) continue;
      SimTime& now = stream.now();
      now += 100 * stream.rng().next_below(3);
      // A query behind the latest now answers at the latest now.
      const SimTime at =
          stream.rng().next_below(8) == 0 && now >= 300 ? now - 300 : now;
      ++queries;
      switch (stream.rng().next_below(3)) {
        case 0:
          ASSERT_EQ(usage.depth(at), ref.depth(at)) << seed << " " << i;
          break;
        case 1:
          ASSERT_EQ(usage.depth_peak(at), ref.depth_peak(at))
              << seed << " " << i;
          break;
        default:
          ASSERT_EQ(usage.depth_integral_ns(at), ref.depth_integral_ns(at))
              << seed << " " << i;
      }
    }
    EXPECT_GT(queries, 0u);
    const SimTime end = stream.now() + 10'000'000;
    EXPECT_EQ(usage.ops(), ref.ops());
    EXPECT_EQ(usage.busy_ns(), ref.busy_ns());
    EXPECT_EQ(usage.wait_ns(), ref.wait_ns());
    EXPECT_EQ(usage.depth_peak(end), ref.depth_peak(end)) << seed;
    EXPECT_EQ(usage.depth(end), ref.depth(end)) << seed;
    EXPECT_EQ(usage.depth(end), 0u) << seed;
    // Little's law on the integer clock: both sweeps equal busy + wait.
    EXPECT_EQ(usage.depth_integral_ns(end), ref.depth_integral_ns(end));
    EXPECT_EQ(usage.depth_integral_ns(end), usage.busy_ns() + usage.wait_ns())
        << seed;
  }
}

TEST(Utilization, RecordIsAllocationFree) {
  // A bounded in-flight set (the simulator's device queues bound it)
  // stays inside the runs' reserved capacity, so the runs are sized once,
  // at construction, and no record or sweep allocates.
  ResourceUsage usage;
  ResourceUsage twin;
  UsageStream stream(7, /*gc_horizon=*/20 * kUs);
  const std::uint64_t news_before =
      g_operator_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 20'000; ++i) {
    stream.record_one(usage, twin);
    if (i % 1000 == 0) usage.depth(stream.now());
  }
  const std::uint64_t news_delta =
      g_operator_new_calls.load(std::memory_order_relaxed) - news_before;
  EXPECT_EQ(news_delta, 0u);
  EXPECT_GE(usage.ops(), 20'000u);
}

TEST(UtilizationDeathTest, RecordRejectsOpsBehindTheSweep) {
  ResourceUsage usage;
  usage.record(/*now=*/100, /*arrival=*/100, /*start=*/150, /*end=*/200);
  // `now` went backwards.
  EXPECT_DEATH(usage.record(90, 100, 100, 120), "behind the swept time");
  // Arrival before the last `now`.
  EXPECT_DEATH(usage.record(120, 99, 120, 130), "behind the swept time");
  // A query moved the swept time past this op's `now`.
  usage.depth(500);
  EXPECT_DEATH(usage.record(400, 600, 600, 700), "behind the swept time");
  // The op's own times out of order.
  EXPECT_DEATH(usage.record(500, 600, 550, 700), "arrival <= start <= end");
  EXPECT_DEATH(usage.record(500, 600, 700, 650), "arrival <= start <= end");
  usage.record(500, 500, 500, 500);  // a zero-length op is legal
  EXPECT_EQ(usage.ops(), 2u);
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
