// Tests for the sim layer: machine assembly/shaping, calibration defaults,
// the experiment runner's accounting, and CSV output plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common/table.h"
#include "sim/experiment.h"
#include "workload/search.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

TEST(MachineConfigDefaults, SyntheticCalibration) {
  const MachineConfig c = default_machine(PathKind::kPipette);
  // The paper's device architecture (Fig. 5).
  EXPECT_EQ(c.ssd.geometry.channels, 8u);
  EXPECT_EQ(c.ssd.geometry.ways_per_channel, 8u);
  EXPECT_EQ(c.ssd.nand_timing.cell, CellType::kTlc);
  // Equal host-cache budgets for a fair synthetic comparison.
  EXPECT_EQ(c.page_cache_bytes, c.ssd.hmb.data_bytes);
  // Block interface does not data-cache in controller DRAM.
  EXPECT_FALSE(c.ssd.block_reads_use_buffer);
}

TEST(MachineConfigDefaults, RealAppRegime) {
  const MachineConfig c = realapp_machine(PathKind::kPipette);
  // Staging region far below the ~1 GiB datasets; FGRC half the page cache.
  EXPECT_LT(c.ssd.read_buffer_bytes, 128ull * kMiB + 1);
  EXPECT_LT(c.ssd.hmb.data_bytes, c.page_cache_bytes);
}

TEST(Machine, ShapingShrinksHmbForNonPipetteKinds) {
  std::vector<FileSpec> files{{"f", 8 * kMiB}};
  Machine block(default_machine(PathKind::kBlockIo), files);
  Machine pipette(default_machine(PathKind::kPipette), files);
  EXPECT_LT(block.ssd().hmb().data_area().size(),
            pipette.ssd().hmb().data_area().size());
}

TEST(Machine, TypedAccessorsMatchKind) {
  std::vector<FileSpec> files{{"f", 8 * kMiB}};
  Machine m(default_machine(PathKind::kTwoBDma), files);
  EXPECT_EQ(m.block_path(), nullptr);
  EXPECT_EQ(m.pipette_path(), nullptr);
  ASSERT_NE(m.twob_path(), nullptr);
  EXPECT_EQ(m.twob_path()->mode(), TwoBMode::kDma);
  EXPECT_EQ(m.page_cache(), nullptr);  // 2B-SSD has no host cache
}

TEST(Machine, OpenFlagsAddFineGrainedOnlyForPipette) {
  std::vector<FileSpec> files{{"f", 8 * kMiB}};
  Machine block(default_machine(PathKind::kBlockIo), files);
  Machine pipette(default_machine(PathKind::kPipette), files);
  EXPECT_EQ(block.open_flags(false) & kOpenFineGrained, 0);
  EXPECT_EQ(pipette.open_flags(false) & kOpenFineGrained, kOpenFineGrained);
  EXPECT_EQ(pipette.open_flags(true) & kOpenWrite, kOpenWrite);
}

TEST(Machine, FilesAreCreatedWithSizes) {
  std::vector<FileSpec> files{{"a", 3 * kMiB}, {"b", kMiB, 4}};
  Machine m(default_machine(PathKind::kBlockIo), files);
  EXPECT_EQ(m.fs().inode(m.fs().find("a")).size, 3 * kMiB);
  // Fragmented creation honours the extent cap.
  EXPECT_GT(m.fs().inode(m.fs().find("b")).extents.extent_count(), 1u);
}

// A bad config is rejected while the Machine is built, with a message that
// names the broken rule.
TEST(MachineDeathTest, RejectsHmbDataAreaSmallerThanOneSlab) {
  MachineConfig c = default_machine(PathKind::kPipette);
  c.ssd.hmb.data_bytes = c.pipette.fgrc.slab.slab_size / 2;
  EXPECT_DEATH(Machine m(c, {}), "HMB data area smaller than one slab");
}

TEST(MachineDeathTest, RejectsFineMaxLenLargerThanTheTempBuf) {
  MachineConfig c = default_machine(PathKind::kPipette);
  c.pipette.dispatch.fine_max_len =
      static_cast<std::uint32_t>(c.ssd.hmb.tempbuf_bytes) + 1;
  EXPECT_DEATH(Machine m(c, {}),
               "dispatcher fine_max_len exceeds the HMB TempBuf");
}

TEST(MachineDeathTest, RejectsMappingUnitThatDoesNotDivideThePage) {
  MachineConfig c = default_machine(PathKind::kBlockIo);
  c.mapping_unit = 768;
  EXPECT_DEATH(Machine m(c, {}),
               "mapping unit must be in \\[512, page\\] and divide the page");
}

TEST(RunResult, DerivedRates) {
  RunResult r;
  r.requests = 1000;
  r.bytes_requested = 1000 * 1024;
  r.elapsed = 1 * kSec / 2;  // 0.5 s
  EXPECT_DOUBLE_EQ(r.requests_per_sec(), 2000.0);
  EXPECT_NEAR(r.throughput_mib_s(), 2000.0 * 1024 / (1024 * 1024), 1e-9);
}

TEST(RunExperiment, WarmupExcludedFromMetrics) {
  SyntheticConfig sc = table1_workload('E', Distribution::kUniform);
  sc.file_size = 8 * kMiB;
  SyntheticWorkload w(sc);
  MachineConfig mc = default_machine(PathKind::kBlockIo);
  mc.ssd.geometry.blocks_per_plane = 64;
  const RunResult r = run_experiment(mc, w, {2000, 3000});
  EXPECT_EQ(r.requests, 2000u);
  EXPECT_EQ(r.bytes_requested, 2000u * 128u);
}

TEST(RunExperiment, SearchWorkloadRunsOnPipette) {
  SearchConfig sc;
  sc.terms = 1 << 14;
  SearchWorkload w(sc);
  MachineConfig mc = default_machine(PathKind::kPipette);
  const RunResult r = run_experiment(mc, w, {3000, 3000});
  EXPECT_GT(r.fgrc_hit_ratio, 0.0);
  EXPECT_GT(r.traffic_bytes, 0u);
  EXPECT_LT(r.traffic_bytes, r.requests * 4096);  // far below page-granular
}

TEST(RunExperiment, ReportsMeasuredReads) {
  SyntheticConfig sc = table1_workload('E', Distribution::kUniform);
  sc.file_size = 8 * kMiB;
  SyntheticWorkload w(sc);
  const RunResult r =
      run_experiment(default_machine(PathKind::kBlockIo), w, {1500, 500});
  // Workload E is all reads, so the measured phase is exactly them.
  EXPECT_EQ(r.measured_reads, 1500u);
}

TEST(RunExperiment, PercentilesDescribeTheMeasuredPhaseOnly) {
  // Determinism makes the two runs replay the identical request stream, so
  // the {1000 measured, 2000 warmup} histogram is exactly a subset of the
  // {3000 measured, 0 warmup} one. With bucket-wise subtraction the warm
  // phase's percentiles cannot be dragged up by the cold-start warmup
  // requests the old full-run approximation mixed in.
  SyntheticConfig sc = table1_workload('E', Distribution::kUniform);
  sc.file_size = 512 * 1024;  // small file: the warm phase is hit-heavy
  MachineConfig mc = default_machine(PathKind::kPipette);
  SyntheticWorkload cold(sc);
  const RunResult all = run_experiment(mc, cold, {3000, 0});
  SyntheticWorkload warm(sc);
  const RunResult measured = run_experiment(mc, warm, {1000, 2000});
  EXPECT_GT(measured.p50_latency_us, 0.0);
  EXPECT_LE(measured.p50_latency_us, all.p50_latency_us);
  EXPECT_LE(measured.p99_latency_us, all.p99_latency_us);
  // The warm phase is dominated by FGRC hits; a distribution containing the
  // all-miss cold start must sit strictly above it on average. The mean is
  // computed from exact totals (not buckets), so the inequality is strict.
  EXPECT_LT(measured.mean_latency_us, all.mean_latency_us);
}

// The tentpole guarantee: the parallel runner is bit-identical to the
// serial one on every deterministic field (host_seconds excepted — it is
// wall-clock, and RunResult::Deterministic() excludes it by construction).
TEST(RunExperimentsParallel, MatchesSerialFieldByField) {
  std::vector<ExperimentCell> cells;
  for (PathKind kind : {PathKind::kBlockIo, PathKind::kPipette}) {
    for (char wl : {'C', 'E'}) {
      SyntheticConfig sc = table1_workload(wl, Distribution::kUniform, 42);
      sc.file_size = 8 * kMiB;
      cells.push_back({default_machine(kind),
                       [sc]() -> std::unique_ptr<Workload> {
                         return std::make_unique<SyntheticWorkload>(sc);
                       },
                       RunConfig{1200, 600}});
    }
  }
  const auto serial = run_experiments_parallel(cells, /*jobs=*/1);
  const auto parallel = run_experiments_parallel(cells, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].Deterministic(), parallel[i].Deterministic())
        << "cell " << i;
  }
}

// Golden equivalence across the two entry points: a fig6-style cell run
// directly through run_experiment must match the same MachineConfig
// round-tripped through an ExperimentCell and the parallel runner, on every
// deterministic RunResult field (host_seconds is wall-clock and excluded
// from Deterministic()). This pins the DES core's event ordering: any
// divergence in schedule order shows up as a different
// elapsed/latency/events_executed long before a human would notice it in a
// table.
TEST(RunExperimentsParallel, GoldenEquivalentToDirectRunExperiment) {
  SyntheticConfig sc = table1_workload('C', Distribution::kUniform, 42);
  sc.file_size = 8 * kMiB;
  const MachineConfig mc = default_machine(PathKind::kPipette);
  const RunConfig rc{2000, 1000};

  SyntheticWorkload w(sc);
  const RunResult direct = run_experiment(mc, w, rc);

  std::vector<ExperimentCell> cells;
  cells.push_back({mc,
                   [sc]() -> std::unique_ptr<Workload> {
                     return std::make_unique<SyntheticWorkload>(sc);
                   },
                   rc});
  const auto via_runner = run_experiments_parallel(cells, /*jobs=*/1);
  ASSERT_EQ(via_runner.size(), 1u);
  const RunResult& r = via_runner[0];

  EXPECT_EQ(direct.Deterministic(), r.Deterministic());
  EXPECT_GT(direct.events_executed, rc.requests);  // many events per request
}

TEST(RunExperimentsParallel, ReportsCompletionPerCell) {
  std::vector<ExperimentCell> cells;
  SyntheticConfig sc = table1_workload('E', Distribution::kUniform);
  sc.file_size = 8 * kMiB;
  for (int i = 0; i < 3; ++i) {
    cells.push_back({default_machine(PathKind::kBlockIo),
                     [sc]() -> std::unique_ptr<Workload> {
                       return std::make_unique<SyntheticWorkload>(sc);
                     },
                     RunConfig{200, 100}});
  }
  std::vector<std::size_t> done;
  const auto results = run_experiments_parallel(
      cells, /*jobs=*/2,
      [&done](std::size_t i, const RunResult& r) {
        EXPECT_GT(r.host_seconds, 0.0);
        done.push_back(i);
      });
  EXPECT_EQ(results.size(), 3u);
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(NormalizedThroughput, RelativeToBaseline) {
  RunResult a, b;
  a.requests = b.requests = 100;
  a.elapsed = 1 * kSec;
  b.elapsed = 2 * kSec;
  EXPECT_DOUBLE_EQ(normalized_throughput(a, a), 1.0);
  EXPECT_DOUBLE_EQ(normalized_throughput(a, b), 2.0);
}

TEST(TableCsv, WriteCsvRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/pipette_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "x,y");
  EXPECT_EQ(row, "1,2");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pipette
