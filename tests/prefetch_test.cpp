// Tests for the speculative readahead prefetcher and the LMB interconnect
// backend: the stream classifier verdicts, speculative placement via
// plan_speculative, the Info-ring's out-of-order release, the end-to-end
// latency win on structured streams, clean degradation under HMB faults,
// and the bit-identity tripwires that pin prefetch-off + kHmb runs to
// pre-prefetcher history.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pipette/detector.h"
#include "pipette/fgrc.h"
#include "sim/experiment.h"
#include "workload/pattern.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

// --- Stream classifier --------------------------------------------------

TEST(StreamClassifier, LabelsSequentialStridedClusteredRandom) {
  FineGrainedAccessDetector det;
  // Sequential: stride equals the access length.
  StreamPrediction p;
  for (std::uint64_t k = 0; k < 4; ++k) p = det.observe(1, k * 64, 64);
  EXPECT_EQ(p.cls, StreamClass::kSequential);
  EXPECT_EQ(p.stride, 64);
  EXPECT_GE(p.confidence, 2u);

  // Strided: constant stride larger than the length.
  for (std::uint64_t k = 0; k < 4; ++k) p = det.observe(2, k * 4096 + 512, 128);
  EXPECT_EQ(p.cls, StreamClass::kStrided);
  EXPECT_EQ(p.stride, 4096);

  // Clustered-hot: dense recency window, no constant stride. Deltas are
  // pairwise distinct so the stride run never reaches 2.
  const std::uint64_t hot[] = {0,    1000, 300,  2100, 700,  1500,
                               100,  2500, 900,  1800, 400,  2300};
  for (std::uint64_t off : hot) p = det.observe(3, off, 128);
  EXPECT_EQ(p.cls, StreamClass::kClusteredHot);
  EXPECT_GE(p.confidence, 6u);

  // Random: far-apart offsets with distinct deltas stay unclassified.
  const std::uint64_t cold[] = {0,          40 * kMiB, 3 * kMiB,  90 * kMiB,
                                17 * kMiB,  66 * kMiB, 9 * kMiB,  120 * kMiB,
                                50 * kMiB,  5 * kMiB,  77 * kMiB, 30 * kMiB};
  for (std::uint64_t off : cold) p = det.observe(4, off, 128);
  EXPECT_EQ(p.cls, StreamClass::kRandom);

  const auto& counts = det.stream_class_counts();
  EXPECT_GT(counts[static_cast<std::size_t>(StreamClass::kSequential)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(StreamClass::kStrided)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(StreamClass::kClusteredHot)], 0u);
  EXPECT_GT(counts[static_cast<std::size_t>(StreamClass::kRandom)], 0u);
}

// --- Speculative placement (plan_speculative) ---------------------------

struct SpecFgrcFixture : ::testing::Test {
  static Hmb::Layout layout() {
    Hmb::Layout l;
    l.info_slots = 64;
    l.tempbuf_bytes = 8 * 1024;
    l.data_bytes = 64 * 1024;
    return l;
  }
  static FgrcConfig config() {
    FgrcConfig c;
    c.slab.slab_size = 8 * 1024;
    c.slab.class_sizes = {64, 128, 256, 512, 1024};
    c.slab.max_external_bytes = 64 * 1024;
    return c;
  }
  Hmb hmb{layout()};
  FineGrainedReadCache fgrc{hmb, config(), nullptr};
};

TEST_F(SpecFgrcFixture, HighConfidencePromotesLowConfidenceStagesUpperHalf) {
  fgrc.enable_speculative_staging();
  const HmbAddr tb = hmb.tempbuf_offset();
  const HmbAddr half = static_cast<HmbAddr>(hmb.tempbuf().size()) / 2;

  // Confidence at/above the adaptive threshold (initially 2): promoted.
  const FgKey hot{1, 4096, 128};
  const MissPlan p1 = fgrc.plan_speculative(hot, 4);
  EXPECT_TRUE(p1.promoted);
  EXPECT_TRUE(fgrc.contains(hot));
  EXPECT_TRUE(fgrc.index_consistent());

  // Below the threshold: staged through the *speculative* (upper) TempBuf
  // half, never a cache reservation.
  const FgKey cold{1, 9000, 128};
  const MissPlan p2 = fgrc.plan_speculative(cold, 1);
  EXPECT_FALSE(p2.promoted);
  EXPECT_FALSE(fgrc.contains(cold));
  EXPECT_GE(p2.dest, tb + half);
  EXPECT_LT(p2.dest, tb + 2 * half);

  // Demand staging stays confined to the lower half once split.
  const HmbAddr demand = fgrc.tempbuf_addr(256);
  EXPECT_GE(demand, tb);
  EXPECT_LT(demand + 256, tb + half + 1);

  // Speculation must not touch demand lookup statistics or the ghost
  // tracker: a later demand miss on `cold` behaves like a first access.
  EXPECT_EQ(fgrc.stats().lookups.accesses(), 0u);
  const MissPlan p3 = fgrc.plan_miss(cold);
  EXPECT_FALSE(p3.promoted) << "plan_speculative leaked a ghost reference";
}

TEST_F(SpecFgrcFixture, AbortFillEvictsSpeculativePromotion) {
  fgrc.enable_speculative_staging();
  const FgKey key{2, 128, 64};
  const MissPlan plan = fgrc.plan_speculative(key, 4);
  ASSERT_TRUE(plan.promoted);
  ASSERT_TRUE(fgrc.contains(key));
  fgrc.abort_fill(key, plan);
  EXPECT_FALSE(fgrc.contains(key));
  EXPECT_TRUE(fgrc.index_consistent());
  EXPECT_EQ(fgrc.stats().aborted_fills, 1u);
}

// --- Info-ring out-of-order release -------------------------------------

TEST(InfoAreaRelease, OutOfOrderRetirementAdvancesPastDigestedPrefix) {
  InfoArea ring(4);
  const std::uint64_t a = ring.push({0, 0, 0, 64}, 0);
  const std::uint64_t b = ring.push({64, 1, 0, 64}, 0);
  const std::uint64_t c = ring.push({128, 2, 0, 64}, 0);
  ASSERT_EQ(a, 0u);
  ASSERT_EQ(ring.in_flight(), 3u);

  // Retiring the middle record leaves the head pinned by the oldest.
  ring.release(b, 0);
  EXPECT_EQ(ring.head(), 0u);
  EXPECT_EQ(ring.in_flight(), 3u);

  // Retiring the oldest advances past the whole digested prefix {a, b}.
  ring.release(a, 0);
  EXPECT_EQ(ring.head(), 2u);
  EXPECT_EQ(ring.in_flight(), 1u);

  ring.release(c, 0);
  EXPECT_TRUE(ring.empty());

  // The freed slots are immediately reusable (slot = index % capacity).
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t idx = ring.push({0, 0, 0, 1}, 0);
    ring.release(idx, 0);
    EXPECT_EQ(ring.head(), idx + 1);
  }
}

// --- End-to-end: structured streams win, accounting stays sane ----------

StridedConfig small_strided(std::uint64_t seed = 42) {
  StridedConfig c;
  c.file_size = 16 * kMiB;
  c.run_length = 64;
  c.seed = seed;
  return c;
}

MachineConfig pipette_machine(bool prefetch,
                              InterconnectKind ic = InterconnectKind::kHmb) {
  MachineConfig m = default_machine(PathKind::kPipette);
  m.prefetch = prefetch;
  m.interconnect = ic;
  return m;
}

TEST(PrefetchEndToEnd, StridedStreamGetsFasterAndClaimsFills) {
  const RunConfig rc{6'000, 3'000};
  StridedWorkload off_w(small_strided());
  const RunResult off = run_experiment(pipette_machine(false), off_w, rc);

  StridedWorkload on_w(small_strided());
  Machine machine(pipette_machine(true), on_w.files());
  const RunResult on = run_experiment_on(machine, on_w, rc);

  EXPECT_LT(on.mean_latency_us, off.mean_latency_us);
  EXPECT_GT(on.metrics.value("prefetch.issued"), 0u);
  EXPECT_GT(on.metrics.value("prefetch.hits"), 0u);
  EXPECT_GT(on.metrics.value("detector.stream_strided"), 0u);

  const Prefetcher* pf = machine.pipette_path()->prefetcher();
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf->stats().issued, on.metrics.value("prefetch.issued"));
  EXPECT_LE(pf->outstanding(), Prefetcher::kMaxOutstanding);
  EXPECT_TRUE(machine.pipette_path()->fgrc().index_consistent());

  // Prefetch-off machines must not even construct the prefetcher.
  Machine plain(pipette_machine(false), off_w.files());
  EXPECT_EQ(plain.pipette_path()->prefetcher(), nullptr);
}

TEST(PrefetchEndToEnd, PrefetchRunsAreDeterministic) {
  const RunConfig rc{2'000, 1'000};
  StridedWorkload a(small_strided());
  StridedWorkload b(small_strided());
  EXPECT_EQ(run_experiment(pipette_machine(true), a, rc).Deterministic(),
            run_experiment(pipette_machine(true), b, rc).Deterministic());
}

// --- Interconnect backend -----------------------------------------------

TEST(Interconnect, LmbHasDistinctTimingAndReclaimsHostDram) {
  const RunConfig rc{3'000, 1'500};
  StridedWorkload hw(small_strided());
  Machine hmb_machine(pipette_machine(false), hw.files());
  const RunResult hmb = run_experiment_on(hmb_machine, hw, rc);
  StridedWorkload lw(small_strided());
  Machine lmb_machine(pipette_machine(false, InterconnectKind::kLmb),
                      lw.files());
  const RunResult lmb = run_experiment_on(lmb_machine, lw, rc);

  EXPECT_NE(hmb.mean_latency_us, lmb.mean_latency_us);
  EXPECT_GT(lmb.metrics.value("lmb.dma_transfers"), 0u);
  EXPECT_EQ(hmb.metrics.value("lmb.dma_transfers"), 0u);
  // The linked buffer stops stealing host DRAM: its data-area budget is
  // returned to the page cache's capacity.
  EXPECT_GT(lmb_machine.page_cache()->capacity_pages(),
            hmb_machine.page_cache()->capacity_pages());
}

TEST(Interconnect, LmbWorksOnEveryPipetteKind) {
  const RunConfig rc{500, 250};
  for (PathKind kind : kAllPaths) {
    MachineConfig m = default_machine(kind);
    m.interconnect = InterconnectKind::kLmb;
    SyntheticConfig sc = table1_workload('C', Distribution::kUniform, 42);
    sc.file_size = 8 * kMiB;
    SyntheticWorkload w(sc);
    const RunResult r = run_experiment(m, w, rc);
    EXPECT_EQ(r.measured_reads + r.failed_reads, 500u) << to_string(kind);
    EXPECT_EQ(r.availability(), 1.0) << to_string(kind);
  }
}

// --- Fault interplay ----------------------------------------------------

TEST(PrefetchFaults, SpeculativeFillsDegradeCleanlyUnderHmbFaults) {
  MachineConfig m = pipette_machine(true);
  m.ssd.faults.hmb.dma_fault_rate = 0.2;
  m.ssd.faults.hmb.drop_rate = 0.02;
  const RunConfig rc{4'000, 2'000};

  StridedWorkload w(small_strided());
  Machine machine(m, w.files());
  const RunResult r = run_experiment_on(machine, w, rc);

  // The run finishing at all proves no stuck ticketed wait; availability
  // accounting must be unchanged by speculation: every request is still
  // either served or charged as a failed read (lost completions fail after
  // the timeout guard; plain DMA faults degrade to the block path).
  EXPECT_EQ(r.measured_reads + r.failed_reads, 4'000u);
  EXPECT_GT(r.degraded_reads, 0u);
  EXPECT_GT(r.availability(), 0.99);

  const Prefetcher* pf = machine.pipette_path()->prefetcher();
  ASSERT_NE(pf, nullptr);
  EXPECT_GT(pf->stats().issued, 0u);
  // At a 20% DMA fault rate some speculative fills must have faulted (and
  // their promoted reservations been evicted, not left poisoned).
  EXPECT_GT(pf->stats().faulted, 0u);
  EXPECT_LE(pf->outstanding(), Prefetcher::kMaxOutstanding);
  EXPECT_TRUE(machine.pipette_path()->fgrc().index_consistent());
}

TEST(PrefetchFaults, FaultyPrefetchRunsReproduceBitForBit) {
  MachineConfig m = pipette_machine(true);
  m.ssd.faults.hmb.dma_fault_rate = 0.1;
  m.ssd.faults.hmb.drop_rate = 0.05;
  const RunConfig rc{1'500, 750};
  StridedWorkload a(small_strided());
  StridedWorkload b(small_strided());
  EXPECT_EQ(run_experiment(m, a, rc).Deterministic(),
            run_experiment(m, b, rc).Deterministic());
}

TEST(PrefetchFaults, ColdRestartDropsSpeculativeState) {
  StridedWorkload w(small_strided());
  Machine machine(pipette_machine(true), w.files());
  run_experiment_on(machine, w, {2'000, 1'000});
  const Prefetcher* pf = machine.pipette_path()->prefetcher();
  ASSERT_NE(pf, nullptr);
  machine.cold_restart();
  EXPECT_EQ(pf->outstanding(), 0u);
  EXPECT_EQ(pf->unclaimed(), 0u);
  EXPECT_TRUE(machine.pipette_path()->fgrc().index_consistent());
}

// --- Bit-identity tripwires ---------------------------------------------

// The golden fixture pins default-config runs to pre-prefetcher history;
// this pins the *explicit* prefetch-off + kHmb spelling to the default
// config, closing the loop: flags at their defaults change nothing.
TEST(PrefetchOffIdentity, ExplicitHmbPrefetchOffMatchesDefaults) {
  const RunConfig rc{800, 400};
  for (PathKind kind : kAllPaths) {
    SyntheticConfig sc = table1_workload('C', Distribution::kUniform, 42);
    sc.file_size = 8 * kMiB;
    SyntheticWorkload dw(sc);
    const RunResult base = run_experiment(default_machine(kind), dw, rc);

    MachineConfig explicit_cfg = default_machine(kind);
    explicit_cfg.interconnect = InterconnectKind::kHmb;
    explicit_cfg.prefetch = false;
    SyntheticWorkload ew(sc);
    const RunResult spelled = run_experiment(explicit_cfg, ew, rc);
    EXPECT_EQ(base.Deterministic(), spelled.Deterministic()) << to_string(kind);
  }
}

}  // namespace
}  // namespace pipette
