// Tests for the read-path implementations: every path must return
// byte-identical data; timing and traffic must reflect each design's
// mechanisms (read-ahead, MMIO transactions, per-access DMA mapping, FGRC
// hits, write invalidation).
#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.h"

namespace pipette {
namespace {

MachineConfig tiny_machine(PathKind kind) {
  MachineConfig c;
  c.kind = kind;
  c.ssd.geometry.channels = 4;
  c.ssd.geometry.ways_per_channel = 2;
  c.ssd.geometry.planes_per_die = 1;
  c.ssd.geometry.blocks_per_plane = 32;
  c.ssd.geometry.pages_per_block = 64;  // 16K pages = 64 MiB
  c.ssd.read_buffer_bytes = 8 * kMiB;
  c.ssd.hmb.info_slots = 256;
  c.ssd.hmb.tempbuf_bytes = 16 * kKiB;
  c.ssd.hmb.data_bytes = 4 * kMiB;
  c.page_cache_bytes = 2 * kMiB;
  c.pipette.fgrc.slab.slab_size = 64 * kKiB;
  c.pipette.fgrc.slab.max_external_bytes = 1 * kMiB;
  c.pipette.fgrc.adaptive.initial_threshold = 1;
  c.pipette.fgrc.adaptive.enabled = false;
  return c;
}

std::vector<FileSpec> one_file(std::uint64_t size = 8 * kMiB) {
  return {{"data.bin", size}};
}

/// Expected pristine content of `file` at byte `offset` on `machine`.
std::uint8_t expected_byte(Machine& m, FileId file, std::uint64_t offset) {
  std::vector<LbaRange> ranges;
  m.fs().extract_lbas(file, offset, 1, ranges);
  return m.ssd().content().pristine_byte(ranges[0].lba, ranges[0].offset);
}

class AllPaths : public ::testing::TestWithParam<PathKind> {};

TEST_P(AllPaths, ReadsReturnCorrectBytesAtManyOffsets) {
  const auto files = one_file();
  Machine m(tiny_machine(GetParam()), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  const FileId file = m.vfs().file_of(fd);

  const struct {
    std::uint64_t offset;
    std::uint32_t len;
  } cases[] = {
      {0, 1},           {0, 128},        {100, 128},     {4095, 2},
      {4000, 200},      {8192, 4096},    {12345, 1000},  {65536, 8192},
      {7 * kMiB, 4096}, {1000000, 3000}, {4096, kBlockSize},
  };
  for (const auto& c : cases) {
    std::vector<std::uint8_t> buf(c.len, 0);
    m.vfs().pread(fd, c.offset, {buf.data(), buf.size()});
    for (std::uint32_t i = 0; i < c.len; ++i)
      ASSERT_EQ(buf[i], expected_byte(m, file, c.offset + i))
          << to_string(GetParam()) << " offset=" << c.offset << "+" << i;
  }
}

TEST_P(AllPaths, RereadsAreStable) {
  const auto files = one_file();
  Machine m(tiny_machine(GetParam()), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> first(256), second(256);
  m.vfs().pread(fd, 5000, {first.data(), first.size()});
  m.vfs().pread(fd, 5000, {second.data(), second.size()});
  EXPECT_EQ(first, second);
}

TEST_P(AllPaths, WriteThenReadSeesNewData) {
  const auto files = one_file();
  Machine m(tiny_machine(GetParam()), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> data(300, 0xAB);
  m.vfs().pwrite(fd, 10000, {data.data(), data.size()});
  std::vector<std::uint8_t> buf(300);
  m.vfs().pread(fd, 10000, {buf.data(), buf.size()});
  for (auto b : buf) ASSERT_EQ(b, 0xAB) << to_string(GetParam());
}

TEST_P(AllPaths, LatencyIsPositiveAndRecorded) {
  const auto files = one_file();
  Machine m(tiny_machine(GetParam()), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(128);
  const SimDuration lat = m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  EXPECT_GT(lat, 0u);
  EXPECT_EQ(m.path().stats().reads, 1u);
  EXPECT_EQ(m.path().stats().read_latency.count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, AllPaths,
    ::testing::Values(PathKind::kBlockIo, PathKind::kTwoBMmio,
                      PathKind::kTwoBDma, PathKind::kPipetteNoCache,
                      PathKind::kPipette),
    [](const ::testing::TestParamInfo<PathKind>& info) {
      switch (info.param) {
        case PathKind::kBlockIo:
          return "BlockIo";
        case PathKind::kTwoBMmio:
          return "TwoBMmio";
        case PathKind::kTwoBDma:
          return "TwoBDma";
        case PathKind::kPipetteNoCache:
          return "PipetteNoCache";
        case PathKind::kPipette:
          return "Pipette";
      }
      return "Unknown";
    });

// --- Block I/O specifics ---

TEST(BlockIo, SecondReadOfSamePageHitsCache) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kBlockIo), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(128);
  const SimDuration miss = m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  const SimDuration hit = m.vfs().pread(fd, 64, {buf.data(), buf.size()});
  EXPECT_LT(hit * 10, miss);
  EXPECT_EQ(m.page_cache()->stats().lookups.hits(), 1u);
}

TEST(BlockIo, SequentialReadsTriggerReadahead) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kBlockIo), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(kBlockSize);
  // Walk pages sequentially; after the ramp, reads ahead mean later pages
  // are already resident.
  for (int p = 0; p < 16; ++p)
    m.vfs().pread(fd, static_cast<std::uint64_t>(p) * kBlockSize,
                  {buf.data(), buf.size()});
  EXPECT_GT(m.page_cache()->stats().readahead_pages, 0u);
  EXPECT_GT(m.page_cache()->stats().lookups.hits(), 0u);
}

TEST(BlockIo, RandomSmallReadsMoveWholePages) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kBlockIo), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(128);
  m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  // 128 B requested, at least 4 KiB moved: read amplification.
  EXPECT_GE(m.io_traffic_bytes(), static_cast<std::uint64_t>(kBlockSize));
}

TEST(BlockIo, TrafficIsBoundedByFetchedPages) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kBlockIo), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(kBlockSize);
  m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  const std::uint64_t t = m.io_traffic_bytes();
  m.vfs().pread(fd, 0, {buf.data(), buf.size()});  // full cache hit
  EXPECT_EQ(m.io_traffic_bytes(), t);
}

// --- 2B-SSD specifics ---

TEST(TwoBSsd, TrafficEqualsRequestedBytes) {
  const auto files = one_file();
  for (PathKind kind : {PathKind::kTwoBMmio, PathKind::kTwoBDma}) {
    Machine m(tiny_machine(kind), files);
    const int fd = m.vfs().open("data.bin", m.open_flags(false));
    std::vector<std::uint8_t> buf(333);
    m.vfs().pread(fd, 1000, {buf.data(), buf.size()});
    m.vfs().pread(fd, 200000, {buf.data(), buf.size()});
    EXPECT_EQ(m.io_traffic_bytes(), 666u) << to_string(kind);
  }
}

TEST(TwoBSsd, MmioLatencyGrowsLinearlyWithSize) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kTwoBMmio), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  // Warm the device staging buffer so tR drops out of the comparison.
  std::vector<std::uint8_t> big(4096);
  m.vfs().pread(fd, 0, {big.data(), big.size()});
  std::vector<std::uint8_t> small(64);
  const SimDuration lat_small =
      m.vfs().pread(fd, 0, {small.data(), small.size()});
  const SimDuration lat_big = m.vfs().pread(fd, 0, {big.data(), big.size()});
  // 4096/64 = 64x the transactions; allow fixed costs to dilute it.
  EXPECT_GT(lat_big, lat_small * 10);
}

TEST(TwoBSsd, DmaPaysMappingButNotPerByteTransactions) {
  const auto files = one_file();
  Machine mm(tiny_machine(PathKind::kTwoBMmio), files);
  Machine md(tiny_machine(PathKind::kTwoBDma), files);
  const int fdm = mm.vfs().open("data.bin", mm.open_flags(false));
  const int fdd = md.vfs().open("data.bin", md.open_flags(false));
  std::vector<std::uint8_t> buf(4096);
  // Warm both staging buffers.
  mm.vfs().pread(fdm, 0, {buf.data(), buf.size()});
  md.vfs().pread(fdd, 0, {buf.data(), buf.size()});
  const SimDuration mmio = mm.vfs().pread(fdm, 0, {buf.data(), buf.size()});
  const SimDuration dma = md.vfs().pread(fdd, 0, {buf.data(), buf.size()});
  EXPECT_LT(dma, mmio);  // at 4 KiB, per-access mapping beats 512 round trips
  std::vector<std::uint8_t> tiny(8);
  const SimDuration mmio8 = mm.vfs().pread(fdm, 64, {tiny.data(), tiny.size()});
  const SimDuration dma8 = md.vfs().pread(fdd, 64, {tiny.data(), tiny.size()});
  EXPECT_LT(mmio8, dma8);  // at 8 B, one round trip beats the mapping cost
}

// --- Pipette specifics ---

TEST(Pipette, FgrcHitServesWithoutDeviceTraffic) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(128);
  m.vfs().pread(fd, 6400, {buf.data(), buf.size()});  // miss: promoted
  const std::uint64_t traffic = m.io_traffic_bytes();
  const SimDuration hit = m.vfs().pread(fd, 6400, {buf.data(), buf.size()});
  EXPECT_EQ(m.io_traffic_bytes(), traffic);  // served from host DRAM
  EXPECT_LT(hit, 3 * kUs);
  EXPECT_EQ(m.pipette_path()->fgrc().stats().lookups.hits(), 1u);
}

TEST(Pipette, FineMissMovesOnlyDemandedBytes) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(96);
  m.vfs().pread(fd, 512, {buf.data(), buf.size()});
  EXPECT_EQ(m.io_traffic_bytes(), 96u);
}

TEST(Pipette, LargeAlignedReadsTakeBlockRoute) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(kBlockSize);
  m.vfs().pread(fd, 2 * kBlockSize, {buf.data(), buf.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().block_reads, 1u);
  EXPECT_EQ(m.pipette_path()->pipette_stats().fine_reads, 0u);
}

TEST(Pipette, WithoutFlagFallsBackToBlockRoute) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", kOpenRead);  // no O_FINE_GRAINED
  std::vector<std::uint8_t> buf(128);
  m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().fine_reads, 0u);
}

TEST(Pipette, CrossPageFineReadWorks) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  const FileId file = m.vfs().file_of(fd);
  std::vector<std::uint8_t> buf(512);
  const std::uint64_t offset = kBlockSize - 256;  // spans two pages
  m.vfs().pread(fd, offset, {buf.data(), buf.size()});
  for (std::uint32_t i = 0; i < 512; ++i)
    ASSERT_EQ(buf[i], expected_byte(m, file, offset + i));
  // Second read hits the single cached item.
  m.vfs().pread(fd, offset, {buf.data(), buf.size()});
  EXPECT_EQ(m.pipette_path()->fgrc().stats().lookups.hits(), 1u);
}

TEST(Pipette, WriteInvalidatesCachedItem) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> buf(128);
  m.vfs().pread(fd, 3200, {buf.data(), buf.size()});  // cached
  std::vector<std::uint8_t> data(128, 0x77);
  m.vfs().pwrite(fd, 3200, {data.data(), data.size()});
  EXPECT_EQ(m.pipette_path()->fgrc().stats().invalidations, 1u);
  m.vfs().pread(fd, 3200, {buf.data(), buf.size()});
  for (auto b : buf) ASSERT_EQ(b, 0x77);
}

TEST(Pipette, StaleCacheNeverServedAfterOverlappingWrite) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> buf(256);
  m.vfs().pread(fd, 5000, {buf.data(), buf.size()});  // cache [5000,5256)
  std::vector<std::uint8_t> data(64, 0xEE);
  m.vfs().pwrite(fd, 5100, {data.data(), data.size()});  // overlap middle
  m.vfs().pread(fd, 5000, {buf.data(), buf.size()});
  for (int i = 100; i < 164; ++i) ASSERT_EQ(buf[static_cast<size_t>(i)], 0xEE);
}

TEST(Pipette, NoCacheVariantNeverPromotes) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipetteNoCache), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(128);
  for (int i = 0; i < 5; ++i) m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  EXPECT_EQ(m.pipette_path()->fgrc().stats().promotions, 0u);
  // Every read goes to the device: traffic = 5 x 128.
  EXPECT_EQ(m.io_traffic_bytes(), 5u * 128u);
}

TEST(Pipette, NoCacheRoutesLargeReadsFineToo) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipetteNoCache), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(kBlockSize);
  m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().fine_reads, 1u);
  EXPECT_EQ(m.io_traffic_bytes(), static_cast<std::uint64_t>(kBlockSize));
}

TEST(Pipette, DetectorCountsFineAccesses) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(128);
  m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  m.vfs().pread(fd, 2048, {buf.data(), buf.size()});
  EXPECT_EQ(m.pipette_path()->detector().fine_accesses(), 2u);
}

// --- Fine-grained write extension ---

MachineConfig fine_write_machine() {
  MachineConfig c = tiny_machine(PathKind::kPipette);
  c.pipette.fine_writes = true;
  return c;
}

TEST(PipetteFineWrite, SmallWriteTakesByteAndReadsBack) {
  const auto files = one_file();
  Machine m(fine_write_machine(), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> data(96, 0x21);
  m.vfs().pwrite(fd, 7000, {data.data(), data.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().fine_writes, 1u);
  EXPECT_EQ(m.ssd().stats().fg_writes, 1u);
  std::vector<std::uint8_t> buf(96);
  m.vfs().pread(fd, 7000, {buf.data(), buf.size()});
  for (auto b : buf) ASSERT_EQ(b, 0x21);
}

TEST(PipetteFineWrite, MovesOnlyNewBytesToDevice) {
  const auto files = one_file();
  Machine m(fine_write_machine(), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> data(64, 0x33);
  m.vfs().pwrite(fd, 512, {data.data(), data.size()});
  EXPECT_EQ(m.ssd().stats().bytes_from_host, 64u);
}

TEST(PipetteFineWrite, ExactMatchUpdatesCacheInPlace) {
  const auto files = one_file();
  Machine m(fine_write_machine(), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> buf(128);
  m.vfs().pread(fd, 6400, {buf.data(), buf.size()});  // promote item
  std::vector<std::uint8_t> data(128, 0x44);
  m.vfs().pwrite(fd, 6400, {data.data(), data.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().fgrc_inplace_updates, 1u);
  // Next read is a warm FGRC hit with the NEW bytes.
  const auto hits0 = m.pipette_path()->fgrc().stats().lookups.hits();
  m.vfs().pread(fd, 6400, {buf.data(), buf.size()});
  EXPECT_EQ(m.pipette_path()->fgrc().stats().lookups.hits(), hits0 + 1);
  for (auto b : buf) ASSERT_EQ(b, 0x44);
}

TEST(PipetteFineWrite, OverlappingNonExactItemIsInvalidated) {
  const auto files = one_file();
  Machine m(fine_write_machine(), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> buf(256);
  m.vfs().pread(fd, 6000, {buf.data(), buf.size()});  // item [6000,6256)
  std::vector<std::uint8_t> data(32, 0x55);
  m.vfs().pwrite(fd, 6100, {data.data(), data.size()});  // inside the item
  m.vfs().pread(fd, 6000, {buf.data(), buf.size()});
  for (int i = 100; i < 132; ++i) ASSERT_EQ(buf[static_cast<size_t>(i)], 0x55);
}

TEST(PipetteFineWrite, DirtyPageCachePageFallsBackToBlockWrite) {
  const auto files = one_file();
  Machine m(fine_write_machine(), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  // A large write dirties the page via the block route.
  std::vector<std::uint8_t> big(2 * kBlockSize, 0x66);
  m.vfs().pwrite(fd, 0, {big.data(), big.size()});
  // A small write to the dirty page must merge through the page cache.
  std::vector<std::uint8_t> small(64, 0x77);
  m.vfs().pwrite(fd, 100, {small.data(), small.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().fine_writes, 0u);
  std::vector<std::uint8_t> buf(256);
  m.vfs().pread(fd, 0, {buf.data(), buf.size()});
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t want = (i >= 100 && i < 164) ? 0x77 : 0x66;
    ASSERT_EQ(buf[static_cast<size_t>(i)], want) << i;
  }
}

TEST(PipetteFineWrite, CleanResidentPageIsInvalidatedNotStale) {
  const auto files = one_file();
  Machine m(fine_write_machine(), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  // A block-routed read makes the page resident (clean).
  std::vector<std::uint8_t> page(kBlockSize);
  m.vfs().pread(fd, 3 * kBlockSize, {page.data(), page.size()});
  // Fine write to that page.
  std::vector<std::uint8_t> data(64, 0x88);
  m.vfs().pwrite(fd, 3 * kBlockSize + 10, {data.data(), data.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().fine_writes, 1u);
  // A block-routed read must not serve the stale cached page.
  m.vfs().pread(fd, 3 * kBlockSize, {page.data(), page.size()});
  for (int i = 10; i < 74; ++i) ASSERT_EQ(page[static_cast<size_t>(i)], 0x88);
}

TEST(PipetteFineWrite, DisabledByDefault) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  std::vector<std::uint8_t> data(64, 0x99);
  m.vfs().pwrite(fd, 0, {data.data(), data.size()});
  EXPECT_EQ(m.pipette_path()->pipette_stats().fine_writes, 0u);
  EXPECT_EQ(m.ssd().stats().fg_writes, 0u);
}

// --- Async read-ahead ---

TEST(AsyncReadahead, InFlightPageIsAwaitedNotReRead) {
  const auto files = one_file();
  MachineConfig c = tiny_machine(PathKind::kBlockIo);
  c.readahead = ReadaheadConfig{4, 32, true};
  Machine m(c, files);
  const int fd = m.vfs().open("data.bin", m.open_flags(false));
  std::vector<std::uint8_t> buf(kBlockSize);
  // Sequential reads: the follow-up pages ride the read-ahead.
  for (int p = 0; p < 24; ++p)
    m.vfs().pread(fd, static_cast<std::uint64_t>(p) * kBlockSize,
                  {buf.data(), buf.size()});
  // Device page reads must stay close to 24 + the read-ahead tail — well
  // below 2x, which duplicate fetches of in-flight pages would cause.
  EXPECT_LE(m.ssd().nand().stats().page_reads, 60u);
  // And the bytes are still correct.
  const FileId file = m.vfs().file_of(fd);
  m.vfs().pread(fd, 5 * kBlockSize, {buf.data(), buf.size()});
  for (std::uint32_t i = 0; i < kBlockSize; ++i)
    ASSERT_EQ(buf[i], expected_byte(m, file, 5 * kBlockSize + i));
}

TEST(AsyncReadahead, SequentialFasterThanRandom) {
  const auto files = one_file();
  MachineConfig c = tiny_machine(PathKind::kBlockIo);
  c.readahead = ReadaheadConfig{4, 32, true};
  c.page_cache_bytes = 4 * kMiB;
  Machine seqm(c, files);
  Machine rndm(c, files);
  const int fs_ = seqm.vfs().open("data.bin", seqm.open_flags(false));
  const int fr = rndm.vfs().open("data.bin", rndm.open_flags(false));
  std::vector<std::uint8_t> buf(kBlockSize);
  SimDuration seq_total = 0, rnd_total = 0;
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    seq_total += seqm.vfs().pread(
        fs_, static_cast<std::uint64_t>(i) * kBlockSize,
        {buf.data(), buf.size()});
    rnd_total += rndm.vfs().pread(
        fr, rng.next_below(8 * kMiB / kBlockSize) * kBlockSize,
        {buf.data(), buf.size()});
  }
  EXPECT_LT(seq_total * 2, rnd_total);  // read-ahead pays off
}

TEST(Pipette, PageCacheResidencyServesFineReads) {
  const auto files = one_file();
  Machine m(tiny_machine(PathKind::kPipette), files);
  const int fd = m.vfs().open("data.bin", m.open_flags(true));
  // A write makes the page resident (and dirty) in the page cache.
  std::vector<std::uint8_t> data(128, 0x31);
  m.vfs().pwrite(fd, 0, {data.data(), data.size()});
  std::vector<std::uint8_t> buf(64);
  m.vfs().pread(fd, 32, {buf.data(), buf.size()});
  for (auto b : buf) ASSERT_EQ(b, 0x31);
  EXPECT_EQ(m.pipette_path()->pipette_stats().page_cache_served_fine, 1u);
}

}  // namespace
}  // namespace pipette
