// Tests for the generic block layer: request merging, closed-loop dispatch
// to the device straight into page-cache frames, frame accounting when runs
// fail or read-ahead is superseded, and the allocation-free warm read path.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "blockio/block_layer.h"
#include "common/inline_function.h"
#include "common/rng.h"
#include "counting_new.h"
#include "fs/filesystem.h"
#include "iopath/block_io_path.h"

namespace pipette {
namespace {

// Page reads of `lbas`, each tagged with its own LBA.
std::vector<PageRead> reads_of(std::vector<Lba> lbas) {
  std::vector<PageRead> reads;
  for (Lba lba : lbas) reads.push_back({lba, lba});
  return reads;
}

std::vector<ReadRun> runs_of(std::vector<PageRead> reads) {
  std::vector<ReadRun> runs;
  BlockLayer::merge(reads, runs);
  return runs;
}

TEST(Merge, EmptyAndSingle) {
  EXPECT_TRUE(runs_of({}).empty());
  const auto runs = runs_of(reads_of({7}));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (ReadRun{7, 1, 0}));
}

TEST(Merge, ContiguousRunsCoalesce) {
  const auto runs = runs_of(reads_of({5, 3, 4, 10, 11, 20}));
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (ReadRun{3, 3, 0}));
  EXPECT_EQ(runs[1], (ReadRun{10, 2, 3}));
  EXPECT_EQ(runs[2], (ReadRun{20, 1, 5}));
}

TEST(Merge, DuplicatesCollapse) {
  std::vector<PageRead> reads = {{5, 2}, {4, 9}, {4, 1}, {5, 0}, {6, 3}};
  std::vector<ReadRun> runs;
  BlockLayer::merge(reads, runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (ReadRun{4, 3, 0}));
  // Sorted by LBA; a repeated LBA keeps its lowest tag.
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_EQ(reads[0].lba, 4u);
  EXPECT_EQ(reads[0].tag, 1u);
  EXPECT_EQ(reads[1].lba, 5u);
  EXPECT_EQ(reads[1].tag, 0u);
  EXPECT_EQ(reads[2].tag, 3u);
}

ControllerConfig small_config() {
  ControllerConfig c;
  c.geometry.channels = 4;
  c.geometry.ways_per_channel = 2;
  c.geometry.planes_per_die = 1;
  c.geometry.blocks_per_plane = 16;
  c.geometry.pages_per_block = 64;
  c.lba_count = 4096;
  return c;
}

struct BlockLayerFixture : ::testing::Test {
  Simulator sim;
  SsdController ctrl{sim, small_config()};
  BlockLayer layer{sim, ctrl, HostTiming{}};
  FramePool pool{64};

  // Read `lbas` synchronously, dropping every delivered frame.
  bool read(std::vector<Lba> lbas) {
    return layer.read_pages(reads_of(std::move(lbas)), pool,
                            [this](const PageRead&, std::uint8_t* frame) {
                              pool.give_back(frame);
                            });
  }
};

TEST_F(BlockLayerFixture, ReadPagesDeliversCorrectBytes) {
  std::map<Lba, std::vector<std::uint8_t>> got;
  layer.read_pages(reads_of({42, 10, 11}), pool,
                   [&](const PageRead& read, std::uint8_t* frame) {
                     EXPECT_EQ(read.tag, read.lba);
                     got[read.lba].assign(frame, frame + kBlockSize);
                     pool.give_back(frame);
                   });
  ASSERT_EQ(got.size(), 3u);
  for (const auto& [lba, bytes] : got) {
    for (std::uint32_t i = 0; i < kBlockSize; ++i)
      ASSERT_EQ(bytes[i], ctrl.content().pristine_byte(lba, i)) << lba;
  }
  EXPECT_EQ(pool.frames_held(), 0u);
}

TEST_F(BlockLayerFixture, DeliveredFramesAreTheSinksUntilGivenBack) {
  std::vector<std::uint8_t*> kept;
  layer.read_pages(reads_of({1, 2, 9}), pool,
                   [&](const PageRead&, std::uint8_t* frame) {
                     kept.push_back(frame);
                   });
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(pool.frames_held(), 3u);
  EXPECT_EQ(std::set<std::uint8_t*>(kept.begin(), kept.end()).size(), 3u);
  for (std::uint8_t* frame : kept) pool.give_back(frame);
  EXPECT_EQ(pool.frames_held(), 0u);
}

TEST_F(BlockLayerFixture, MergingReducesCommandCount) {
  read({1, 2, 3, 4});
  EXPECT_EQ(layer.stats().page_requests, 4u);
  EXPECT_EQ(layer.stats().merged_requests, 1u);
  EXPECT_EQ(ctrl.stats().commands, 1u);
}

TEST_F(BlockLayerFixture, DiscontiguousPagesIssueSeparateCommands) {
  read({1, 100, 200});
  EXPECT_EQ(layer.stats().merged_requests, 3u);
  EXPECT_EQ(ctrl.stats().commands, 3u);
}

TEST_F(BlockLayerFixture, ClockAdvancesAcrossRead) {
  const SimTime t0 = sim.now();
  read({5});
  EXPECT_GT(sim.now(), t0);
}

TEST_F(BlockLayerFixture, ConcurrentRunsOverlapOnDevice) {
  // Two discontiguous single-page runs on different channels should take
  // far less than twice a single run.
  const SimTime t0 = sim.now();
  read({0});
  const SimDuration one = sim.now() - t0;
  const SimTime t1 = sim.now();
  read({101, 202});
  const SimDuration two = sim.now() - t1;
  EXPECT_LT(two, one + one / 2);
}

TEST_F(BlockLayerFixture, WritePagePersists) {
  std::vector<std::uint8_t> data(kBlockSize, 0x77);
  layer.write_page(9, data.data());
  std::vector<std::uint8_t> out(16);
  ctrl.content().read(9, 0, {out.data(), out.size()});
  for (auto b : out) EXPECT_EQ(b, 0x77);
}

TEST(MergeProperty, CoversExactlyTheInputSet) {
  // Random LBA multisets: the merged runs must cover exactly the distinct
  // input LBAs, without overlap, in ascending order.
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Lba> lbas;
    const std::size_t n = 1 + rng.next_below(64);
    for (std::size_t i = 0; i < n; ++i) lbas.push_back(rng.next_below(96));
    std::set<Lba> expected(lbas.begin(), lbas.end());

    std::set<Lba> covered;
    Lba prev_end = 0;
    bool first = true;
    std::vector<PageRead> reads = reads_of(lbas);
    std::vector<ReadRun> runs;
    BlockLayer::merge(reads, runs);
    std::uint32_t next_first = 0;
    for (const auto& [start, count, first_page] : runs) {
      ASSERT_GT(count, 0u);
      ASSERT_EQ(first_page, next_first);  // runs index the merged list
      next_first += count;
      for (std::uint32_t i = 0; i < count; ++i)
        ASSERT_EQ(reads[first_page + i].lba, start + i);
      if (!first) {
        ASSERT_GT(start, prev_end);  // ascending, non-adjacent
      }
      first = false;
      prev_end = start + count - 1;
      for (std::uint32_t i = 0; i < count; ++i) {
        ASSERT_TRUE(covered.insert(start + i).second);
      }
    }
    ASSERT_EQ(covered, expected) << "trial " << trial;
  }
}

TEST_F(BlockLayerFixture, AsyncReadDeliversLater) {
  bool delivered = false;
  layer.read_pages_async(reads_of({7}), pool,
                         [&](const PageRead&, std::uint8_t* frame) {
                           delivered = true;
                           pool.give_back(frame);
                         });
  EXPECT_FALSE(delivered);  // returns before the device completes
  EXPECT_EQ(pool.frames_held(), 1u);  // the frame is in flight
  sim.run_all();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(pool.frames_held(), 0u);
}

TEST_F(BlockLayerFixture, AsyncReadDataIsCorrect) {
  std::map<Lba, std::vector<std::uint8_t>> got;
  // Two runs, so the batch record is shared by two completions.
  layer.read_pages_async(reads_of({11, 40, 12}), pool,
                         [&](const PageRead& read, std::uint8_t* frame) {
                           got[read.lba].assign(frame, frame + kBlockSize);
                           pool.give_back(frame);
                         });
  sim.run_all();
  ASSERT_EQ(got.size(), 3u);
  for (const auto& [lba, bytes] : got) {
    for (std::uint32_t i = 0; i < kBlockSize; ++i)
      ASSERT_EQ(bytes[i], ctrl.content().pristine_byte(lba, i)) << lba;
  }
  // The recycled batch serves a second call.
  layer.read_pages_async(reads_of({3}), pool,
                         [&](const PageRead& read, std::uint8_t* frame) {
                           got[read.lba].assign(frame, frame + kBlockSize);
                           pool.give_back(frame);
                         });
  sim.run_all();
  EXPECT_EQ(got[3][0], ctrl.content().pristine_byte(3, 0));
  EXPECT_EQ(pool.frames_held(), 0u);
}

TEST_F(BlockLayerFixture, TrafficCountsWholePages) {
  read({1, 2});
  EXPECT_EQ(ctrl.stats().bytes_to_host, 2u * kBlockSize);
}

// --- Failed runs give their frames back ---

struct FaultyBlockLayer : ::testing::Test {
  static ControllerConfig faulty_config() {
    ControllerConfig c = small_config();
    c.faults.nand.read_error_rate = 1.0;  // every read exhausts its retries
    return c;
  }
  Simulator sim;
  SsdController ctrl{sim, faulty_config()};
  BlockLayer layer{sim, ctrl, HostTiming{}};
  FramePool pool{64};
};

TEST_F(FaultyBlockLayer, FailedSyncRunReturnsItsFrames) {
  int delivered = 0;
  const bool ok = layer.read_pages(
      reads_of({3, 4, 50}), pool,
      [&](const PageRead&, std::uint8_t* frame) {
        ++delivered;
        pool.give_back(frame);
      });
  EXPECT_FALSE(ok);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(pool.frames_held(), 0u);
  EXPECT_GT(ctrl.stats().media_errors, 0u);
}

TEST_F(FaultyBlockLayer, FailedAsyncRunReachesTheSinkWithNullFrames) {
  int nulls = 0;
  layer.read_pages_async(reads_of({3, 4, 50}), pool,
                         [&](const PageRead&, std::uint8_t* frame) {
                           if (frame == nullptr) ++nulls;
                         });
  EXPECT_EQ(pool.frames_held(), 3u);
  sim.run_all();
  EXPECT_EQ(nulls, 3);
  EXPECT_EQ(pool.frames_held(), 0u);
}

// --- The block I/O path over the frame pool ---

// A block I/O path over a 256-page file and a 64-page page cache.
struct BlockIoRig {
  static constexpr std::uint64_t kFilePages = 256;
  static constexpr std::uint64_t kCachePages = 64;

  explicit BlockIoRig(ReadaheadConfig ra)
      : path(sim, ctrl, fs, HostTiming{}, kCachePages * kBlockSize, ra) {}

  // Pristine content of the file's byte at `offset` (reuses its scratch, so
  // a warm call allocates nothing).
  std::uint8_t expected(std::uint64_t offset) {
    ranges.clear();
    fs.extract_lbas(file, offset, 1, ranges);
    return ctrl.content().pristine_byte(ranges[0].lba, ranges[0].offset);
  }

  Simulator sim;
  SsdController ctrl{sim, small_config()};
  FileSystem fs{small_config().lba_count};
  FileId file = fs.create("data.bin", kFilePages * kBlockSize);
  BlockIoPath path;
  std::vector<LbaRange> ranges;
};

constexpr ReadaheadConfig kReadahead{4, 32, true};

// A page written while its read-ahead is in flight keeps the written bytes;
// the read-ahead's frame goes back to the pool instead of into the cache.
TEST(BlockIo, ReadaheadFrameOfAPageWrittenInFlightIsReleased) {
  BlockIoRig rig(kReadahead);
  BlockIoPath& path = rig.path;
  const FileId file = rig.file;
  std::vector<std::uint8_t> out(100);
  path.read(file, kOpenRead, 10 * kBlockSize, out);  // demand 10, RA 11-13
  PageCache& pc = path.page_cache();
  EXPECT_EQ(pc.resident_pages(), 1u);
  EXPECT_EQ(pc.frames_held(), 1u + 3u);  // page 10 + three in flight

  const std::vector<std::uint8_t> page(kBlockSize, 0x5C);
  path.write(file, kOpenWrite, 11 * kBlockSize, page);  // full overwrite
  EXPECT_EQ(pc.frames_held(), 2u + 3u);

  rig.sim.run_all();  // read-ahead lands: 12 and 13 enter, 11's is dropped
  EXPECT_EQ(pc.resident_pages(), 4u);
  EXPECT_EQ(pc.frames_held(), pc.resident_pages());
  const CachedPage* cp = pc.get({file, 11});
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->data[0], 0x5C);
  EXPECT_EQ(cp->data[kBlockSize - 1], 0x5C);
  EXPECT_EQ(pc.get({file, 12})->data[7], rig.expected(12 * kBlockSize + 7));
}

// A page demand-fetched (read-modify-write) while its read-ahead is in
// flight: one of the two copies gives its frame back, so frames held match
// resident pages once the device is idle, and the write survives.
TEST(BlockIo, ReadaheadFrameOfAPageDemandFetchedInFlightIsReleased) {
  BlockIoRig rig(kReadahead);
  BlockIoPath& path = rig.path;
  const FileId file = rig.file;
  std::vector<std::uint8_t> out(100);
  path.read(file, kOpenRead, 20 * kBlockSize, out);  // demand 20, RA 21-23
  PageCache& pc = path.page_cache();
  ASSERT_EQ(pc.frames_held(), 1u + 3u);

  const std::vector<std::uint8_t> patch(16, 0xE1);
  path.write(file, kOpenWrite, 22 * kBlockSize + 100, patch);  // RMW fetch
  rig.sim.run_all();
  // The read-ahead of page 22 was queued first on its die, so it landed
  // while the demand fetch waited; the fetch's insert then replaced the
  // resident read-ahead page and released that frame.
  EXPECT_EQ(pc.resident_pages(), 4u);
  EXPECT_EQ(pc.frames_held(), pc.resident_pages());
  const CachedPage* cp = pc.get({file, 22});
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->data[100], 0xE1);
  EXPECT_EQ(cp->data[99], rig.expected(22 * kBlockSize + 99));
  EXPECT_EQ(cp->data[116], rig.expected(22 * kBlockSize + 116));
}

// Once warm, the synchronous block read path performs no heap work: hits
// and demand misses (one- and two-page spans) go through the page cache,
// the block layer's member scratch and the frame pool, the device and the
// event queue without a single operator new or InlineFunction fallback.
TEST(BlockIo, WarmBufferedReadsAreAllocationFree) {
  BlockIoRig rig(ReadaheadConfig{4, 32, /*enabled=*/false});
  BlockIoPath& path = rig.path;
  const FileId file = rig.file;
  const std::uint64_t kFilePages = BlockIoRig::kFilePages;
  Rng rng(23);
  std::vector<std::uint8_t> out(kBlockSize);
  std::uint64_t mismatches = 0;
  auto run = [&](int reads) {
    for (int i = 0; i < reads; ++i) {
      // Uniform over the file: about a quarter of the reads hit.
      const std::uint64_t offset =
          rng.next_below(kFilePages * kBlockSize - out.size());
      path.read(file, kOpenRead, offset, out);
      if (out[0] != rig.expected(offset) ||
          out[out.size() - 1] != rig.expected(offset + out.size() - 1))
        ++mismatches;
    }
  };
  run(4000);  // warm every pool and scratch buffer to its high-water mark

  const PageCacheStats before = path.page_cache().stats();
  const std::uint64_t news_before =
      g_operator_new_calls.load(std::memory_order_relaxed);
  const std::uint64_t heap_before = inline_function_heap_allocations();
  run(3000);
  const std::uint64_t news_delta =
      g_operator_new_calls.load(std::memory_order_relaxed) - news_before;
  const std::uint64_t heap_delta =
      inline_function_heap_allocations() - heap_before;

  EXPECT_EQ(news_delta, 0u);
  EXPECT_EQ(heap_delta, 0u);
  EXPECT_EQ(mismatches, 0u);
  const PageCacheStats& after = path.page_cache().stats();
  EXPECT_GT(after.lookups.hits(), before.lookups.hits() + 500);
  EXPECT_GT(after.lookups.misses(), before.lookups.misses() + 1000);
  EXPECT_EQ(after.readahead_pages, 0u);
  EXPECT_EQ(path.page_cache().frames_held(),
            path.page_cache().resident_pages());
}

}  // namespace
}  // namespace pipette
