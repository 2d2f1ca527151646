// Tests for the host page cache: hit/miss accounting, LRU eviction,
// read-ahead window planning, dirty-page writeback, and pollution tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "hostmem/page_cache.h"

namespace pipette {
namespace {

// Insert a page whose every byte is `fill`, in a frame from the cache's
// pool (as the block read path does).
void insert_filled(PageCache& pc, const PageKey& key, std::uint8_t fill,
                   bool demand) {
  std::uint8_t* frame = pc.frames().take();
  std::memset(frame, fill, kBlockSize);
  pc.insert(key, frame, demand);
}

TEST(PageCache, MissThenHit) {
  PageCache pc(16 * kBlockSize);
  EXPECT_EQ(pc.lookup({1, 0}), nullptr);
  insert_filled(pc, {1, 0}, 0xAA, /*demand=*/true);
  CachedPage* p = pc.lookup({1, 0});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->data[0], 0xAA);
  EXPECT_EQ(pc.stats().lookups.hits(), 1u);
  EXPECT_EQ(pc.stats().lookups.misses(), 1u);
}

TEST(PageCache, CapacityEvictsLru) {
  PageCache pc(2 * kBlockSize);
  insert_filled(pc, {1, 0}, 1, true);
  insert_filled(pc, {1, 1}, 2, true);
  ASSERT_NE(pc.lookup({1, 0}), nullptr);       // promote page 0
  insert_filled(pc, {1, 2}, 3, true);  // evicts page 1
  EXPECT_TRUE(pc.contains({1, 0}));
  EXPECT_FALSE(pc.contains({1, 1}));
  EXPECT_EQ(pc.stats().evictions, 1u);
}

TEST(PageCache, ContainsDoesNotCountAsDemand) {
  PageCache pc(4 * kBlockSize);
  insert_filled(pc, {1, 0}, 1, true);
  EXPECT_TRUE(pc.contains({1, 0}));
  EXPECT_EQ(pc.stats().lookups.accesses(), 0u);
}

TEST(PageCache, PollutionTracking) {
  PageCache pc(2 * kBlockSize);
  insert_filled(pc, {1, 0}, 1, /*demand=*/false);  // read-ahead fill
  insert_filled(pc, {1, 1}, 2, false);
  EXPECT_EQ(pc.stats().readahead_pages, 2u);
  insert_filled(pc, {1, 2}, 3, true);  // evicts the RA page 0
  EXPECT_EQ(pc.stats().evicted_never_used, 1u);
}

TEST(PageCache, ReadaheadPagePromotedByDemandHitIsNotPollution) {
  PageCache pc(2 * kBlockSize);
  insert_filled(pc, {1, 0}, 1, false);
  ASSERT_NE(pc.lookup({1, 0}), nullptr);  // demand touches it
  insert_filled(pc, {1, 1}, 2, true);
  insert_filled(pc, {1, 2}, 3, true);  // evicts page 0
  EXPECT_EQ(pc.stats().evicted_never_used, 0u);
}

TEST(PageCache, InvalidateRemovesPage) {
  PageCache pc(4 * kBlockSize);
  insert_filled(pc, {2, 7}, 9, true);
  EXPECT_TRUE(pc.invalidate({2, 7}));
  EXPECT_FALSE(pc.contains({2, 7}));
  EXPECT_FALSE(pc.invalidate({2, 7}));
}

TEST(PageCache, DirtyEvictionTriggersWriteback) {
  PageCache pc(1 * kBlockSize);
  std::vector<std::pair<PageKey, std::uint8_t>> written;
  pc.set_writeback([&](const PageKey& k, const std::uint8_t* d) {
    written.emplace_back(k, d[0]);
  });
  insert_filled(pc, {1, 0}, 0x42, true);
  pc.mark_dirty({1, 0});
  insert_filled(pc, {1, 1}, 0x43, true);  // evicts dirty page 0
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0].first, (PageKey{1, 0}));
  EXPECT_EQ(written[0].second, 0x42);
}

TEST(PageCache, FlushWritesAllDirtyPages) {
  PageCache pc(8 * kBlockSize);
  insert_filled(pc, {1, 0}, 1, true);
  insert_filled(pc, {1, 1}, 2, true);
  pc.mark_dirty({1, 0});
  pc.mark_dirty({1, 1});
  int flushed = 0;
  pc.flush([&](const PageKey&, const std::uint8_t*) { ++flushed; });
  EXPECT_EQ(flushed, 2);
  // Second flush: nothing dirty anymore.
  flushed = 0;
  pc.flush([&](const PageKey&, const std::uint8_t*) { ++flushed; });
  EXPECT_EQ(flushed, 0);
}

TEST(PageCache, DirtyInvalidateWritesBack) {
  PageCache pc(4 * kBlockSize);
  int writebacks = 0;
  pc.set_writeback(
      [&](const PageKey&, const std::uint8_t*) { ++writebacks; });
  insert_filled(pc, {3, 1}, 5, true);
  pc.mark_dirty({3, 1});
  pc.invalidate({3, 1});
  EXPECT_EQ(writebacks, 1);
}

TEST(PageCache, SetCapacityShrinkEvicts) {
  PageCache pc(4 * kBlockSize);
  for (std::uint64_t i = 0; i < 4; ++i)
    insert_filled(pc, {1, i}, static_cast<std::uint8_t>(i), true);
  pc.set_capacity_pages(2);
  EXPECT_EQ(pc.resident_pages(), 2u);
  EXPECT_EQ(pc.stats().evictions, 2u);
  EXPECT_FALSE(pc.contains({1, 0}));
  EXPECT_TRUE(pc.contains({1, 3}));
}

TEST(PageCache, ReinsertReleasesTheOldFrame) {
  PageCache pc(4 * kBlockSize);
  insert_filled(pc, {1, 0}, 1, true);
  insert_filled(pc, {1, 0}, 2, false);
  EXPECT_EQ(pc.resident_pages(), 1u);
  EXPECT_EQ(pc.frames_held(), 1u);
  EXPECT_EQ(pc.get({1, 0})->data[0], 2);
}

TEST(PageCache, ConstructionAllocatesNoFrames) {
  PageCache pc(1ull << 30);
  EXPECT_EQ(pc.frames().frames_allocated(), 0u);
  EXPECT_EQ(pc.frames_held(), 0u);
}

// Frames held must always equal resident pages (nothing is in flight at
// this level) through every way a page enters or leaves the cache, and the
// pool must never hold more frames than the largest capacity it was sized
// for plus the one fill in hand (an insert into a full cache takes its frame
// before the eviction frees one). Resident pages keep the bytes of their
// latest insert.
TEST(PageCache, FramesHeldTrackResidentPagesThroughEveryRelease) {
  PageCache pc(16 * kBlockSize);
  int writebacks = 0;
  pc.set_writeback([&](const PageKey& key, const std::uint8_t* data) {
    ++writebacks;
    EXPECT_EQ(data[0], static_cast<std::uint8_t>(key.page));
  });
  std::uint64_t max_capacity = pc.capacity_pages();
  Rng rng(17);
  for (int op = 0; op < 20000; ++op) {
    const PageKey key{1 + static_cast<std::uint32_t>(rng.next_below(2)),
                      rng.next_below(48)};
    const double dice = rng.next_double();
    if (dice < 0.55) {
      insert_filled(pc, key, static_cast<std::uint8_t>(key.page),
                    rng.next_bool(0.5));
      if (rng.next_bool(0.2)) pc.mark_dirty(key);  // dirty evictions too
    } else if (dice < 0.8) {
      if (const CachedPage* cp = pc.lookup(key)) {
        ASSERT_EQ(cp->data[0], static_cast<std::uint8_t>(key.page));
        ASSERT_EQ(cp->data[kBlockSize - 1],
                  static_cast<std::uint8_t>(key.page));
      }
    } else if (dice < 0.95) {
      if (pc.contains(key) && rng.next_bool(0.5)) pc.mark_dirty(key);
      pc.invalidate(key);  // clean or dirty
    } else if (dice < 0.99) {
      const std::uint64_t pages = 1 + rng.next_below(24);  // shrink or grow
      pc.set_capacity_pages(pages);
      max_capacity = std::max(max_capacity, pages);
    } else {
      pc.flush([](const PageKey&, const std::uint8_t*) {});
      pc.clear();  // then keep going: the cache is reused
      ASSERT_EQ(pc.resident_pages(), 0u);
    }
    ASSERT_EQ(pc.frames_held(), pc.resident_pages()) << "op " << op;
    ASSERT_LE(pc.frames().frames_allocated(), max_capacity + 1)
        << "op " << op;
  }
  EXPECT_GT(writebacks, 0);
  EXPECT_GT(pc.stats().evictions, 0u);
}

#if defined(__SANITIZE_ADDRESS__)
// In an AddressSanitizer build the pool poisons released frames, so a
// write through a stale pointer is reported instead of landing silently in
// a frame that may already hold another page.
TEST(FramePoolDeathTest, WriteToAReleasedFrameIsReported) {
  FramePool pool(4);
  std::uint8_t* frame = pool.take();
  pool.give_back(frame);
  EXPECT_DEATH(static_cast<volatile std::uint8_t*>(frame)[1] = 2,
               "use-after-poison");
}
#endif

// --- Read-ahead planning ---

TEST(Readahead, RandomMissGetsInitialWindow) {
  ReadaheadConfig ra{4, 32, true};
  PageCache pc(64 * kBlockSize, ra);
  // 1-page demand at a random spot: window 4 => 3 extra pages.
  EXPECT_EQ(pc.plan_readahead({1, 100}, 1), 3u);
  // Another random spot: still the initial window.
  EXPECT_EQ(pc.plan_readahead({1, 5000}, 1), 3u);
}

TEST(Readahead, SequentialStreamDoublesWindow) {
  ReadaheadConfig ra{4, 32, true};
  PageCache pc(64 * kBlockSize, ra);
  EXPECT_EQ(pc.plan_readahead({1, 10}, 1), 3u);   // window 4, next=14
  EXPECT_EQ(pc.plan_readahead({1, 14}, 1), 7u);   // window 8, next=22
  EXPECT_EQ(pc.plan_readahead({1, 22}, 1), 15u);  // window 16
  EXPECT_EQ(pc.plan_readahead({1, 38}, 1), 31u);  // window 32 (cap)
  EXPECT_EQ(pc.plan_readahead({1, 70}, 1), 31u);  // stays at cap
}

TEST(Readahead, RandomJumpResetsWindow) {
  ReadaheadConfig ra{4, 32, true};
  PageCache pc(64 * kBlockSize, ra);
  pc.plan_readahead({1, 10}, 1);
  pc.plan_readahead({1, 14}, 1);  // ramped to 8
  EXPECT_EQ(pc.plan_readahead({1, 999}, 1), 3u);  // reset to initial
}

TEST(Readahead, DisabledReturnsZero) {
  ReadaheadConfig ra{4, 32, false};
  PageCache pc(64 * kBlockSize, ra);
  EXPECT_EQ(pc.plan_readahead({1, 10}, 1), 0u);
}

TEST(Readahead, LargeDemandSwallowsWindow) {
  ReadaheadConfig ra{4, 32, true};
  PageCache pc(64 * kBlockSize, ra);
  // Demand spans 6 pages > initial window: no extra pages.
  EXPECT_EQ(pc.plan_readahead({1, 10}, 6), 0u);
}

TEST(Readahead, StreamsArePerFile) {
  ReadaheadConfig ra{4, 32, true};
  PageCache pc(64 * kBlockSize, ra);
  pc.plan_readahead({1, 10}, 1);
  // Same page index on another file is not a continuation.
  EXPECT_EQ(pc.plan_readahead({2, 14}, 1), 3u);
  // File 1's stream is still intact.
  EXPECT_EQ(pc.plan_readahead({1, 14}, 1), 7u);
}

}  // namespace
}  // namespace pipette
