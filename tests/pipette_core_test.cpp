// Tests for Pipette's core machinery: the slab store (allocation classes,
// LRU eviction, cleanup arrays, slab migration), the adaptive caching
// threshold, the ghost reference tracker, the detector/dispatcher, and the
// FGRC facade (promotion, TempBuf, invalidation, dynamic allocation,
// reassignment), and a differential fuzz of the FGRC's flat index against
// the multimap + hash-map index it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "fs/vfs.h"
#include "pipette/detector.h"
#include "pipette/fgrc.h"

namespace pipette {
namespace {

Hmb::Layout small_layout(std::uint64_t data_bytes = 64 * 1024) {
  Hmb::Layout l;
  l.info_slots = 64;
  l.tempbuf_bytes = 8 * 1024;
  l.data_bytes = data_bytes;
  return l;
}

SlabConfig small_slabs() {
  SlabConfig c;
  c.slab_size = 8 * 1024;
  c.class_sizes = {64, 128, 256, 512, 1024};
  c.max_external_bytes = 64 * 1024;
  return c;
}

// --- Hmb backing bytes ---

// The HMB starts all zero across Info, TempBuf and Data, whatever backs it,
// and the very last Data Area byte is addressable.
TEST(HmbZeroInit, FreshRegionReadsZeroAndLastByteRoundTrips) {
  Hmb hmb{small_layout()};
  ASSERT_EQ(hmb.size(), hmb.data_offset() + 64 * 1024);
  ASSERT_GT(hmb.tempbuf_offset(), 0u);  // a non-empty Info Area precedes
  std::vector<std::uint8_t> all(hmb.size(), 0xff);
  hmb.read(0, {all.data(), all.size()});
  EXPECT_EQ(std::count(all.begin(), all.end(), 0),
            static_cast<std::ptrdiff_t>(all.size()));

  const HmbAddr last = hmb.size() - 1;
  const std::uint8_t in = 0xa5;
  hmb.dma_window(last, 1)[0] = in;
  std::uint8_t tail[2] = {0xff, 0xff};
  hmb.read(last - 1, {tail, 2});
  EXPECT_EQ(tail[0], 0u);  // the neighbour stays zero
  EXPECT_EQ(tail[1], in);
}

// --- SlabStore ---

struct SlabStoreFixture : ::testing::Test {
  Hmb hmb{small_layout()};  // 64 KiB data area = 8 slabs of 8 KiB
  SlabStore store{hmb, small_slabs()};
};

TEST_F(SlabStoreFixture, ClassSelection) {
  EXPECT_EQ(store.class_for(1), 0u);
  EXPECT_EQ(store.class_for(64), 0u);
  EXPECT_EQ(store.class_for(65), 1u);
  EXPECT_EQ(store.class_for(128), 1u);
  EXPECT_EQ(store.class_for(1024), 4u);
}

TEST_F(SlabStoreFixture, AllocateAssignsDistinctAddresses) {
  std::set<HmbAddr> addrs;
  for (int i = 0; i < 100; ++i) {
    auto loc = store.allocate({1, static_cast<std::uint64_t>(i) * 64, 64});
    ASSERT_TRUE(loc.has_value());
    EXPECT_TRUE(addrs.insert(store.hmb_addr(*loc)).second);
  }
  EXPECT_EQ(store.stats().live_items, 100u);
}

TEST_F(SlabStoreFixture, AddressesAreItemAligned) {
  auto a = store.allocate({1, 0, 100});  // class 128
  auto b = store.allocate({1, 200, 100});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(store.hmb_addr(*b) - store.hmb_addr(*a), 128u);
}

TEST_F(SlabStoreFixture, DataViewSeesHmbBytes) {
  auto loc = store.allocate({1, 0, 64});
  ASSERT_TRUE(loc);
  std::ranges::fill(hmb.dma_window(store.hmb_addr(*loc), 64), 0x3C);
  auto view = store.data(*loc);
  ASSERT_EQ(view.size(), 64u);
  for (auto b : view) EXPECT_EQ(b, 0x3C);
}

TEST_F(SlabStoreFixture, ExhaustionReturnsNullopt) {
  // 8 slabs x 128 items of 64B = 1024 items max for class 0.
  std::uint64_t allocated = 0;
  while (store.allocate({1, allocated * 64, 64})) ++allocated;
  EXPECT_EQ(allocated, 8u * (8192 / 64));
  EXPECT_EQ(store.free_slabs(), 0u);
}

TEST_F(SlabStoreFixture, EvictLruRecyclesInOrder) {
  auto a = store.allocate({1, 0, 64});
  auto b = store.allocate({1, 64, 64});
  ASSERT_TRUE(a && b);
  store.touch(*a);  // b is now LRU
  auto evicted = store.evict_lru(0);
  ASSERT_TRUE(evicted);
  EXPECT_EQ(evicted->first.offset, 64u);
  // The recycled slot is reused by the next allocation (cleanup array).
  auto c = store.allocate({1, 128, 64});
  ASSERT_TRUE(c);
  EXPECT_EQ(store.hmb_addr(*c), store.hmb_addr(*b));
}

TEST_F(SlabStoreFixture, EvictEmptyClassReturnsNullopt) {
  EXPECT_FALSE(store.evict_lru(3).has_value());
}

TEST_F(SlabStoreFixture, FreeItemAllowsReuse) {
  auto a = store.allocate({1, 0, 256});
  ASSERT_TRUE(a);
  const HmbAddr addr = store.hmb_addr(*a);
  store.free_item(*a);
  EXPECT_EQ(store.stats().live_items, 0u);
  auto b = store.allocate({1, 512, 256});
  ASSERT_TRUE(b);
  EXPECT_EQ(store.hmb_addr(*b), addr);
}

TEST_F(SlabStoreFixture, ExternalizeFreesSlabAndKeepsData) {
  // Fill two slabs of class 0.
  std::vector<ItemLoc> locs;
  for (std::uint64_t i = 0; i < 2 * (8192 / 64); ++i) {
    auto loc = store.allocate({1, i * 64, 64});
    ASSERT_TRUE(loc);
    std::ranges::fill(hmb.dma_window(store.hmb_addr(*loc), 64),
                      static_cast<std::uint8_t>(i & 0xff));
    locs.push_back(*loc);
  }
  const std::uint32_t free_before = store.free_slabs();
  Rng rng(1);
  ASSERT_TRUE(store.externalize_slab(/*requesting_cls=*/1, rng));
  EXPECT_EQ(store.free_slabs(), free_before + 1);
  EXPECT_EQ(store.stats().migrations, 1u);
  EXPECT_GT(store.stats().external_bytes, 0u);
  // Every item still returns its bytes (resident or externalised).
  for (std::size_t i = 0; i < locs.size(); ++i) {
    auto view = store.data(locs[i]);
    ASSERT_EQ(view.size(), 64u);
    EXPECT_EQ(view[0], static_cast<std::uint8_t>(i & 0xff));
  }
}

TEST_F(SlabStoreFixture, ExternalizeNeedsASecondSlab) {
  // Only one slab in class 0: not eligible for random migration.
  ASSERT_TRUE(store.allocate({1, 0, 64}));
  Rng rng(1);
  EXPECT_FALSE(store.externalize_slab(/*requesting_cls=*/1, rng));
}

TEST_F(SlabStoreFixture, ExternalBudgetCapsMigration) {
  SlabConfig cfg = small_slabs();
  cfg.max_external_bytes = 0;
  Hmb hmb2{small_layout()};
  SlabStore capped{hmb2, cfg};
  for (std::uint64_t i = 0; i < 2 * (8192 / 64); ++i)
    ASSERT_TRUE(capped.allocate({1, i * 64, 64}));
  Rng rng(1);
  EXPECT_FALSE(capped.externalize_slab(1, rng));
}

TEST_F(SlabStoreFixture, ExternalizedItemsAreNotDmaDestinations) {
  for (std::uint64_t i = 0; i < 2 * (8192 / 64); ++i)
    ASSERT_TRUE(store.allocate({1, i * 64, 64}));
  Rng rng(1);
  ASSERT_TRUE(store.externalize_slab(1, rng));
  // Some item is now external; hmb_addr on it must assert.
  bool found_external = false;
  for (std::uint64_t i = 0; i < 2 * (8192 / 64) && !found_external; ++i) {
    // Reconstruct locs: slabs 0 and 1, slots sequential.
    ItemLoc loc{static_cast<std::uint32_t>(i / (8192 / 64)),
                static_cast<std::uint32_t>(i % (8192 / 64))};
    if (!store.resident(loc)) {
      found_external = true;
      EXPECT_DEATH(store.hmb_addr(loc), "not DMA destinations");
    }
  }
  EXPECT_TRUE(found_external);
}

TEST_F(SlabStoreFixture, FullyDeadExternalSlabReleasesMemory) {
  std::vector<ItemLoc> locs;
  for (std::uint64_t i = 0; i < 2 * (8192 / 64); ++i) {
    auto loc = store.allocate({1, i * 64, 64});
    ASSERT_TRUE(loc);
    locs.push_back(*loc);
  }
  Rng rng(1);
  ASSERT_TRUE(store.externalize_slab(1, rng));
  const std::uint64_t ext_before = store.stats().external_bytes;
  ASSERT_GT(ext_before, 0u);
  for (ItemLoc loc : locs) {
    if (!store.resident(loc)) store.free_item(loc);
  }
  EXPECT_EQ(store.stats().external_bytes, 0u);
}

// --- AdaptiveThreshold ---

AdaptiveConfig fast_adaptive() {
  AdaptiveConfig c;
  c.initial_threshold = 2;
  c.min_threshold = 1;
  c.max_threshold = 4;
  c.adjust_period = 10;
  return c;
}

TEST(AdaptiveThreshold, RisesUnderLowReuse) {
  AdaptiveThreshold a(fast_adaptive());
  for (int i = 0; i < 10; ++i) a.on_access(false);
  EXPECT_EQ(a.threshold(), 3u);
  for (int i = 0; i < 10; ++i) a.on_access(false);
  EXPECT_EQ(a.threshold(), 4u);
  for (int i = 0; i < 10; ++i) a.on_access(false);
  EXPECT_EQ(a.threshold(), 4u);  // clamped at max
}

TEST(AdaptiveThreshold, FallsUnderHighReuse) {
  AdaptiveThreshold a(fast_adaptive());
  for (int i = 0; i < 10; ++i) a.on_access(true);
  EXPECT_EQ(a.threshold(), 1u);
  for (int i = 0; i < 10; ++i) a.on_access(true);
  EXPECT_EQ(a.threshold(), 1u);  // clamped at min
}

TEST(AdaptiveThreshold, StableInTheMidBand) {
  AdaptiveThreshold a(fast_adaptive());
  // 10% reuse: between kMinRatio and kMaxRatio -> no change.
  static_assert(AdaptiveThreshold::kMinRatio < 0.1 &&
                0.1 < AdaptiveThreshold::kMaxRatio);
  for (int i = 0; i < 10; ++i) a.on_access(i == 0);
  EXPECT_EQ(a.threshold(), 2u);
}

TEST(AdaptiveThreshold, DisabledStaysFixed) {
  AdaptiveConfig c = fast_adaptive();
  c.enabled = false;
  AdaptiveThreshold a(c);
  for (int i = 0; i < 100; ++i) a.on_access(false);
  EXPECT_EQ(a.threshold(), 2u);
}

TEST(AdaptiveThreshold, CountsAccessesAndReuses) {
  AdaptiveThreshold a(fast_adaptive());
  a.on_access(true);
  a.on_access(false);
  a.on_access(true);
  EXPECT_EQ(a.accesses(), 3u);
  EXPECT_EQ(a.reuses(), 2u);
}

TEST(ReferenceTracker, CountsAndForgets) {
  ReferenceTracker t(100);
  const FgKey k{1, 0, 64};
  EXPECT_FALSE(t.seen(k));
  EXPECT_EQ(t.record(k), 1u);
  EXPECT_TRUE(t.seen(k));
  EXPECT_EQ(t.record(k), 2u);
  t.forget(k);
  EXPECT_FALSE(t.seen(k));
  EXPECT_EQ(t.record(k), 1u);
}

TEST(ReferenceTracker, BoundedByCapacity) {
  ReferenceTracker t(4);
  for (std::uint64_t i = 0; i < 100; ++i) t.record({1, i, 64});
  EXPECT_LE(t.tracked(), 4u);
  EXPECT_TRUE(t.seen({1, 99, 64}));
  EXPECT_FALSE(t.seen({1, 0, 64}));  // aged out
}

// --- Detector / Dispatcher ---

TEST(Detector, PermissionRequiresFlag) {
  EXPECT_TRUE(FineGrainedAccessDetector::permitted(kOpenFineGrained));
  EXPECT_TRUE(
      FineGrainedAccessDetector::permitted(kOpenRead | kOpenFineGrained));
  EXPECT_FALSE(FineGrainedAccessDetector::permitted(kOpenRead));
}

TEST(Dispatcher, RoutesBySizeFlagAndAlignment) {
  DispatchConfig cfg;
  const int fg = kOpenRead | kOpenFineGrained;
  EXPECT_EQ(dispatch_read(cfg, fg, 0, 128), Route::kFine);
  EXPECT_EQ(dispatch_read(cfg, kOpenRead, 0, 128), Route::kBlock);  // no flag
  EXPECT_EQ(dispatch_read(cfg, fg, 0, kBlockSize), Route::kBlock);  // aligned
  EXPECT_EQ(dispatch_read(cfg, fg, 100, kBlockSize), Route::kFine);
  EXPECT_EQ(dispatch_read(cfg, fg, 0, 2 * kBlockSize), Route::kBlock);
}

// --- FineGrainedReadCache facade ---

FgrcConfig facade_config() {
  FgrcConfig c;
  c.slab = small_slabs();
  c.adaptive = AdaptiveConfig{};
  c.adaptive.initial_threshold = 1;  // promote immediately by default
  c.adaptive.min_threshold = 1;
  c.adaptive.enabled = false;
  c.reassign.enabled = false;
  return c;
}

struct FgrcFixture : ::testing::Test {
  Hmb hmb{small_layout()};
  RatioCounter page_cache_hits;
  FineGrainedReadCache cache{hmb, facade_config(), &page_cache_hits};

  // Simulate the device filling the planned destination.
  void fill(const MissPlan& plan, std::uint8_t value, std::uint32_t len) {
    std::ranges::fill(hmb.dma_window(plan.dest, len), value);
  }
};

TEST_F(FgrcFixture, MissPromoteHitRoundTrip) {
  const FgKey k{1, 1000, 128};
  EXPECT_FALSE(cache.lookup(k).has_value());
  const MissPlan plan = cache.plan_miss(k);
  EXPECT_TRUE(plan.promoted);
  fill(plan, 0x5D, k.len);
  auto hit = cache.lookup(k);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), 128u);
  EXPECT_EQ((*hit)[0], 0x5D);
  EXPECT_EQ(cache.stats().lookups.hits(), 1u);
  EXPECT_EQ(cache.stats().promotions, 1u);
}

TEST_F(FgrcFixture, ThresholdTwoStagesThroughTempBuf) {
  FgrcConfig cfg = facade_config();
  cfg.adaptive.initial_threshold = 2;
  cfg.adaptive.min_threshold = 2;
  cfg.adaptive.max_threshold = 2;
  FineGrainedReadCache c2(hmb, cfg, &page_cache_hits);
  const FgKey k{1, 0, 64};
  c2.lookup(k);
  const MissPlan p1 = c2.plan_miss(k);
  EXPECT_FALSE(p1.promoted);  // first access: below threshold -> TempBuf
  EXPECT_GE(p1.dest, hmb.tempbuf_offset());
  EXPECT_LT(p1.dest, hmb.data_offset());
  c2.lookup(k);
  const MissPlan p2 = c2.plan_miss(k);
  EXPECT_TRUE(p2.promoted);  // second access reaches the threshold
  EXPECT_EQ(c2.stats().tempbuf_fills, 1u);
}

TEST_F(FgrcFixture, DistinctKeysDistinctItems) {
  const MissPlan a = cache.plan_miss({1, 0, 64});
  const MissPlan b = cache.plan_miss({1, 64, 64});
  const MissPlan c = cache.plan_miss({2, 0, 64});
  EXPECT_NE(a.dest, b.dest);
  EXPECT_NE(b.dest, c.dest);
}

TEST_F(FgrcFixture, InvalidateRangeDeletesOverlaps) {
  const FgKey a{1, 1000, 128};  // [1000, 1128)
  const FgKey b{1, 2000, 128};  // [2000, 2128)
  fill(cache.plan_miss(a), 1, 128);
  fill(cache.plan_miss(b), 2, 128);
  // Write [1100, 1200): overlaps a only.
  EXPECT_EQ(cache.invalidate_range(1, 1100, 100), 1u);
  EXPECT_FALSE(cache.lookup(a).has_value());
  EXPECT_TRUE(cache.lookup(b).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST_F(FgrcFixture, InvalidateExactAndContaining) {
  const FgKey a{1, 500, 64};
  fill(cache.plan_miss(a), 1, 64);
  EXPECT_EQ(cache.invalidate_range(1, 500, 64), 1u);  // exact
  const FgKey b{1, 600, 64};
  fill(cache.plan_miss(b), 1, 64);
  EXPECT_EQ(cache.invalidate_range(1, 0, 4096), 1u);  // containing
}

TEST_F(FgrcFixture, InvalidateOtherFileIsNoop) {
  const FgKey a{1, 0, 64};
  fill(cache.plan_miss(a), 1, 64);
  EXPECT_EQ(cache.invalidate_range(2, 0, 4096), 0u);
  EXPECT_TRUE(cache.lookup(a).has_value());
}

TEST_F(FgrcFixture, PressureEvictsWhenPageCacheDominates) {
  // Page cache hit ratio 1.0 > FGRC ratio -> solution 1 (evict LRU).
  for (int i = 0; i < 10; ++i) page_cache_hits.record(true);
  std::uint64_t filled = 0;
  while (true) {
    const FgKey k{1, filled * 64, 64};
    cache.lookup(k);
    const MissPlan plan = cache.plan_miss(k);
    ASSERT_TRUE(plan.promoted);
    ++filled;
    if (cache.stats().pressure_evictions > 0) break;
    ASSERT_LT(filled, 100000u);
  }
  EXPECT_EQ(cache.stats().pressure_migrations, 0u);
  // The earliest key was the LRU victim.
  EXPECT_FALSE(cache.lookup({1, 0, 64}).has_value());
}

TEST_F(FgrcFixture, PressureMigratesWhenFgrcDominates) {
  // FGRC hit ratio >= page cache ratio (both 0 at first) -> solution 2.
  // Fill class 0 completely, plus two slabs' worth of 128B items so
  // another class is eligible for migration (needs > 1 slab).
  for (std::uint64_t i = 0; i < 2 * (8192 / 128); ++i)
    cache.plan_miss({9, i * 128, 128});
  std::uint64_t filled = 0;
  while (cache.stats().pressure_migrations == 0 &&
         cache.stats().pressure_evictions == 0) {
    const FgKey k{1, filled * 64, 64};
    cache.plan_miss(k);
    ++filled;
    ASSERT_LT(filled, 100000u);
  }
  EXPECT_GT(cache.stats().pressure_migrations, 0u);
  EXPECT_EQ(cache.stats().pressure_evictions, 0u);
}

TEST_F(FgrcFixture, TempbufWrapsAround) {
  FgrcConfig cfg = facade_config();
  cfg.adaptive.initial_threshold = 8;  // never promote
  cfg.adaptive.min_threshold = 8;
  cfg.adaptive.max_threshold = 8;
  FineGrainedReadCache c2(hmb, cfg, &page_cache_hits);
  HmbAddr first = 0;
  // 96 fills of 1 KiB through an 8 KiB TempBuf: exactly 12 wraps, so the
  // next fill lands back at the start.
  for (int i = 0; i < 96; ++i) {
    const FgKey k{1, static_cast<std::uint64_t>(i) * 1024, 1024};
    c2.lookup(k);
    const MissPlan p = c2.plan_miss(k);
    ASSERT_FALSE(p.promoted);
    ASSERT_GE(p.dest, hmb.tempbuf_offset());
    ASSERT_LE(p.dest + 1024, hmb.data_offset());
    if (i == 0) first = p.dest;
  }
  const FgKey k{1, 999999, 1024};
  c2.lookup(k);
  EXPECT_EQ(c2.plan_miss(k).dest, first);
}

TEST_F(FgrcFixture, ReassignmentReturnsStagnantSlabs) {
  FgrcConfig cfg = facade_config();
  cfg.reassign.enabled = true;
  cfg.reassign.epoch_accesses = 64;
  FineGrainedReadCache c2(hmb, cfg, &page_cache_hits);
  // Occupy two slabs of class 1 (128B items), then hammer class 0 so
  // class 1 stagnates while memory is exhausted.
  for (std::uint64_t i = 0; i < 2 * (8192 / 128); ++i)
    c2.plan_miss({7, i * 128, 128});
  std::uint64_t i = 0;
  while (c2.stats().reassigned_slabs == 0 && i < 50000) {
    const FgKey k{1, i * 64, 64};
    c2.lookup(k);
    c2.plan_miss(k);
    ++i;
  }
  EXPECT_GT(c2.stats().reassigned_slabs, 0u);
}

TEST_F(SlabStoreFixture, ExternalizeSlabOfTargetsTheGivenClass) {
  // Two slabs of class 0, one of class 2.
  for (std::uint64_t i = 0; i < 2 * (8192 / 64); ++i)
    ASSERT_TRUE(store.allocate({1, i * 64, 64}));
  ASSERT_TRUE(store.allocate({2, 0, 256}));
  const std::uint32_t free_before = store.free_slabs();
  ASSERT_TRUE(store.externalize_slab_of(0));
  EXPECT_EQ(store.free_slabs(), free_before + 1);
  EXPECT_EQ(store.class_stats(0).slabs, 1u);  // class 0 lost one
  EXPECT_EQ(store.class_stats(2).slabs, 1u);  // class 2 untouched
}

TEST_F(SlabStoreFixture, ExternalizeSlabOfEmptyClassFails) {
  EXPECT_FALSE(store.externalize_slab_of(1));
}

TEST_F(SlabStoreFixture, MutableDataWritesShowInData) {
  auto loc = store.allocate({1, 0, 64});
  ASSERT_TRUE(loc);
  auto span = store.mutable_data(*loc);
  ASSERT_EQ(span.size(), 64u);
  span[0] = 0xAB;
  span[63] = 0xCD;
  EXPECT_EQ(store.data(*loc)[0], 0xAB);
  EXPECT_EQ(store.data(*loc)[63], 0xCD);
}

TEST_F(SlabStoreFixture, MutableDataWorksAfterExternalization) {
  std::vector<ItemLoc> locs;
  for (std::uint64_t i = 0; i < 2 * (8192 / 64); ++i) {
    auto loc = store.allocate({1, i * 64, 64});
    ASSERT_TRUE(loc);
    locs.push_back(*loc);
  }
  Rng rng(1);
  ASSERT_TRUE(store.externalize_slab(3, rng));
  ItemLoc external{};
  bool found = false;
  for (ItemLoc loc : locs) {
    if (!store.resident(loc)) {
      external = loc;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  store.mutable_data(external)[5] = 0x77;
  EXPECT_EQ(store.data(external)[5], 0x77);
}

TEST_F(FgrcFixture, UpdateInPlaceRewritesAndPromotes) {
  const FgKey k{1, 256, 64};
  fill(cache.plan_miss(k), 0x10, 64);
  std::vector<std::uint8_t> fresh(64, 0x20);
  EXPECT_TRUE(cache.update_in_place(k, {fresh.data(), fresh.size()}));
  auto hit = cache.lookup(k);
  ASSERT_TRUE(hit);
  EXPECT_EQ((*hit)[0], 0x20);
}

TEST_F(FgrcFixture, UpdateInPlaceFalseForAbsentOrMismatchedKey) {
  std::vector<std::uint8_t> data(64, 1);
  EXPECT_FALSE(cache.update_in_place({1, 0, 64}, {data.data(), data.size()}));
  fill(cache.plan_miss({1, 0, 64}), 2, 64);
  // Same offset, different length: not an exact match.
  std::vector<std::uint8_t> d32(32, 3);
  EXPECT_FALSE(cache.update_in_place({1, 0, 32}, {d32.data(), d32.size()}));
}

TEST_F(FgrcFixture, InvalidateRangeKeepParameterSpares) {
  const FgKey keep{1, 100, 64};
  const FgKey other{1, 120, 64};  // overlaps [100,164)
  fill(cache.plan_miss(keep), 1, 64);
  fill(cache.plan_miss(other), 2, 64);
  EXPECT_EQ(cache.invalidate_range(1, 100, 64, &keep), 1u);
  EXPECT_TRUE(cache.lookup(keep).has_value());
  EXPECT_FALSE(cache.lookup(other).has_value());
}

TEST_F(FgrcFixture, ExactIndexStaysConsistentAcrossPromoteEvictInvalidate) {
  // Drive every mutation path — promotion, LRU eviction under pressure,
  // slab migration, range invalidation, in-place update — and verify after
  // each phase that the exact-match hash index and the offset-ordered
  // per-file multimaps describe the same set of live items.
  ASSERT_TRUE(cache.index_consistent());

  // Promotions across two files until the store hits pressure (evictions
  // and/or slab migrations both exercise index removal/stability).
  for (std::uint64_t i = 0; i < 1500; ++i) {
    const FgKey k{static_cast<FileId>(1 + (i % 2)), (i / 2) * 96, 96};
    if (!cache.lookup(k).has_value()) cache.plan_miss(k);
    if (i % 97 == 0) {
      ASSERT_TRUE(cache.index_consistent()) << "i=" << i;
    }
  }
  EXPECT_GT(cache.stats().pressure_evictions +
                cache.stats().pressure_migrations,
            0u);
  ASSERT_TRUE(cache.index_consistent());

  // Evicted keys must miss through the exact index, survivors must hit.
  std::uint32_t hits = 0, misses = 0;
  for (std::uint64_t i = 0; i < 1500; i += 7) {
    const FgKey k{static_cast<FileId>(1 + (i % 2)), (i / 2) * 96, 96};
    if (cache.lookup(k).has_value()) {
      ++hits;
    } else {
      ++misses;
      cache.plan_miss(k);  // may re-promote; index must keep up
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  ASSERT_TRUE(cache.index_consistent());

  // Range invalidation (with and without a kept key) and in-place update.
  const FgKey keep{1, 0, 96};
  if (!cache.lookup(keep).has_value()) cache.plan_miss(keep);
  std::vector<std::uint8_t> fresh(96, 0x42);
  EXPECT_TRUE(cache.update_in_place(keep, {fresh.data(), fresh.size()}));
  cache.invalidate_range(1, 0, 4096, &keep);
  ASSERT_TRUE(cache.index_consistent());
  EXPECT_TRUE(cache.lookup(keep).has_value());
  cache.invalidate_range(1, 0, 1 << 20);
  cache.invalidate_range(2, 0, 1 << 20);
  ASSERT_TRUE(cache.index_consistent());
  EXPECT_FALSE(cache.lookup(keep).has_value());
}

TEST_F(FgrcFixture, ReassignmentKeepsIndexConsistent) {
  FgrcConfig cfg = facade_config();
  cfg.reassign.enabled = true;
  cfg.reassign.epoch_accesses = 64;
  FineGrainedReadCache c2(hmb, cfg, &page_cache_hits);
  for (std::uint64_t i = 0; i < 2 * (8192 / 128); ++i)
    c2.plan_miss({7, i * 128, 128});
  std::uint64_t i = 0;
  while (c2.stats().reassigned_slabs == 0 && i < 50000) {
    const FgKey k{1, i * 64, 64};
    c2.lookup(k);
    c2.plan_miss(k);
    ++i;
  }
  ASSERT_GT(c2.stats().reassigned_slabs, 0u);
  // Migrated (externalised) items keep their ItemLocs; hits still work.
  EXPECT_TRUE(c2.index_consistent());
  EXPECT_TRUE(c2.lookup({7, 0, 128}).has_value());
}

TEST_F(FgrcFixture, MemoryUsageTracksSlabs) {
  EXPECT_EQ(cache.memory_bytes(), 0u);
  cache.plan_miss({1, 0, 64});
  EXPECT_EQ(cache.memory_bytes(), small_slabs().slab_size);
}

// --- FGRC index vs the multimap + hash-map index it replaced ---

// The FGRC's former index in front of its own SlabStore: per-file
// multimaps ordered by offset (promotion order among equal offsets) plus an
// exact-match hash map. It makes the cache's placement decisions for
// adaptive.enabled = false, reassign.enabled = false and the two fixed
// pressure policies, so every ItemLoc it hands out must match the cache's.
class ReferenceFgrc {
 public:
  ReferenceFgrc(Hmb& hmb, const FgrcConfig& config)
      : config_(config),
        store_(hmb, config.slab),
        ghosts_(config.adaptive.ghost_capacity) {}

  bool lookup(const FgKey& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    store_.touch(it->second);
    return true;
  }
  bool contains(const FgKey& key) const { return index_.count(key) != 0; }

  MissPlan plan_miss(const FgKey& key) {
    if (ghosts_.record(key) < threshold()) return {};
    return promote(key);
  }
  MissPlan plan_speculative(const FgKey& key, std::uint32_t confidence) {
    if (confidence < threshold()) return {};
    return promote(key);
  }
  void abort_fill(const FgKey& key, const MissPlan& plan) {
    if (!plan.promoted) return;
    remove(key, plan.loc);
    store_.free_item(plan.loc);
  }

  std::uint32_t invalidate_range(FileId file, std::uint64_t offset,
                                 std::uint64_t len, const FgKey* keep) {
    std::uint32_t removed = 0;
    auto table_it = tables_.find(file);
    if (table_it != tables_.end()) {
      FileTable& table = table_it->second;
      const std::uint64_t max_len = config_.slab.class_sizes.back();
      auto it = table.lower_bound(offset >= max_len ? offset - max_len : 0);
      while (it != table.end() && it->first < offset + len) {
        const FgKey k = store_.key(it->second);
        const bool overlaps =
            k.offset < offset + len && offset < k.offset + k.len;
        if (overlaps && !(keep != nullptr && k == *keep)) {
          store_.free_item(it->second);
          index_.erase(k);
          it = table.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
    }
    ghosts_.forget({file, offset, static_cast<std::uint32_t>(len)});
    return removed;
  }

  bool update_in_place(const FgKey& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    store_.touch(it->second);
    return true;
  }

  const SlabStore& store() const { return store_; }

 private:
  using FileTable = std::multimap<std::uint64_t, ItemLoc>;

  std::uint32_t threshold() const {
    return config_.adaptive.initial_threshold;
  }

  MissPlan promote(const FgKey& key) {
    const std::uint32_t cls = store_.class_for(key.len);
    std::optional<ItemLoc> loc = store_.allocate(key);
    while (!loc && relieve(cls)) loc = store_.allocate(key);
    if (!loc) return {};
    ghosts_.forget(key);
    tables_[key.file].emplace(key.offset, *loc);
    index_.emplace(key, *loc);
    MissPlan plan;
    plan.promoted = true;
    plan.loc = *loc;
    return plan;
  }

  bool relieve(std::uint32_t cls) {
    if (config_.policy == PressurePolicy::kAlwaysMigrate &&
        store_.externalize_slab(cls, rng_)) {
      return true;
    }
    if (auto evicted = store_.evict_lru(cls)) {
      remove(evicted->first, evicted->second);
      return true;
    }
    return store_.externalize_slab(cls, rng_);
  }

  void remove(const FgKey& key, ItemLoc loc) {
    index_.erase(key);
    auto [lo, hi] = tables_.at(key.file).equal_range(key.offset);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == loc) {
        tables_.at(key.file).erase(it);
        return;
      }
    }
    FAIL() << "reference lost an item";
  }

  FgrcConfig config_;
  SlabStore store_;
  ReferenceTracker ghosts_;
  std::unordered_map<FileId, FileTable> tables_;
  std::unordered_map<FgKey, ItemLoc, FgKeyHash> index_;
  Rng rng_{0xcafe};  // the cache's pressure-relief seed
};

class FgrcDifferential : public ::testing::TestWithParam<PressurePolicy> {};

TEST_P(FgrcDifferential, MatchesMultimapReference) {
  FgrcConfig cfg = facade_config();
  cfg.adaptive.initial_threshold = 2;
  cfg.adaptive.max_threshold = 4;
  cfg.adaptive.ghost_capacity = 1024;
  cfg.policy = GetParam();
  // Four 8 KiB slabs for three classes: pressure relief runs often.
  Hmb hmb{small_layout(32 * 1024)};
  Hmb ref_hmb{small_layout(32 * 1024)};
  FineGrainedReadCache cache(hmb, cfg, nullptr);
  cache.enable_speculative_staging();
  ReferenceFgrc ref(ref_hmb, cfg);

  // Sixteen pages of two files, 64-byte-aligned starts and lengths that share
  // slab classes, so pages hold several items and equal offsets recur with
  // different lengths.
  constexpr std::uint32_t kLens[] = {48, 64, 100, 128, 1000};
  Rng rng(0xd1ff + static_cast<std::uint64_t>(GetParam()));
  auto random_key = [&rng, &kLens] {
    return FgKey{static_cast<FileId>(1 + rng.next_below(2)),
                 rng.next_below(16 * kBlockSize / 64) * 64,
                 kLens[rng.next_below(std::size(kLens))]};
  };
  auto same_plan = [](const MissPlan& got, const MissPlan& want) {
    return got.promoted == want.promoted &&
           (!got.promoted || got.loc == want.loc);
  };
  const std::vector<std::uint8_t> payload(1024, 0x5a);
  std::uint64_t promotions = 0, removed = 0, aborted = 0;

  for (int op = 0; op < 40000; ++op) {
    const FgKey key = random_key();
    const double dice = rng.next_double();
    if (dice < 0.6) {  // demand read: lookup, then plan the miss
      const bool hit = cache.lookup(key).has_value();
      ASSERT_EQ(hit, ref.lookup(key)) << "op " << op;
      if (!hit) {
        const MissPlan got = cache.plan_miss(key);
        const MissPlan want = ref.plan_miss(key);
        ASSERT_TRUE(same_plan(got, want)) << "op " << op;
        promotions += got.promoted;
        if (got.promoted && rng.next_bool(0.1)) {
          cache.abort_fill(key, got);
          ref.abort_fill(key, want);
          ++aborted;
        }
      }
    } else if (dice < 0.7) {  // speculative fill of an uncached key
      ASSERT_EQ(cache.contains(key), ref.contains(key)) << "op " << op;
      if (!cache.contains(key)) {
        const auto confidence = static_cast<std::uint32_t>(rng.next_below(4));
        const MissPlan got = cache.plan_speculative(key, confidence);
        const MissPlan want = ref.plan_speculative(key, confidence);
        ASSERT_TRUE(same_plan(got, want)) << "op " << op;
        promotions += got.promoted;
        if (got.promoted && rng.next_bool(0.1)) {
          cache.abort_fill(key, got);
          ref.abort_fill(key, want);
          ++aborted;
        }
      }
    } else if (dice < 0.8) {  // write invalidation, sometimes keeping key
      const std::uint64_t offset = rng.next_below(17 * kBlockSize);
      const std::uint64_t len = 1 + rng.next_below(1000);
      const FgKey* keep = rng.next_bool(0.3) ? &key : nullptr;
      const std::uint32_t n =
          cache.invalidate_range(key.file, offset, len, keep);
      ASSERT_EQ(n, ref.invalidate_range(key.file, offset, len, keep))
          << "op " << op;
      removed += n;
    } else {  // fine-grained write of an exact key
      ASSERT_EQ(cache.update_in_place(key, {payload.data(), key.len}),
                ref.update_in_place(key))
          << "op " << op;
    }
    ASSERT_TRUE(cache.index_consistent()) << "op " << op;
    ASSERT_EQ(cache.store().stats().live_items,
              ref.store().stats().live_items)
        << "op " << op;
  }
  // The run must have exercised every path it claims to check.
  const SlabStoreStats& st = cache.store().stats();
  EXPECT_GT(promotions, 3000u);
  EXPECT_GT(removed, 2000u);
  EXPECT_GT(aborted, 200u);
  EXPECT_GT(st.evictions + st.migrations, 100u);
  if (GetParam() == PressurePolicy::kAlwaysMigrate) {
    EXPECT_GT(st.migrations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, FgrcDifferential,
                         ::testing::Values(PressurePolicy::kAlwaysEvict,
                                           PressurePolicy::kAlwaysMigrate),
                         [](const auto& info) {
                           return info.param == PressurePolicy::kAlwaysEvict
                                      ? std::string("AlwaysEvict")
                                      : std::string("AlwaysMigrate");
                         });

}  // namespace
}  // namespace pipette
