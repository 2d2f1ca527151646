#include "pipette/fgrc.h"

#include <algorithm>

#include "common/assert.h"

namespace pipette {

FineGrainedReadCache::FineGrainedReadCache(Hmb& hmb, FgrcConfig config,
                                           const RatioCounter* page_cache_hits)
    : hmb_(hmb),
      config_(config),
      store_(hmb, config.slab),
      adaptive_(config.adaptive),
      ghosts_(config.adaptive.ghost_capacity),
      page_cache_hits_(page_cache_hits),
      evictions_at_epoch_(store_.classes(), 0) {
  stats_.class_promotions.resize(store_.classes(), 0);
}

std::optional<std::span<const std::uint8_t>> FineGrainedReadCache::lookup(
    const FgKey& key) {
  ++accesses_since_epoch_;
  if (config_.reassign.enabled &&
      accesses_since_epoch_ >= config_.reassign.epoch_accesses) {
    run_reassignment_epoch();
    accesses_since_epoch_ = 0;
  }

  if (const ItemLoc* loc = find_item(key)) {
    stats_.lookups.record(true);
    adaptive_.on_access(/*repeated=*/true);
    store_.touch(*loc);
    return store_.data(*loc);
  }
  stats_.lookups.record(false);
  adaptive_.on_access(/*repeated=*/ghosts_.seen(key));
  return std::nullopt;
}

HmbAddr FineGrainedReadCache::tempbuf_addr(std::uint32_t len) {
  // With speculative staging enabled, demand staging is confined to the
  // lower half so an in-flight speculative DMA can never clobber bytes a
  // demand read is about to copy out.
  const auto total = static_cast<HmbAddr>(hmb_.tempbuf().size());
  const HmbAddr limit = spec_staging_ ? total / 2 : total;
  PIPETTE_ASSERT_MSG(len <= limit, "TempBuf smaller than one object");
  if (tempbuf_cursor_ + len > limit) tempbuf_cursor_ = 0;
  const HmbAddr addr = hmb_.tempbuf_offset() + tempbuf_cursor_;
  tempbuf_cursor_ += len;
  stats_.tempbuf_peak_bytes =
      std::max<std::uint64_t>(stats_.tempbuf_peak_bytes, tempbuf_cursor_);
  return addr;
}

HmbAddr FineGrainedReadCache::spec_tempbuf_addr(std::uint32_t len) {
  PIPETTE_ASSERT(spec_staging_);
  const auto total = static_cast<HmbAddr>(hmb_.tempbuf().size());
  const HmbAddr base = total / 2;
  const HmbAddr size = total - base;
  PIPETTE_ASSERT_MSG(len <= size, "TempBuf half smaller than one object");
  if (spec_cursor_ + len > size) spec_cursor_ = 0;
  const HmbAddr addr = hmb_.tempbuf_offset() + base + spec_cursor_;
  spec_cursor_ += len;
  return addr;
}

bool FineGrainedReadCache::relieve_pressure(std::uint32_t cls) {
  // Dynamic allocation strategy (§3.2.4): when the shared memory has no
  // spare space, compare the two caches' hit ratios. Page cache dominating
  // -> evict our LRU item (solution 1). FGRC dominating -> migrate a slab
  // out of the shared region (solution 2), freeing a whole slab.
  bool prefer_migrate = false;
  switch (config_.policy) {
    case PressurePolicy::kDynamic: {
      const double pc =
          page_cache_hits_ != nullptr ? page_cache_hits_->ratio() : 0.0;
      prefer_migrate = stats_.lookups.ratio() >= pc;
      break;
    }
    case PressurePolicy::kAlwaysEvict:
      prefer_migrate = false;
      break;
    case PressurePolicy::kAlwaysMigrate:
      prefer_migrate = true;
      break;
  }

  if (prefer_migrate && store_.externalize_slab(cls, rng_)) {
    ++stats_.pressure_migrations;
    return true;
  }
  // Evict the least recently used item within the requesting class.
  if (auto evicted = store_.evict_lru(cls)) {
    ++stats_.pressure_evictions;
    unindex_item(evicted->first, evicted->second);
    return true;
  }
  // Last resort: migrate even if eviction was preferred but impossible.
  if (store_.externalize_slab(cls, rng_)) {
    ++stats_.pressure_migrations;
    return true;
  }
  return false;
}

std::optional<ItemLoc> FineGrainedReadCache::allocate_with_relief(
    const FgKey& key) {
  const std::uint32_t cls = store_.class_for(key.len);
  std::optional<ItemLoc> loc = store_.allocate(key);
  while (!loc) {
    if (!relieve_pressure(cls)) break;
    loc = store_.allocate(key);
  }
  return loc;
}

MissPlan FineGrainedReadCache::install_promotion(const FgKey& key,
                                                 ItemLoc loc) {
  ghosts_.forget(key);
  ++stats_.promotions;
  const std::uint32_t cls = store_.class_for(key.len);
  if (cls < stats_.class_promotions.size()) ++stats_.class_promotions[cls];
  index_item(key, loc);
  MissPlan plan;
  plan.dest = store_.hmb_addr(loc);
  plan.promoted = true;
  plan.loc = loc;
  return plan;
}

MissPlan FineGrainedReadCache::plan_miss(const FgKey& key) {
  const std::uint32_t refs = ghosts_.record(key);
  MissPlan plan;
  if (refs < adaptive_.threshold()) {
    // Below the promotion threshold: low-reuse data stages through TempBuf
    // so it cannot pollute the cache.
    ++stats_.tempbuf_fills;
    plan.dest = tempbuf_addr(key.len);
    plan.promoted = false;
    return plan;
  }

  std::optional<ItemLoc> loc = allocate_with_relief(key);
  if (!loc) {
    // No space and no relief possible: serve through TempBuf.
    ++stats_.tempbuf_fills;
    plan.dest = tempbuf_addr(key.len);
    plan.promoted = false;
    return plan;
  }
  return install_promotion(key, *loc);
}

MissPlan FineGrainedReadCache::plan_speculative(const FgKey& key,
                                                std::uint32_t confidence) {
  // The classifier's confidence (stride run length / cluster density)
  // stands in for the ghost reference count: the same AdaptiveThreshold
  // that gates demand promotions gates speculative ones, so a workload the
  // adaptive machinery judges cache-hostile keeps speculation out of the
  // cache too. The ghost tracker is neither consulted nor recorded —
  // speculative traffic must not inflate demand reuse evidence.
  MissPlan plan;
  if (confidence >= adaptive_.threshold()) {
    if (std::optional<ItemLoc> loc = allocate_with_relief(key)) {
      return install_promotion(key, *loc);
    }
  }
  ++stats_.tempbuf_fills;
  plan.dest = spec_tempbuf_addr(key.len);
  plan.promoted = false;
  return plan;
}

void FineGrainedReadCache::abort_fill(const FgKey& key, const MissPlan& plan) {
  ++stats_.aborted_fills;
  if (!plan.promoted) return;  // TempBuf staging: nothing was reserved
  unindex_item(key, plan.loc);
  store_.free_item(plan.loc);
}

const ItemLoc* FineGrainedReadCache::find_item(const FgKey& key) const {
  const IndexRef* ref = index_.find(FgKeyHash{}(key), item_match(key));
  return ref == nullptr ? nullptr : &ref->loc;
}

const FineGrainedReadCache::IndexRef* FineGrainedReadCache::find_page(
    FileId file, std::uint64_t page) const {
  return index_.find(FgKeyHash{}(page_key(file, page)),
                     page_match(file, page));
}

void FineGrainedReadCache::index_item(const FgKey& key, ItemLoc loc) {
  const bool inserted =
      index_.emplace(FgKeyHash{}(key), {loc, false}, item_match(key)).second;
  PIPETTE_ASSERT_MSG(inserted, "promoting an already-cached key");
  // The new item becomes its page's chain head.
  const std::uint64_t page = key.offset / kBlockSize;
  const auto [head, fresh_page] =
      index_.emplace(FgKeyHash{}(page_key(key.file, page)), {loc, true},
                     page_match(key.file, page));
  if (fresh_page) return;
  store_.page_links(loc).next = head->loc;
  store_.page_links(head->loc).prev = loc;
  head->loc = loc;
}

void FineGrainedReadCache::unindex_item(const FgKey& key, ItemLoc loc) {
  // Both entries are matched by location, never by reading a key, so this
  // also works after the store freed the item.
  const bool erased =
      index_
          .erase(FgKeyHash{}(key),
                 [loc](const IndexRef& r) { return !r.page && r.loc == loc; })
          .has_value();
  PIPETTE_ASSERT_MSG(erased, "index entry missing for cached item");
  const PageLinks links = store_.page_links(loc);
  if (links.next.valid()) store_.page_links(links.next).prev = links.prev;
  if (links.prev.valid()) {
    store_.page_links(links.prev).next = links.next;
    return;
  }
  // `loc` headed its page's chain: hand the page entry to the next item, or
  // drop it with the page's last item.
  const std::uint64_t page_hash =
      FgKeyHash{}(page_key(key.file, key.offset / kBlockSize));
  auto is_head = [loc](const IndexRef& r) { return r.page && r.loc == loc; };
  bool found = false;
  if (links.next.valid()) {
    IndexRef* head = index_.find(page_hash, is_head);
    found = head != nullptr;
    if (found) head->loc = links.next;
  } else {
    found = index_.erase(page_hash, is_head).has_value();
  }
  PIPETTE_ASSERT_MSG(found, "page entry missing for chain head");
}

std::uint32_t FineGrainedReadCache::invalidate_range(FileId file,
                                                     std::uint64_t offset,
                                                     std::uint64_t len,
                                                     const FgKey* keep) {
  // Items are indexed by start offset; an overlapping item can start at most
  // (max item size - 1) bytes before the write.
  const std::uint64_t max_len = config_.slab.class_sizes.back();
  const std::uint64_t lo = offset >= max_len ? offset - max_len : 0;
  const std::uint64_t end = offset + len;
  doomed_.clear();
  for (std::uint64_t page = lo / kBlockSize; page * kBlockSize < end;
       ++page) {
    const IndexRef* head = find_page(file, page);
    if (head == nullptr) continue;
    const auto first = static_cast<std::ptrdiff_t>(doomed_.size());
    // The chain runs newest first. Inserting each item before every
    // collected one with an equal or larger offset frees the page's items
    // in ascending offset, oldest first among equal offsets: the order the
    // free list (and so every later allocation) depends on.
    for (ItemLoc it = head->loc; it.valid(); it = store_.page_links(it).next) {
      const FgKey& k = store_.key(it);
      const bool overlaps = k.offset >= lo && k.offset < end &&
                            offset < k.offset + k.len;
      if (!overlaps || (keep != nullptr && k == *keep)) continue;
      const auto pos = std::lower_bound(
          doomed_.begin() + first, doomed_.end(), k.offset,
          [](const auto& d, std::uint64_t o) { return d.first < o; });
      doomed_.emplace(pos, k.offset, it);
    }
  }
  for (const auto& [start, loc] : doomed_) {
    unindex_item(store_.key(loc), loc);
    store_.free_item(loc);
    ++stats_.invalidations;
  }
  // Stale reference counts must not fast-track re-promotion of overwritten
  // data.
  ghosts_.forget({file, offset, static_cast<std::uint32_t>(len)});
  return static_cast<std::uint32_t>(doomed_.size());
}

bool FineGrainedReadCache::update_in_place(
    const FgKey& key, std::span<const std::uint8_t> data) {
  PIPETTE_ASSERT(data.size() == key.len);
  const ItemLoc* loc = find_item(key);
  if (loc == nullptr) return false;
  auto dest = store_.mutable_data(*loc);
  std::copy(data.begin(), data.end(), dest.begin());
  store_.touch(*loc);
  return true;
}

bool FineGrainedReadCache::index_consistent() const {
  const std::uint64_t live = store_.stats().live_items;
  std::uint64_t items = 0;
  std::uint64_t chained = 0;
  bool ok = true;
  index_.for_each([&](const IndexRef& r) {
    if (!ok) return;
    if (!store_.live(r.loc)) {
      ok = false;
      return;
    }
    const FgKey& k = store_.key(r.loc);
    if (!r.page) {
      ++items;
      const ItemLoc* found = find_item(k);
      ok = found != nullptr && *found == r.loc;
      return;
    }
    const std::uint64_t page = k.offset / kBlockSize;
    ok = find_page(k.file, page) == &r;
    ItemLoc prev;
    for (ItemLoc it = r.loc; ok && it.valid();
         it = store_.page_links(it).next) {
      ++chained;
      if (chained > live || !store_.live(it) ||
          !(store_.page_links(it).prev == prev)) {
        ok = false;
        break;
      }
      const FgKey& ck = store_.key(it);
      const ItemLoc* found = find_item(ck);
      ok = ck.file == k.file && ck.offset / kBlockSize == page &&
           found != nullptr && *found == it;
      prev = it;
    }
  });
  return ok && items == chained && items == live;
}

void FineGrainedReadCache::run_reassignment_epoch() {
  // Maintenance thread: find slab classes whose eviction counts did not
  // change over the epoch ("unchanged in stages") and hold more than one
  // slab; re-balance thread: migrate one of their slabs out, returning the
  // slab to the free pool.
  for (std::uint32_t cls = 0; cls < store_.classes(); ++cls) {
    const SlabClassStats st = store_.class_stats(cls);
    const bool stagnant = st.evictions == evictions_at_epoch_[cls];
    evictions_at_epoch_[cls] = st.evictions;
    if (stagnant && st.slabs > 1 && store_.free_slabs() == 0) {
      if (store_.externalize_slab_of(cls)) {
        ++stats_.reassigned_slabs;
        break;  // one slab per maintenance pass, like the prototype
      }
    }
  }
}

}  // namespace pipette
