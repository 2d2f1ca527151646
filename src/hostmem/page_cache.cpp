#include "hostmem/page_cache.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>

#include "common/assert.h"

namespace pipette {

FramePool::~FramePool() {
  // Hand the allocator its chunks unpoisoned: held frames already are, so
  // only the free list and the uncarved rest of the last chunk need it.
  for (std::uint8_t* frame : free_)
    ASAN_UNPOISON_MEMORY_REGION(frame, kBlockSize);
  ASAN_UNPOISON_MEMORY_REGION(fresh_, fresh_end_ - fresh_);
}

void FramePool::grow() {
  const std::uint64_t frames =
      allocated_ < capacity_hint_
          ? std::min(kChunkFrames, capacity_hint_ - allocated_)
          : 1;
  const std::size_t bytes = static_cast<std::size_t>(frames) * kBlockSize;
  chunks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(bytes));
  fresh_ = chunks_.back().get();
  fresh_end_ = fresh_ + bytes;
  ASAN_POISON_MEMORY_REGION(fresh_, bytes);
  allocated_ += frames;
  // Every frame can be on the free list at once: reserve for that now so
  // give_back never allocates (doubling, as push_back would).
  if (free_.capacity() < allocated_)
    free_.reserve(std::max<std::uint64_t>(allocated_, 2 * free_.capacity()));
}

std::uint8_t* FramePool::take() {
  std::uint8_t* frame;
  if (!free_.empty()) {
    frame = free_.back();
    free_.pop_back();
  } else {
    if (fresh_ == fresh_end_) grow();
    frame = fresh_;
    fresh_ += kBlockSize;
    ++carved_;
  }
  ASAN_UNPOISON_MEMORY_REGION(frame, kBlockSize);
  return frame;
}

void FramePool::give_back(std::uint8_t* frame) {
  PIPETTE_ASSERT(frame != nullptr);
  ASAN_POISON_MEMORY_REGION(frame, kBlockSize);
  free_.push_back(frame);
}

PageCache::PageCache(std::uint64_t capacity_bytes, ReadaheadConfig ra)
    : frames_(std::max<std::uint64_t>(1, capacity_bytes / kBlockSize)),
      cache_(std::max<std::uint64_t>(1, capacity_bytes / kBlockSize)),
      ra_(ra) {}

CachedPage* PageCache::lookup(const PageKey& key) {
  CachedPage* page = cache_.find(key);
  stats_.lookups.record(page != nullptr);
  if (page != nullptr) page->demanded = true;
  return page;
}

CachedPage* PageCache::get(const PageKey& key) {
  CachedPage* page = cache_.find(key);
  if (page != nullptr) page->demanded = true;
  return page;
}

bool PageCache::contains(const PageKey& key) const {
  return cache_.peek(key) != nullptr;
}

void PageCache::on_evict(const PageKey& key, CachedPage& page) {
  ++stats_.evictions;
  if (!page.demanded) ++stats_.evicted_never_used;
  if (page.dirty) {
    PIPETTE_ASSERT_MSG(static_cast<bool>(writeback_),
                       "dirty page evicted with no writeback sink");
    writeback_(key, page.data);
  }
  frames_.give_back(page.data);
}

void PageCache::insert(const PageKey& key, std::uint8_t* frame, bool demand) {
  PIPETTE_ASSERT(frame != nullptr);
  if (const CachedPage* old = cache_.peek(key)) frames_.give_back(old->data);
  ++stats_.fills;
  if (!demand) ++stats_.readahead_pages;
  auto evicted = cache_.insert(key, CachedPage{frame, false, demand});
  if (evicted) on_evict(evicted->first, evicted->second);
  stats_.peak_pages = std::max(stats_.peak_pages, cache_.size());
}

bool PageCache::invalidate(const PageKey& key) {
  CachedPage* page = cache_.find(key);
  if (page == nullptr) return false;
  if (page->dirty) {
    PIPETTE_ASSERT_MSG(static_cast<bool>(writeback_),
                       "dirty page invalidated with no writeback sink");
    writeback_(key, page->data);
  }
  frames_.give_back(page->data);
  return cache_.erase(key);
}

void PageCache::mark_dirty(const PageKey& key) {
  CachedPage* page = cache_.find(key);
  PIPETTE_ASSERT_MSG(page != nullptr, "mark_dirty on a non-resident page");
  page->dirty = true;
}

std::uint32_t PageCache::plan_readahead(const PageKey& key,
                                        std::uint32_t demand_pages) {
  if (!ra_.enabled) return 0;
  StreamState& st = streams_[key.file_id];
  if (key.page == st.next_expected) {
    // Sequential continuation: ramp the window up to the cap.
    st.window = std::min(ra_.max_window,
                         std::max(ra_.initial_window, st.window * 2));
  } else {
    // Random access: restart with the initial window.
    st.window = ra_.initial_window;
  }
  st.next_expected = key.page + demand_pages +
                     (st.window > demand_pages ? st.window - demand_pages : 0);
  return st.window > demand_pages ? st.window - demand_pages : 0;
}

void PageCache::flush(const WritebackFn& writeback) {
  cache_.for_each([&](const PageKey& key, CachedPage& page) {
    if (page.dirty) {
      writeback(key, page.data);
      page.dirty = false;
    }
  });
}

void PageCache::clear() {
  cache_.for_each([this](const PageKey&, CachedPage& page) {
    PIPETTE_ASSERT_MSG(!page.dirty, "clear() with dirty pages: flush first");
    frames_.give_back(page.data);
  });
  cache_.clear();
  streams_.clear();
}

void PageCache::set_capacity_pages(std::uint64_t pages) {
  frames_.set_capacity_hint(std::max<std::uint64_t>(1, pages));
  cache_.set_capacity(std::max<std::uint64_t>(1, pages),
                      [this](const PageKey& k, CachedPage& p) {
                        on_evict(k, p);
                      });
}

}  // namespace pipette
