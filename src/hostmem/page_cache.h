// Host page cache with Linux-style read-ahead.
//
// Pages are keyed by (file, logical page index) and hold real bytes in
// kBlockSize frames from the cache's FramePool. The block read path takes a
// frame per page before it submits the read, the device DMAs straight into
// it, and insert() adopts the filled frame; eviction, invalidate(), clear()
// and set_capacity_pages() hand frames back to the pool. A warm cache thus
// copies no page on the way in and allocates nothing.
//
// Read-ahead mirrors the kernel's on-demand scheme in simplified form: every
// demand miss issues at least an initial window, a miss that continues a
// detected sequential stream doubles the window up to a maximum, and a
// random miss resets the stream. This is the mechanism behind the paper's
// observation that fine-grained reads "are not adaptive to the read-ahead
// strategy and the page cache mechanism" — random 128 B reads drag whole
// windows of pages into memory and pollute the cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/lru.h"
#include "common/stats.h"
#include "ssd/types.h"

namespace pipette {

struct PageKey {
  std::uint32_t file_id = 0;
  std::uint64_t page = 0;  // logical page index within the file

  bool operator==(const PageKey&) const = default;
};

struct PageKeyHash {
  std::size_t operator()(const PageKey& k) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(k.file_id) << 40) ^ k.page);
  }
};

/// Pool of kBlockSize page frames, carved out of chunks the pool owns.
///
/// Construction allocates nothing. A chunk holds kChunkFrames frames, but
/// never more than the capacity hint (the page cache's capacity) still
/// needs; past the hint a chunk is a single frame, taken only when every
/// frame is held. So the pool never holds more than max(capacity, the most
/// frames ever held at once): capacity plus the fills in flight beyond it.
/// Released frames go on a free list and are reused first; chunks are freed
/// only on destruction.
///
/// Chunks stay under glibc's smallest mmap threshold (128 KiB), so they
/// come from the malloc heap like the single-page frames they replace, and
/// memory one machine frees can serve the next machine in the process.
/// Large chunks did worse both ways: mapped ones made every machine fault
/// its frames in afresh, which cost a multi-threaded fleet run more system
/// time than the saved copies gained, and freeing them raised glibc's
/// dynamic mmap threshold, after which the retained heap grew peak RSS by
/// 7% on a 160 MiB cache. In an AddressSanitizer build a frame on the free
/// list (or not yet carved) is poisoned, so a stale pointer into a
/// recycled frame is reported.
class FramePool {
 public:
  explicit FramePool(std::uint64_t capacity_hint)
      : capacity_hint_(capacity_hint) {}
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool();

  /// A frame for a page about to be filled. Its contents are unspecified.
  std::uint8_t* take();

  /// Return a frame taken from this pool; its contents are dead.
  void give_back(std::uint8_t* frame);

  /// Frames handed out and not given back (resident plus in flight).
  std::uint64_t frames_held() const { return carved_ - free_.size(); }
  /// Frames the pool's chunks hold in total.
  std::uint64_t frames_allocated() const { return allocated_; }

  void set_capacity_hint(std::uint64_t frames) { capacity_hint_ = frames; }

 private:
  static constexpr std::uint64_t kChunkFrames = 16;  // 64 KiB

  void grow();

  std::uint64_t capacity_hint_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::vector<std::uint8_t*> free_;  // capacity kept >= allocated_
  std::uint8_t* fresh_ = nullptr;    // next never-used frame of the last chunk
  std::uint8_t* fresh_end_ = nullptr;
  std::uint64_t allocated_ = 0;  // frames in all chunks
  std::uint64_t carved_ = 0;     // frames ever handed out fresh
};

struct CachedPage {
  std::uint8_t* data = nullptr;  // kBlockSize frame owned by the cache's pool
  bool dirty = false;
  bool demanded = false;  // ever served a demand read (vs pure read-ahead)
};

struct ReadaheadConfig {
  std::uint32_t initial_window = 4;  // pages issued on any demand miss
  std::uint32_t max_window = 32;     // cap (128 KiB), like Linux default
  bool enabled = true;
};

struct PageCacheStats {
  RatioCounter lookups;              // demand lookups only
  std::uint64_t fills = 0;           // pages inserted (demand + read-ahead)
  std::uint64_t readahead_pages = 0; // pages brought in beyond the demand
  std::uint64_t evictions = 0;
  std::uint64_t evicted_never_used = 0;  // polluted: evicted w/o a demand hit
  std::uint64_t peak_pages = 0;
};

/// Eviction sink for dirty pages (writeback): called with the page's key and
/// bytes before the page is dropped.
using WritebackFn =
    std::function<void(const PageKey&, const std::uint8_t* data)>;

class PageCache {
 public:
  PageCache(std::uint64_t capacity_bytes, ReadaheadConfig ra = {});

  /// Demand lookup. Returns the page (promoting it) or nullptr on miss.
  CachedPage* lookup(const PageKey& key);

  /// Access without statistics (promotes recency). For the second touch
  /// within one request — copy-out after a counted lookup — so hit ratios
  /// count each request once.
  CachedPage* get(const PageKey& key);

  /// Non-demand lookup (used by read-ahead planning and tests): no stats,
  /// no promotion.
  bool contains(const PageKey& key) const;

  /// The pool frames come from: take one per page before filling it, and
  /// give it back if the fill fails or the page is not inserted after all.
  FramePool& frames() { return frames_; }

  /// Insert a page whose bytes are in `frame` (taken from frames()); the
  /// cache adopts the frame. Re-inserting a resident key releases the old
  /// frame. `demand` marks whether a user read asked for it (false for
  /// read-ahead fills).
  void insert(const PageKey& key, std::uint8_t* frame, bool demand);

  /// Drop a page (consistency invalidation); flushes via `writeback` if
  /// dirty. Returns true if present.
  bool invalidate(const PageKey& key);

  /// Mark a cached page dirty (buffered write).
  void mark_dirty(const PageKey& key);

  /// Plan the read-ahead for a demand miss at `key`: returns how many pages
  /// beyond the demanded ones to fetch, updating the per-file stream state.
  /// `demand_pages` is the span of the user request in pages.
  std::uint32_t plan_readahead(const PageKey& key, std::uint32_t demand_pages);

  /// Flush all dirty pages through `writeback`.
  void flush(const WritebackFn& writeback);

  /// Drop every resident page and all read-ahead stream state (cold
  /// restart). Cumulative statistics are preserved; callers must flush
  /// dirty pages first — clearing asserts nothing dirty remains.
  void clear();

  /// Set the writeback sink used when dirty pages are evicted/invalidated.
  void set_writeback(WritebackFn writeback) { writeback_ = std::move(writeback); }

  /// Capacity control (dynamic allocation gives/takes pages).
  std::uint64_t capacity_pages() const { return cache_.capacity(); }
  void set_capacity_pages(std::uint64_t pages);

  std::uint64_t resident_pages() const { return cache_.size(); }
  /// Frames out of the pool: resident pages plus fills in flight.
  std::uint64_t frames_held() const { return frames_.frames_held(); }
  std::uint64_t resident_bytes() const { return cache_.size() * kBlockSize; }
  const PageCacheStats& stats() const { return stats_; }
  RatioCounter& hit_counter() { return stats_.lookups; }

 private:
  struct StreamState {
    std::uint64_t next_expected = ~0ull;  // page after the last demand read
    std::uint32_t window = 0;             // current read-ahead window
  };

  /// Write back a dirty victim, then release its frame.
  void on_evict(const PageKey& key, CachedPage& page);

  FramePool frames_;  // declared first: frees its chunks after cache_ dies
  LruMap<PageKey, CachedPage, PageKeyHash> cache_;
  ReadaheadConfig ra_;
  PageCacheStats stats_;
  WritebackFn writeback_;
  std::unordered_map<std::uint32_t, StreamState> streams_;  // per file
};

}  // namespace pipette
