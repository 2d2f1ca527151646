// The Fine-Grained Read Cache (paper §3.2): a lookup index in front of the
// slab store, the adaptive promotion policy, the dynamic
// allocation strategy (page cache vs FGRC hit-ratio arbitration under
// memory pressure), and the adaptive slab reassignment performed by the
// prototype's maintenance/re-balance threads.
//
// Threads vs simulation: the paper runs maintenance and re-balance as
// kernel threads. In this deterministic simulation their work is performed
// at epoch boundaries counted in fine-grained accesses, which preserves the
// mechanism (periodic inspection of per-class eviction counts, migration of
// stagnant slabs back to the free pool) without nondeterministic timing.
//
// The paper's per-file hash lookup tables are one flat open-addressing
// index keyed by FgKey. An item key (len > 0) maps to its ItemLoc; a page
// key {file, page * kBlockSize, 0} maps to the newest item starting in that
// page, the head of a chain threaded through the slab slots. Exact reads
// take one probe; write invalidation walks the chains of the pages a write
// can overlap.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_index.h"
#include "common/rng.h"
#include "common/stats.h"
#include "pipette/adaptive.h"
#include "pipette/slab_store.h"
#include "ssd/hmb.h"

namespace pipette {

enum class PressurePolicy {
  kDynamic,        // paper §3.2.4: compare hit ratios
  kAlwaysEvict,    // ablation: always solution 1
  kAlwaysMigrate,  // ablation: always solution 2
};

struct ReassignConfig {
  bool enabled = true;
  std::uint64_t epoch_accesses = 64 * 1024;  // maintenance period
};

struct FgrcConfig {
  SlabConfig slab;
  AdaptiveConfig adaptive;
  ReassignConfig reassign;
  PressurePolicy policy = PressurePolicy::kDynamic;
};

struct FgrcStats {
  RatioCounter lookups;
  std::uint64_t promotions = 0;       // misses admitted into the cache
  std::uint64_t tempbuf_fills = 0;    // misses served through TempBuf only
  std::uint64_t invalidations = 0;    // items deleted by writes
  std::uint64_t pressure_evictions = 0;
  std::uint64_t pressure_migrations = 0;
  std::uint64_t reassigned_slabs = 0;
  std::uint64_t aborted_fills = 0;  // reserved slots poisoned by failed fills
  std::uint64_t tempbuf_peak_bytes = 0;  // staging cursor high-water mark
  std::vector<std::uint64_t> class_promotions;  // promotions per slab class
};

/// Where a fine-grained miss's bytes should land.
struct MissPlan {
  HmbAddr dest = kInvalidHmbAddr;
  bool promoted = false;   // true: dest is a cache item; false: TempBuf
  ItemLoc loc;             // valid when promoted
};

class FineGrainedReadCache {
 public:
  /// `page_cache_hits` is the page cache's hit counter, consulted by the
  /// dynamic allocation strategy; may be null (treated as ratio 0).
  FineGrainedReadCache(Hmb& hmb, FgrcConfig config,
                       const RatioCounter* page_cache_hits);

  /// Hit path: bytes of the cached object, or nullopt. Records hit/miss
  /// statistics, reference counting, and adaptive-threshold accounting.
  std::optional<std::span<const std::uint8_t>> lookup(const FgKey& key);

  /// Miss path: decide placement for the incoming bytes and reserve it.
  /// Called after lookup() returned nullopt for this key.
  MissPlan plan_miss(const FgKey& key);

  /// Pure index probe — no hit/miss stats, no adaptive-threshold or epoch
  /// accounting. Used by the prefetcher to dedup speculative candidates
  /// without perturbing the demand path's statistics.
  bool contains(const FgKey& key) const { return find_item(key) != nullptr; }

  /// Placement for a *speculative* fill (prefetcher). Promotion reuses the
  /// AdaptiveThreshold verdict — classifier confidence stands in for the
  /// ghost reference count — but the ghost tracker is NOT recorded into:
  /// speculation must not fast-track later demand promotions. Low-confidence
  /// fills stage through the speculative half of TempBuf (see
  /// enable_speculative_staging) so they cannot clobber in-flight demand
  /// staging.
  MissPlan plan_speculative(const FgKey& key, std::uint32_t confidence);

  /// Split the TempBuf in half: demand staging keeps the lower half,
  /// speculative fills rotate over the upper half. Called once by
  /// PipettePath when prefetching is enabled; without it the full TempBuf
  /// serves demand exactly as before.
  void enable_speculative_staging() { spec_staging_ = true; }

  /// The fill that plan_miss() reserved never delivered its bytes (device
  /// fault). Evict the poisoned reservation so a later lookup can never
  /// serve garbage; a plain TempBuf plan needs no cleanup.
  void abort_fill(const FgKey& key, const MissPlan& plan);

  /// Reinstall externally saved statistics (used by cold restarts, which
  /// rebuild the cache but must not reset cumulative counters).
  void restore_stats(const FgrcStats& stats) {
    stats_ = stats;
    stats_.class_promotions.resize(store_.classes(), 0);
  }

  /// Delete any cached items overlapping a write to [offset, offset+len)
  /// of `file` (§3.1.3 consistency rule), except an optional `keep` key
  /// (used by the fine-write path after an in-place update). Returns items
  /// removed.
  std::uint32_t invalidate_range(FileId file, std::uint64_t offset,
                                 std::uint64_t len,
                                 const FgKey* keep = nullptr);

  /// Fine-grained write extension: if exactly `key` is cached, overwrite
  /// its bytes in place (keeping the cache warm) and return true; callers
  /// still invalidate any *other* overlapping items.
  bool update_in_place(const FgKey& key, std::span<const std::uint8_t> data);

  /// Bytes of a (live) item.
  std::span<const std::uint8_t> item_data(ItemLoc loc) const {
    return store_.data(loc);
  }

  /// Invariant check (tests): every item entry names a live slot holding
  /// its key; every page entry heads its page's chain; chain links are
  /// symmetric; each chain holds exactly the items starting in its page;
  /// and the index holds as many items as the store has live.
  bool index_consistent() const;

  const FgrcStats& stats() const { return stats_; }
  const SlabStore& store() const { return store_; }
  const AdaptiveThreshold& adaptive() const { return adaptive_; }
  std::uint64_t memory_bytes() const { return store_.memory_bytes(); }
  RatioCounter& hit_counter() { return stats_.lookups; }

  /// TempBuf staging address for `len` bytes (rotating bump pointer).
  HmbAddr tempbuf_addr(std::uint32_t len);

 private:
  /// One index slot: an item (ItemLoc of that key) or a page (chain head).
  struct IndexRef {
    ItemLoc loc;
    bool page = false;
  };

  static FgKey page_key(FileId file, std::uint64_t page) {
    return {file, page * kBlockSize, 0};
  }
  auto item_match(const FgKey& key) const {
    return [this, &key](const IndexRef& r) {
      return !r.page && store_.key(r.loc) == key;
    };
  }
  auto page_match(FileId file, std::uint64_t page) const {
    return [this, file, page](const IndexRef& r) {
      if (!r.page) return false;
      const FgKey& head = store_.key(r.loc);
      return head.file == file && head.offset / kBlockSize == page;
    };
  }
  const ItemLoc* find_item(const FgKey& key) const;
  const IndexRef* find_page(FileId file, std::uint64_t page) const;
  /// Add a freshly allocated item to the index and its page's chain.
  void index_item(const FgKey& key, ItemLoc loc);
  /// Drop an item from the index and its page's chain. Works on an item
  /// the store has just freed, whose links are still intact.
  void unindex_item(const FgKey& key, ItemLoc loc);
  bool relieve_pressure(std::uint32_t cls);
  void run_reassignment_epoch();
  /// Reserve a cache item for `key`, relieving pressure as needed.
  std::optional<ItemLoc> allocate_with_relief(const FgKey& key);
  /// Install a freshly reserved item into the tables and build its plan.
  MissPlan install_promotion(const FgKey& key, ItemLoc loc);
  /// Staging address in the speculative half of the TempBuf.
  HmbAddr spec_tempbuf_addr(std::uint32_t len);

  Hmb& hmb_;
  FgrcConfig config_;
  SlabStore store_;
  AdaptiveThreshold adaptive_;
  ReferenceTracker ghosts_;
  const RatioCounter* page_cache_hits_;
  FlatIndex<IndexRef> index_;  // item and page keys
  // invalidate_range scratch: (offset, item) in free order.
  std::vector<std::pair<std::uint64_t, ItemLoc>> doomed_;
  FgrcStats stats_;
  Rng rng_{0xcafe};
  HmbAddr tempbuf_cursor_ = 0;
  bool spec_staging_ = false;   // TempBuf split for speculative fills
  HmbAddr spec_cursor_ = 0;     // rotates over the upper TempBuf half
  std::uint64_t accesses_since_epoch_ = 0;
  std::vector<std::uint64_t> evictions_at_epoch_;  // per class
};

}  // namespace pipette
