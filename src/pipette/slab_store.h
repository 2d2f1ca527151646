// Slab-class storage for the fine-grained read cache's Data Area
// (paper §3.2.1, Fig. 3).
//
// The HMB Data Area is divided into uniformly sized slabs; each slab belongs
// to a slab class and is pre-divided into items of that class's capacity.
// Data is stored in the smallest class that fits. Each class tracks the
// start offset of the next free item in its last (open) slab, a cleanup
// array of recycled item slots, a per-class LRU list of live items, and an
// eviction count. The LRU list is threaded through the slots themselves
// (ItemLoc links), so no operation allocates a node per item. When no free
// memory remains, the caller chooses between the paper's two pressure
// actions:
//   1. evict_lru()       — recycle the class's least recently used item;
//   2. externalize_slab()— migrate one slab of another class out of the
//                          shared region (its data moves to host memory
//                          "allocated out of the fine-grained read cache"),
//                          returning the freed slab to the free pool.
// Externalised items stay readable (hits still count) but their slots can
// no longer receive device DMA, so they are never re-allocated.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pipette/fg_key.h"
#include "ssd/hmb.h"

namespace pipette {

struct SlabConfig {
  std::uint64_t slab_size = 256 * 1024;
  /// Item capacities, ascending. Default: memcached-style 1.5x growth
  /// covering 64 B .. 4 KiB (the fine-grained size range).
  std::vector<std::uint32_t> class_sizes = {64,   96,   144,  216,
                                            328,  496,  744,  1120,
                                            1680, 2520, 3784, 4096};
  /// Cap on memory migrated out of the shared region (paper solution 2).
  std::uint64_t max_external_bytes = 64ull * 1024 * 1024;
};

/// Stable handle of an item: (slab index, slot index).
struct ItemLoc {
  std::uint32_t slab = ~0u;
  std::uint32_t slot = ~0u;

  bool operator==(const ItemLoc&) const = default;
  bool valid() const { return slab != ~0u; }
};

/// Links the store keeps in each slot on behalf of its owner (the FGRC
/// threads its per-page item chains through them). allocate() resets them;
/// free_item() leaves them intact until the slot is reallocated.
struct PageLinks {
  ItemLoc prev;
  ItemLoc next;
};

struct SlabClassStats {
  std::uint32_t item_size = 0;
  std::uint32_t slabs = 0;       // resident slabs owned by the class
  std::uint64_t live_items = 0;
  std::uint64_t evictions = 0;
};

struct SlabStoreStats {
  std::uint64_t resident_slab_bytes = 0;  // slabs taken from the Data Area
  std::uint64_t external_bytes = 0;       // migrated out of the HMB
  std::uint64_t live_items = 0;
  std::uint64_t evictions = 0;
  std::uint64_t migrations = 0;  // slabs externalised
};

class SlabStore {
 public:
  SlabStore(Hmb& hmb, SlabConfig config);

  /// Smallest class whose items fit `len`. Asserts len <= largest class.
  std::uint32_t class_for(std::uint32_t len) const;

  /// Allocate an item for `key` (len = key.len). Returns nullopt when the
  /// class has no free slot and no free slab exists — the caller then
  /// applies a pressure action and retries.
  std::optional<ItemLoc> allocate(const FgKey& key);

  /// Evict the least recently used item of `cls`; its slot joins the
  /// class's cleanup array (if resident). Returns the evicted key and its
  /// (now dead) location, or nullopt if the class holds no items.
  std::optional<std::pair<FgKey, ItemLoc>> evict_lru(std::uint32_t cls);

  /// Migrate one slab of some class other than `requesting_cls` (chosen
  /// pseudo-randomly among classes with more than one slab) out of the
  /// shared region; the freed slab returns to the free pool. Returns false
  /// if no eligible slab exists or the external budget is exhausted.
  bool externalize_slab(std::uint32_t requesting_cls, Rng& rng);

  /// Targeted variant used by the adaptive reassignment strategy: migrate
  /// one slab of `cls` specifically. Same return semantics.
  bool externalize_slab_of(std::uint32_t cls);

  /// Promote an item to MRU within its class.
  void touch(ItemLoc loc);

  /// Remove an item (consistency invalidation).
  void free_item(ItemLoc loc);

  /// Bytes of a live item (HMB-resident or externalised).
  std::span<const std::uint8_t> data(ItemLoc loc) const;

  /// Mutable bytes of a live item (fine-grained write update-in-place).
  std::span<std::uint8_t> mutable_data(ItemLoc loc);

  /// HMB destination address for the device DMA filling this item.
  /// Only valid for resident items (allocate() only returns those).
  HmbAddr hmb_addr(ItemLoc loc) const;

  const FgKey& key(ItemLoc loc) const;
  bool resident(ItemLoc loc) const;
  /// True if `loc` names an allocated, not yet freed item.
  bool live(ItemLoc loc) const;

  PageLinks& page_links(ItemLoc loc) { return slot(loc).page; }
  const PageLinks& page_links(ItemLoc loc) const { return slot(loc).page; }

  std::uint32_t classes() const {
    return static_cast<std::uint32_t>(config_.class_sizes.size());
  }
  SlabClassStats class_stats(std::uint32_t cls) const;
  const SlabStoreStats& stats() const { return stats_; }
  std::uint32_t free_slabs() const {
    return static_cast<std::uint32_t>(free_pool_.size());
  }
  /// Total bytes of cache memory in use (resident slabs + external).
  std::uint64_t memory_bytes() const {
    return stats_.resident_slab_bytes + stats_.external_bytes;
  }
  const SlabConfig& config() const { return config_; }

 private:
  struct Slot {
    FgKey key;
    bool live = false;
    ItemLoc lru_prev;  // towards MRU
    ItemLoc lru_next;  // towards LRU
    PageLinks page;
  };
  struct Slab {
    std::uint32_t cls = ~0u;
    HmbAddr base = kInvalidHmbAddr;          // offset into the HMB
    std::unique_ptr<std::uint8_t[]> external;  // set once migrated
    std::vector<Slot> slots;
    std::uint32_t live_count = 0;
  };
  struct SlabClass {
    std::uint32_t item_size = 0;
    std::uint32_t items_per_slab = 0;
    std::vector<std::uint32_t> slab_ids;  // resident slabs owned
    std::uint32_t open_slab = ~0u;        // slab with fresh slots left
    std::uint32_t next_fresh = 0;         // next never-used slot in open slab
    std::vector<ItemLoc> cleanup;         // recycled (free) resident slots
    ItemLoc lru_head;                     // MRU
    ItemLoc lru_tail;                     // LRU, the next victim
    std::uint64_t live_items = 0;
    std::uint64_t evictions = 0;
  };

  Slot& slot(ItemLoc loc);
  const Slot& slot(ItemLoc loc) const;
  void lru_push_front(SlabClass& sc, ItemLoc loc);
  void lru_unlink(SlabClass& sc, ItemLoc loc);
  bool take_free_slab(SlabClass& sc, std::uint32_t cls_idx);
  bool externalize(std::uint32_t cls_idx, std::uint32_t slab_id);

  Hmb& hmb_;
  SlabConfig config_;
  std::vector<Slab> slabs_;
  std::vector<SlabClass> classes_;
  std::vector<HmbAddr> free_pool_;  // bases of unassigned slabs
  SlabStoreStats stats_;
  Rng reassign_rng_{0xfeed};
};

}  // namespace pipette
