#include "pipette/slab_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.h"

namespace pipette {

SlabStore::SlabStore(Hmb& hmb, SlabConfig config)
    : hmb_(hmb), config_(std::move(config)) {
  PIPETTE_ASSERT(!config_.class_sizes.empty());
  PIPETTE_ASSERT(std::is_sorted(config_.class_sizes.begin(),
                                config_.class_sizes.end()));
  PIPETTE_ASSERT(config_.class_sizes.back() <= config_.slab_size);

  classes_.resize(config_.class_sizes.size());
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    classes_[i].item_size = config_.class_sizes[i];
    classes_[i].items_per_slab = static_cast<std::uint32_t>(
        config_.slab_size / config_.class_sizes[i]);
  }

  // Carve the Data Area into slabs (alignment padding beyond the last whole
  // slab is unused, as in Fig. 3).
  const std::uint64_t area = hmb_.data_area().size();
  const std::uint64_t n_slabs = area / config_.slab_size;
  PIPETTE_ASSERT_MSG(n_slabs >= 1, "Data Area smaller than one slab");
  free_pool_.reserve(n_slabs);
  // Pool is popped from the back; push high addresses first so allocation
  // proceeds from the start of the area.
  for (std::uint64_t i = n_slabs; i-- > 0;) {
    free_pool_.push_back(hmb_.data_offset() + i * config_.slab_size);
  }
}

std::uint32_t SlabStore::class_for(std::uint32_t len) const {
  auto it = std::lower_bound(config_.class_sizes.begin(),
                             config_.class_sizes.end(), len);
  PIPETTE_ASSERT_MSG(it != config_.class_sizes.end(),
                     "object larger than the largest slab class");
  return static_cast<std::uint32_t>(it - config_.class_sizes.begin());
}

SlabStore::Slot& SlabStore::slot(ItemLoc loc) {
  PIPETTE_ASSERT(loc.slab < slabs_.size());
  PIPETTE_ASSERT(loc.slot < slabs_[loc.slab].slots.size());
  return slabs_[loc.slab].slots[loc.slot];
}

const SlabStore::Slot& SlabStore::slot(ItemLoc loc) const {
  PIPETTE_ASSERT(loc.slab < slabs_.size());
  PIPETTE_ASSERT(loc.slot < slabs_[loc.slab].slots.size());
  return slabs_[loc.slab].slots[loc.slot];
}

void SlabStore::lru_push_front(SlabClass& sc, ItemLoc loc) {
  Slot& s = slot(loc);
  s.lru_prev = {};
  s.lru_next = sc.lru_head;
  (sc.lru_head.valid() ? slot(sc.lru_head).lru_prev : sc.lru_tail) = loc;
  sc.lru_head = loc;
}

void SlabStore::lru_unlink(SlabClass& sc, ItemLoc loc) {
  const Slot& s = slot(loc);
  (s.lru_prev.valid() ? slot(s.lru_prev).lru_next : sc.lru_head) = s.lru_next;
  (s.lru_next.valid() ? slot(s.lru_next).lru_prev : sc.lru_tail) = s.lru_prev;
}

bool SlabStore::take_free_slab(SlabClass& sc, std::uint32_t cls_idx) {
  if (free_pool_.empty()) return false;
  const HmbAddr base = free_pool_.back();
  free_pool_.pop_back();
  Slab slab;
  slab.cls = cls_idx;
  slab.base = base;
  slab.slots.resize(sc.items_per_slab);
  slabs_.push_back(std::move(slab));
  const auto id = static_cast<std::uint32_t>(slabs_.size() - 1);
  sc.slab_ids.push_back(id);
  sc.open_slab = id;
  sc.next_fresh = 0;
  stats_.resident_slab_bytes += config_.slab_size;
  return true;
}

std::optional<ItemLoc> SlabStore::allocate(const FgKey& key) {
  const std::uint32_t cls_idx = class_for(key.len);
  SlabClass& sc = classes_[cls_idx];

  ItemLoc loc;
  if (!sc.cleanup.empty()) {
    // Recycled slot from the cleanup array.
    loc = sc.cleanup.back();
    sc.cleanup.pop_back();
  } else if (sc.open_slab != ~0u && sc.next_fresh < sc.items_per_slab) {
    loc = {sc.open_slab, sc.next_fresh++};
  } else if (take_free_slab(sc, cls_idx)) {
    loc = {sc.open_slab, sc.next_fresh++};
  } else {
    return std::nullopt;
  }

  Slot& s = slot(loc);
  PIPETTE_ASSERT(!s.live);
  s.key = key;
  s.live = true;
  s.page = {};
  lru_push_front(sc, loc);
  ++sc.live_items;
  ++slabs_[loc.slab].live_count;
  ++stats_.live_items;
  return loc;
}

std::optional<std::pair<FgKey, ItemLoc>> SlabStore::evict_lru(
    std::uint32_t cls) {
  SlabClass& sc = classes_[cls];
  if (!sc.lru_tail.valid()) return std::nullopt;
  const ItemLoc victim = sc.lru_tail;
  const FgKey key = slot(victim).key;
  ++sc.evictions;
  ++stats_.evictions;
  free_item(victim);
  return std::make_pair(key, victim);
}

void SlabStore::free_item(ItemLoc loc) {
  Slot& s = slot(loc);
  PIPETTE_ASSERT(s.live);
  Slab& slab = slabs_[loc.slab];
  SlabClass& sc = classes_[slab.cls];
  lru_unlink(sc, loc);
  --sc.live_items;
  s.live = false;
  --slab.live_count;
  --stats_.live_items;
  if (slab.external == nullptr) {
    // Resident slot: recycle through the cleanup array.
    sc.cleanup.push_back(loc);
  } else if (slab.live_count == 0) {
    // Fully dead external slab: release its host memory.
    slab.external.reset();
    stats_.external_bytes -= config_.slab_size;
  }
}

bool SlabStore::externalize(std::uint32_t cls_idx, std::uint32_t slab_id) {
  if (stats_.external_bytes + config_.slab_size > config_.max_external_bytes)
    return false;
  Slab& slab = slabs_[slab_id];
  PIPETTE_ASSERT(slab.external == nullptr);
  SlabClass& sc = classes_[cls_idx];

  // Record the offsets before/after migration by copying the slab's bytes
  // into freshly allocated host memory.
  slab.external = std::make_unique<std::uint8_t[]>(config_.slab_size);
  hmb_.read(slab.base, {slab.external.get(), config_.slab_size});
  stats_.external_bytes += config_.slab_size;
  ++stats_.migrations;

  // Its resident free slots are no longer DMA-able destinations.
  std::erase_if(sc.cleanup,
                [slab_id](const ItemLoc& l) { return l.slab == slab_id; });
  if (sc.open_slab == slab_id) {
    sc.open_slab = ~0u;
    sc.next_fresh = 0;
  }
  std::erase(sc.slab_ids, slab_id);

  // The recycled slab returns to the free pool for subsequent requests.
  free_pool_.push_back(slab.base);
  slab.base = kInvalidHmbAddr;
  stats_.resident_slab_bytes -= config_.slab_size;

  if (slab.live_count == 0) {
    slab.external.reset();
    stats_.external_bytes -= config_.slab_size;
  }
  return true;
}

bool SlabStore::externalize_slab(std::uint32_t requesting_cls, Rng& rng) {
  // Candidate classes: more than one resident slab, not the requester.
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    if (c != requesting_cls && classes_[c].slab_ids.size() > 1)
      candidates.push_back(c);
  }
  if (candidates.empty()) return false;
  const std::uint32_t cls_idx = candidates[static_cast<std::size_t>(
      rng.next_below(candidates.size()))];
  // Prefer a non-open slab so fresh slots are not stranded.
  SlabClass& sc = classes_[cls_idx];
  std::uint32_t victim = sc.slab_ids.front();
  for (std::uint32_t id : sc.slab_ids) {
    if (id != sc.open_slab) {
      victim = id;
      break;
    }
  }
  return externalize(cls_idx, victim);
}

bool SlabStore::externalize_slab_of(std::uint32_t cls) {
  SlabClass& sc = classes_[cls];
  if (sc.slab_ids.empty()) return false;
  std::uint32_t victim = ~0u;
  for (std::uint32_t id : sc.slab_ids) {
    if (id != sc.open_slab) {
      victim = id;
      break;
    }
  }
  if (victim == ~0u) {
    if (sc.slab_ids.size() != 1) return false;
    victim = sc.slab_ids.front();  // only the open slab exists
  }
  return externalize(cls, victim);
}

void SlabStore::touch(ItemLoc loc) {
  Slot& s = slot(loc);
  PIPETTE_ASSERT(s.live);
  SlabClass& sc = classes_[slabs_[loc.slab].cls];
  if (sc.lru_head == loc) return;
  lru_unlink(sc, loc);
  lru_push_front(sc, loc);
}

std::span<const std::uint8_t> SlabStore::data(ItemLoc loc) const {
  const Slot& s = slot(loc);
  PIPETTE_ASSERT(s.live);
  const Slab& slab = slabs_[loc.slab];
  const SlabClass& sc = classes_[slab.cls];
  const std::uint64_t off =
      static_cast<std::uint64_t>(loc.slot) * sc.item_size;
  if (slab.external != nullptr) {
    return {slab.external.get() + off, s.key.len};
  }
  // Resident: view straight into the HMB.
  const auto raw = std::as_const(hmb_).raw();
  return {raw.data() + slab.base + off, s.key.len};
}

std::span<std::uint8_t> SlabStore::mutable_data(ItemLoc loc) {
  const Slot& s = slot(loc);
  PIPETTE_ASSERT(s.live);
  Slab& slab = slabs_[loc.slab];
  const SlabClass& sc = classes_[slab.cls];
  const std::uint64_t off =
      static_cast<std::uint64_t>(loc.slot) * sc.item_size;
  if (slab.external != nullptr) {
    return {slab.external.get() + off, s.key.len};
  }
  auto raw = hmb_.raw();
  return {raw.data() + slab.base + off, s.key.len};
}

HmbAddr SlabStore::hmb_addr(ItemLoc loc) const {
  const Slot& s = slot(loc);
  PIPETTE_ASSERT(s.live);
  const Slab& slab = slabs_[loc.slab];
  PIPETTE_ASSERT_MSG(slab.external == nullptr,
                     "externalised items are not DMA destinations");
  return slab.base +
         static_cast<std::uint64_t>(loc.slot) *
             classes_[slab.cls].item_size;
}

const FgKey& SlabStore::key(ItemLoc loc) const {
  const Slot& s = slot(loc);
  PIPETTE_ASSERT(s.live);
  return s.key;
}

bool SlabStore::resident(ItemLoc loc) const {
  return slabs_[loc.slab].external == nullptr;
}

bool SlabStore::live(ItemLoc loc) const {
  return loc.slab < slabs_.size() &&
         loc.slot < slabs_[loc.slab].slots.size() &&
         slabs_[loc.slab].slots[loc.slot].live;
}

SlabClassStats SlabStore::class_stats(std::uint32_t cls) const {
  PIPETTE_ASSERT(cls < classes_.size());
  const SlabClass& sc = classes_[cls];
  SlabClassStats st;
  st.item_size = sc.item_size;
  st.slabs = static_cast<std::uint32_t>(sc.slab_ids.size());
  st.live_items = sc.live_items;
  st.evictions = sc.evictions;
  return st;
}

}  // namespace pipette
