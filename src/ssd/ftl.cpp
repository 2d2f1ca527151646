#include "ssd/ftl.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace pipette {

namespace {

constexpr std::uint64_t kInvalidMu = ~0ull;

template <typename T>
void drain_into(std::vector<T>& pending, std::vector<T>& out) {
  out.clear();
  out.insert(out.end(), pending.begin(), pending.end());
  pending.clear();
}

}  // namespace

Ftl::Ftl(const NandGeometry& geometry, std::uint64_t lba_count,
         std::uint32_t mapping_unit)
    : geometry_(geometry),
      lba_count_(lba_count),
      mu_size_(mapping_unit == 0 ? geometry.page_size : mapping_unit),
      spp_(geometry.page_size / mu_size_),
      pages_per_die_(geometry.pages_per_die()),
      pages_per_block_(geometry.pages_per_block),
      blocks_per_die_(pages_per_die_ / geometry.pages_per_block),
      mus_per_block_(pages_per_block_ * spp_) {
  PIPETTE_ASSERT_MSG(geometry_.page_size == kBlockSize,
                     "NAND page size must equal the 4 KiB logical block");
  PIPETTE_ASSERT_MSG(pages_per_die_ % pages_per_block_ == 0,
                     "pages per die must be a whole number of blocks");
  PIPETTE_ASSERT_MSG(mu_size_ >= 512 && mu_size_ <= geometry_.page_size &&
                         geometry_.page_size % mu_size_ == 0,
                     "mapping unit must be in [512, page] and divide the page");
  // Follows from page = 4 KiB and MU >= 512; lookup_pages' 8-entry dedup
  // and the 32-bit slot masks rely on it.
  PIPETTE_ASSERT_MSG(spp_ <= 8, "at most 8 mapping units per page");
  const std::uint64_t total_pages = geometry.total_pages();
  PIPETTE_ASSERT_MSG(lba_count <= total_pages - total_pages / 8,
                     "need >= 12.5% spare pages for write allocation");

  // Both maps start as untouched zero pages, i.e. entirely "as striped";
  // map_get/rmap_get derive those entries from the stripe formula.
  map_ = ZeroedArray<std::uint64_t>(lba_count * spp_);
  reverse_ = ZeroedArray<std::uint64_t>(total_pages * spp_);
  blocks_.resize(geometry.dies() * blocks_per_die_);
  free_blocks_.resize(geometry.dies());
  active_block_.assign(geometry.dies(), ~0ull);
  die_erases_.assign(geometry.dies(), 0);

  const std::uint64_t c = geometry_.channels;
  const std::uint64_t w = geometry_.ways_per_channel;
  // Block bookkeeping for the initially-used region; everything beyond is
  // free.
  for (std::uint64_t die = 0; die < geometry.dies(); ++die) {
    std::uint64_t used_this_die = 0;
    {
      // lba residing on this die: those with (lba % (c*w)) ==
      // channel-major die index mapping; count = ceil((lba_count - idx)/cw)
      const std::uint64_t channel = die / w;
      const std::uint64_t way = die % w;
      const std::uint64_t idx = way * c + channel;  // first lba on this die
      if (idx < lba_count)
        used_this_die = (lba_count - idx + c * w - 1) / (c * w);
    }
    const std::uint64_t full_blocks = used_this_die / pages_per_block_;
    const std::uint32_t partial =
        static_cast<std::uint32_t>(used_this_die % pages_per_block_);
    for (std::uint64_t b = 0; b < blocks_per_die_; ++b) {
      Block& block = blocks_[die * blocks_per_die_ + b];
      if (b < full_blocks) {
        block.next_slot = mus_per_block_;
        block.valid = mus_per_block_;
      } else if (b == full_blocks && partial > 0) {
        // Partially-filled boundary block: the remaining slots are treated
        // as unusable until GC erases the block (flash pages must be
        // programmed in order and the block is no longer the active one).
        block.next_slot = mus_per_block_;
        block.valid = partial * spp_;
      } else {
        free_blocks_[die].push_back(die * blocks_per_die_ + b);
      }
    }
    // LIFO pool: reverse so low block ids are popped first.
    std::reverse(free_blocks_[die].begin(), free_blocks_[die].end());
  }
}

// Initial striping: LBA i lives on channel (i % C), way ((i / C) % W),
// die-local page (i / (C*W)) = ((i / C) / W); all of its MUs start in that
// page's slots. Linear page index is die-major.
std::uint64_t Ftl::map_get(Lba lba, std::uint32_t slot) const {
  const std::uint64_t stored = map_[lba * spp_ + slot];
  if (stored != 0) return stored - 2;
  const std::uint64_t w = geometry_.ways_per_channel;
  const std::uint64_t q = lba / geometry_.channels;
  const std::uint64_t die = (lba % geometry_.channels) * w + q % w;
  return (die * pages_per_die_ + q / w) * spp_ + slot;
}

// Inverse of the striping: die-local page p of die (channel, way) holds
// LBA p * C*W + way * C + channel, if that LBA exists.
std::uint64_t Ftl::rmap_get(std::uint64_t page, std::uint32_t slot) const {
  const std::uint64_t stored = reverse_[page * spp_ + slot];
  if (stored != 0) return stored - 2;
  const std::uint64_t c = geometry_.channels;
  const std::uint64_t w = geometry_.ways_per_channel;
  const std::uint64_t die = page / pages_per_die_;
  const std::uint64_t lba =
      (page % pages_per_die_) * c * w + (die % w) * c + die / w;
  return lba < lba_count_ ? lba * spp_ + slot : kInvalidMu;
}

PhysPageAddr Ftl::decode(std::uint64_t linear) const {
  const std::uint64_t die = linear / pages_per_die_;
  PhysPageAddr addr;
  addr.channel = static_cast<std::uint32_t>(die / geometry_.ways_per_channel);
  addr.way = static_cast<std::uint32_t>(die % geometry_.ways_per_channel);
  addr.page = linear % pages_per_die_;
  return addr;
}

std::uint64_t Ftl::encode(const PhysPageAddr& addr) const {
  const std::uint64_t die =
      static_cast<std::uint64_t>(addr.channel) * geometry_.ways_per_channel +
      addr.way;
  return die * pages_per_die_ + addr.page;
}

std::uint64_t Ftl::die_of_linear(std::uint64_t linear) const {
  return linear / pages_per_die_;
}

PhysPageAddr Ftl::lookup(Lba lba) const {
  PIPETTE_ASSERT(lba < lba_count_);
  return decode(map_get(lba, 0) / spp_);
}

void Ftl::lookup_pages(Lba lba, std::vector<MuPageRead>& out) const {
  PIPETTE_ASSERT(lba < lba_count_);
  out.clear();
  // spp_ <= page/512 = 8, so a fixed scratch suffices for the dedup.
  std::uint64_t pages[8];
  std::uint32_t counts[8];
  std::uint32_t n = 0;
  for (std::uint32_t s = 0; s < spp_; ++s) {
    const std::uint64_t page = map_get(lba, s) / spp_;
    bool dup = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (pages[i] == page) {
        ++counts[i];
        dup = true;
        break;
      }
    }
    if (!dup) {
      pages[n] = page;
      counts[n] = 1;
      ++n;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    out.push_back({decode(pages[i]), counts[i] * mu_size_});
}

std::uint64_t Ftl::free_blocks(std::uint32_t die) const {
  PIPETTE_ASSERT(die < free_blocks_.size());
  return free_blocks_[die].size();
}

std::uint64_t Ftl::erase_count(std::uint32_t die) const {
  PIPETTE_ASSERT(die < die_erases_.size());
  return die_erases_[die];
}

std::uint32_t Ftl::block_valid_mus(std::uint64_t block_id) const {
  PIPETTE_ASSERT(block_id < blocks_.size());
  return blocks_[block_id].valid;
}

std::uint64_t Ftl::mu_linear(Lba lba, std::uint32_t slot) const {
  PIPETTE_ASSERT(lba < lba_count_ && slot < spp_);
  return map_get(lba, slot);
}

std::uint64_t Ftl::mu_owner(std::uint64_t linear_mu) const {
  PIPETTE_ASSERT(linear_mu < reverse_.size());
  return rmap_get(linear_mu / spp_, linear_mu % spp_);
}

std::uint64_t Ftl::block_of_linear_mu(std::uint64_t linear_mu) const {
  const std::uint64_t page = linear_mu / spp_;
  const std::uint64_t die = page / pages_per_die_;
  return die * blocks_per_die_ + (page % pages_per_die_) / pages_per_block_;
}

std::uint64_t Ftl::alloc_mu(std::uint64_t die, bool allow_gc,
                            std::vector<PageProgram>* seal_out) {
  auto active_has_room = [&]() {
    const std::uint64_t id = active_block_[die];
    return id != ~0ull && blocks_[id].next_slot < mus_per_block_;
  };
  if (!active_has_room()) {
    if (allow_gc && free_blocks_[die].size() <= kGcLowWater) collect(die);
    // GC's own relocations may have installed a fresh active block with
    // room left; popping another would orphan it half-filled.
    if (!active_has_room()) {
      PIPETTE_ASSERT_MSG(!free_blocks_[die].empty(),
                         "die out of free blocks even after GC");
      const std::uint64_t block_id = free_blocks_[die].back();
      free_blocks_[die].pop_back();
      active_block_[die] = block_id;
      PIPETTE_ASSERT(blocks_[block_id].next_slot == 0);
    }
  }
  const std::uint64_t block_id = active_block_[die];
  Block& block = blocks_[block_id];
  const std::uint64_t page_in_die =
      (block_id % blocks_per_die_) * pages_per_block_ + block.next_slot / spp_;
  const std::uint32_t slot = block.next_slot % spp_;
  ++block.next_slot;
  ++block.valid;
  const std::uint64_t linear_page = die * pages_per_die_ + page_in_die;
  if (block.next_slot % spp_ == 0) {
    // This MU filled the page: the merged write transaction seals and the
    // page is due for programming. Until then freshly-appended MUs sit in
    // the capacitor-backed controller write cache.
    ++stats_.pages_programmed;
    if (seal_out != nullptr) seal_out->push_back({decode(linear_page), spp_});
  }
  return linear_page * spp_ + slot;
}

void Ftl::invalidate_mu(std::uint64_t linear_mu) {
  const std::uint64_t page = linear_mu / spp_;
  const std::uint64_t die = page / pages_per_die_;
  const std::uint64_t block =
      die * blocks_per_die_ + (page % pages_per_die_) / pages_per_block_;
  PIPETTE_ASSERT(blocks_[block].valid > 0);
  --blocks_[block].valid;
  rmap_set(linear_mu, kInvalidMu);
  ++stats_.invalidated_mus;
  // A page stays live while any of its MUs is live; it died with this one
  // if no sibling survives.
  bool any_live = false;
  for (std::uint32_t s = 0; s < spp_ && !any_live; ++s)
    any_live = rmap_get(page, s) != kInvalidMu;
  if (!any_live) ++stats_.invalidated_pages;
}

void Ftl::collect(std::uint64_t die) {
  // Greedy victim: the fully-written, non-active block with the fewest
  // valid MUs on this die. A fully valid block yields no net space
  // (erase gain == relocation cost), so it is never worth collecting.
  std::uint64_t victim = ~0ull;
  std::uint32_t best_valid = mus_per_block_;  // must strictly improve
  for (std::uint64_t b = 0; b < blocks_per_die_; ++b) {
    const std::uint64_t id = die * blocks_per_die_ + b;
    const Block& block = blocks_[id];
    if (id == active_block_[die]) continue;
    if (block.next_slot != mus_per_block_) continue;  // not sealed
    if (block.valid < best_valid) {
      best_valid = block.valid;
      victim = id;
    }
  }
  if (victim == ~0ull) return;  // nothing collectable yet
  ++stats_.gc_collections;

  // Relocate the victim's live MUs page by page. Each page with any live
  // MU is read once into the GC page buffer — only the live MUs' bytes
  // cross the channel — and the MUs are re-packed through the merged-write
  // allocator, decoupling the per-MU reads from the full-page GC programs.
  // With MU = page the read and the (immediately sealed) program pair up
  // into a classic GcMove.
  const std::uint64_t first_page =
      die * pages_per_die_ + (victim % blocks_per_die_) * pages_per_block_;
  for (std::uint32_t p = 0; p < pages_per_block_; ++p) {
    const std::uint64_t page_linear = first_page + p;
    std::uint32_t live = 0;
    for (std::uint32_t s = 0; s < spp_; ++s)
      if (rmap_get(page_linear, s) != kInvalidMu) ++live;
    if (live == 0) continue;
    ++stats_.gc_relocated_pages;
    if (spp_ > 1)
      gc_page_reads_.push_back({decode(page_linear), live * mu_size_});
    for (std::uint32_t s = 0; s < spp_; ++s) {
      const std::uint64_t src = page_linear * spp_ + s;
      const std::uint64_t owner = rmap_get(page_linear, s);
      if (owner == kInvalidMu) continue;
      const std::uint64_t target = alloc_mu(
          die, /*allow_gc=*/false, spp_ == 1 ? nullptr : &gc_page_programs_);
      map_set(owner, target);
      rmap_set(target, owner);
      rmap_set(src, kInvalidMu);
      if (spp_ == 1)
        pending_moves_.push_back({decode(page_linear), decode(target / spp_)});
      ++stats_.gc_relocated_mus;
    }
  }
  // Erase the victim; wear is per-die and forwarded to the NAND model.
  blocks_[victim] = Block{};
  free_blocks_[die].push_back(victim);
  ++stats_.blocks_erased;
  ++die_erases_[die];
  pending_erases_.push_back(static_cast<std::uint32_t>(die));
  stats_.max_die_erases = std::max(stats_.max_die_erases, die_erases_[die]);
  stats_.min_die_erases =
      *std::min_element(die_erases_.begin(), die_erases_.end());
}

void Ftl::write_slots(Lba lba, std::uint32_t slot_mask) {
  PIPETTE_ASSERT(lba < lba_count_);
  PIPETTE_ASSERT(slot_mask != 0 && (slot_mask >> spp_) == 0);
  ++stats_.writes_mapped;

  // Invalidate the superseded MUs first: their pages may become GC fodder
  // for the allocations below.
  for (std::uint32_t s = 0; s < spp_; ++s)
    if (slot_mask & (1u << s)) invalidate_mu(map_get(lba, s));

  // Round-robin die selection spreads write bursts across the array; all
  // MUs of one write append to the same die's merged-write stream.
  const std::uint64_t die = next_die_;
  next_die_ = (next_die_ + 1) % geometry_.dies();
  for (std::uint32_t s = 0; s < spp_; ++s) {
    if (!(slot_mask & (1u << s))) continue;
    const std::uint64_t target =
        alloc_mu(die, /*allow_gc=*/true, &host_programs_);
    map_set(lba * spp_ + s, target);
    rmap_set(target, lba * spp_ + s);
    ++stats_.mus_written;
  }
}

PhysPageAddr Ftl::update(Lba lba) {
  write_slots(lba, (1u << spp_) - 1u);
  return decode(map_get(lba, 0) / spp_);
}

std::vector<GcMove> Ftl::take_gc_moves() {
  return std::exchange(pending_moves_, {});
}

void Ftl::drain_host_programs(std::vector<PageProgram>& out) {
  drain_into(host_programs_, out);
}

void Ftl::drain_gc_page_reads(std::vector<MuPageRead>& out) {
  drain_into(gc_page_reads_, out);
}

void Ftl::drain_gc_page_programs(std::vector<PageProgram>& out) {
  drain_into(gc_page_programs_, out);
}

void Ftl::drain_erased_dies(std::vector<std::uint32_t>& out) {
  drain_into(pending_erases_, out);
}

}  // namespace pipette
