#include "ssd/hmb.h"

#include <cstring>

#include "common/assert.h"

namespace pipette {

InfoArea::InfoArea(std::uint32_t capacity)
    : capacity_(capacity), slots_(capacity), digested_(capacity, false) {
  PIPETTE_ASSERT(capacity > 0);
}

std::uint64_t InfoArea::push(const InfoRecord& rec, SimTime now) {
  PIPETTE_ASSERT_MSG(!full(), "Info Area ring overflow");
  const std::uint64_t idx = tail_++;
  slots_[idx % capacity_] = rec;
  occupancy_.update(now, in_flight());
  return idx;
}

const InfoRecord& InfoArea::at(std::uint64_t idx) const {
  PIPETTE_ASSERT_MSG(idx >= head_ && idx < tail_,
                     "Info Area index outside live window");
  return slots_[idx % capacity_];
}

void InfoArea::release(std::uint64_t idx, SimTime now) {
  PIPETTE_ASSERT_MSG(idx >= head_ && idx < tail_,
                     "Info Area release outside live window");
  PIPETTE_ASSERT_MSG(!digested_[idx % capacity_],
                     "Info Area record released twice");
  digested_[idx % capacity_] = true;
  while (head_ < tail_ && digested_[head_ % capacity_]) {
    digested_[head_ % capacity_] = false;
    ++head_;
  }
  occupancy_.update(now, in_flight());
}

Hmb::Hmb(const Layout& layout)
    : layout_(layout),
      tempbuf_offset_(static_cast<HmbAddr>(layout.info_slots) *
                      sizeof(InfoRecord)),
      data_offset_(tempbuf_offset_ + layout.tempbuf_bytes),
      info_(layout.info_slots),
      bytes_(data_offset_ + layout.data_bytes, 0) {}

std::span<std::uint8_t> Hmb::dma_window(HmbAddr dest, std::uint64_t len) {
  PIPETTE_ASSERT(dest + len <= bytes_.size());
  return {bytes_.data() + dest, static_cast<std::size_t>(len)};
}

void Hmb::read(HmbAddr src, std::span<std::uint8_t> out) const {
  PIPETTE_ASSERT(src + out.size() <= bytes_.size());
  std::memcpy(out.data(), bytes_.data() + src, out.size());
}

}  // namespace pipette
