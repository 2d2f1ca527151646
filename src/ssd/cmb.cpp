#include "ssd/cmb.h"

#include "common/assert.h"

namespace pipette {

Cmb::Cmb(std::uint32_t page_slots)
    : slots_(page_slots),
      bytes_(static_cast<std::size_t>(page_slots) * kBlockSize, 0) {
  PIPETTE_ASSERT(page_slots > 0);
}

std::uint32_t Cmb::claim_slot() {
  const std::uint32_t s = next_;
  next_ = (next_ + 1) % slots_;
  return s;
}

std::span<std::uint8_t> Cmb::slot(std::uint32_t slot) {
  PIPETTE_ASSERT(slot < slots_);
  return {bytes_.data() + static_cast<std::size_t>(slot) * kBlockSize,
          kBlockSize};
}

}  // namespace pipette
