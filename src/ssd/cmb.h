// Controller Memory Buffer — the device-side staging window used by the
// 2B-SSD baseline (§2.2): the controller reads flash pages into the CMB, and
// the host then pulls bytes out over the PCIe BAR via MMIO or DMA. The CMB
// is a pool of page slots recycled round-robin (the paper's 64 MB "mapping
// region"); we model a smaller pool because the host copies data out
// synchronously before the slot can be reused.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ssd/types.h"

namespace pipette {

class Cmb {
 public:
  explicit Cmb(std::uint32_t page_slots = 64);

  /// Claim the next slot (round-robin) for an incoming page; returns slot id.
  std::uint32_t claim_slot();

  /// Bytes of a slot: the device fills them in place, the host reads them
  /// through the MMIO window.
  std::span<std::uint8_t> slot(std::uint32_t slot);

  std::uint32_t slots() const { return slots_; }

 private:
  std::uint32_t slots_;
  std::uint32_t next_ = 0;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace pipette
