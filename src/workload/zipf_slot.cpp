#include "workload/zipf_slot.h"

namespace pipette {

ZipfSlotWorkload::ZipfSlotWorkload(std::uint64_t file_size,
                                   double write_ratio, std::uint64_t seed)
    : rng_(seed), seed_(seed), write_ratio_(write_ratio) {
  files_.push_back({"gc.dat", file_size});
  slots_ = file_size / 512;
}

Request ZipfSlotWorkload::next() {
  if (write_ratio_ > 0.0 && rng_.next_bool(write_ratio_)) {
    if (!zipf_) zipf_ = std::make_unique<ZipfGenerator>(slots_, 0.9);
    const std::uint64_t slot = mix64(seed_ ^ zipf_->sample(rng_)) % slots_;
    return {0, slot * 512, 512, true};
  }
  return {0, rng_.next_below(slots_) * 512, 512, false};
}

}  // namespace pipette
