// The 50% write mix of bench/gc_wear_sweep: 512 B uniform reads plus 512 B
// rewrites of Zipf(0.9)-popular slots. Each rank is hashed (stably, per
// seed) onto the slot space, so the hot slots scatter across pages and
// blocks and greedy GC has to relocate live sibling mapping units; that
// bench's file comment explains why this shape exercises sub-page GC.
// bench/gc_wear_sweep.cpp and bench/bottleneck_report.cpp hold copies of
// this generator with the write ratio as a parameter; keep them in step.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "workload/workload.h"

namespace pipette::benchmark {

class ZipfSlotWorkload : public Workload {
 public:
  static constexpr double kWriteRatio = 0.5;

  ZipfSlotWorkload(std::uint64_t file_size, std::uint64_t seed)
      : rng_(seed), seed_(seed) {
    files_.push_back({"gc.dat", file_size});
    slots_ = file_size / 512;
  }

  const std::vector<FileSpec>& files() const override { return files_; }

  Request next() override {
    if (rng_.next_bool(kWriteRatio)) {
      if (!zipf_) zipf_ = std::make_unique<ZipfGenerator>(slots_, 0.9);
      const std::uint64_t slot = mix64(seed_ ^ zipf_->sample(rng_)) % slots_;
      return {0, slot * 512, 512, true};
    }
    return {0, rng_.next_below(slots_) * 512, 512, false};
  }

  std::string name() const override { return "gc-zipf-slot"; }

 private:
  std::vector<FileSpec> files_;
  Rng rng_;
  std::uint64_t seed_;
  std::uint64_t slots_ = 0;
  std::unique_ptr<ZipfGenerator> zipf_;
};

}  // namespace pipette::benchmark
