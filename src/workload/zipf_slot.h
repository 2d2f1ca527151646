// The sub-page GC write mix of bench/gc_wear_sweep and the gc-bound cell of
// bench/bottleneck_report: 512 B uniform reads over every slot of one file,
// plus 512 B rewrites of Zipf(0.9)-popular slots. Each rank is hashed
// (stably, per seed) onto the slot space, so the hot slots scatter across
// pages and blocks and greedy GC has to relocate their live sibling mapping
// units; gc_wear_sweep's file comment explains why this shape isolates the
// mapping-unit effect.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "workload/workload.h"

namespace pipette {

class ZipfSlotWorkload : public Workload {
 public:
  /// A `write_ratio` share of requests are writes (0 = read-only).
  ZipfSlotWorkload(std::uint64_t file_size, double write_ratio,
                   std::uint64_t seed);

  const std::vector<FileSpec>& files() const override { return files_; }
  Request next() override;
  std::string name() const override { return "gc-zipf-slot"; }

 private:
  std::vector<FileSpec> files_;
  Rng rng_;
  std::uint64_t seed_;
  double write_ratio_;
  std::uint64_t slots_ = 0;
  std::unique_ptr<ZipfGenerator> zipf_;  // built on the first write
};

}  // namespace pipette
