// Host Memory Buffer and the Info Area ring.
//
// The HMB is host DRAM handed to the SSD controller at initialisation; the
// device holds a standing DMA mapping onto it (NVMe Set Features / HMB), so
// fine-grained transfers pay no per-access mapping cost. Pipette lays the
// region out as three partitions (paper Fig. 3):
//
//   [ Info Area | TempBuf Area | Data Area ]
//
// The Info Area is a ring of records jointly managed by host and device:
// the host appends a record per in-flight fine-grained read (bumping tail)
// carrying the destination address inside the HMB; the device consumes
// records as it serves ranges (bumping head). TempBuf is a small staging
// region for data the adaptive policy declines to cache; Data Area holds
// the fine-grained read cache's slabs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/util.h"
#include "ssd/types.h"

namespace pipette {

/// One Info Area record: where in the HMB the device must land the bytes of
/// one fine-grained range.
struct InfoRecord {
  HmbAddr dest = kInvalidHmbAddr;  // destination offset within the HMB
  Lba lba = kInvalidLba;           // page holding the data
  std::uint32_t byte_offset = 0;   // offset of the range within the page
  std::uint32_t byte_len = 0;
};

/// Fixed-capacity single-producer (host) / single-consumer (device) ring of
/// InfoRecords. Indices grow monotonically; slot = index % capacity.
class InfoArea {
 public:
  explicit InfoArea(std::uint32_t capacity);

  bool full() const { return tail_ - head_ == capacity_; }
  bool empty() const { return tail_ == head_; }
  std::uint32_t in_flight() const {
    return static_cast<std::uint32_t>(tail_ - head_);
  }
  std::uint32_t capacity() const { return capacity_; }
  /// Occupancy high-water mark (max in_flight() ever observed after a push).
  std::uint32_t peak_in_flight() const {
    return static_cast<std::uint32_t>(occupancy_.peak());
  }

  /// Host side: append a record at sim time `now`; returns its monotonic
  /// index. Ring must not be full (callers back-pressure on full()). Also
  /// advances the ring's occupancy integral to `now` (obs/util.h).
  std::uint64_t push(const InfoRecord& rec, SimTime now);

  /// Record at monotonic index `idx` (must be in [head, tail)).
  const InfoRecord& at(std::uint64_t idx) const;

  /// Device side: mark record `idx` digested at sim time `now`. The paper's
  /// engine "digests items in Info Area and increases the head's value":
  /// the head advances past the longest contiguous digested prefix, so
  /// concurrent fine-grained commands (demand + speculative prefetch) may
  /// complete out of order — a later command's retirement just leaves a gap
  /// until the earlier one digests its records too.
  void release(std::uint64_t idx, SimTime now);

  std::uint64_t head() const { return head_; }
  std::uint64_t tail() const { return tail_; }

  /// Time-weighted occupancy of the ring (depth integral, busy time, peak).
  OccupancyIntegrator& occupancy() { return occupancy_; }

 private:
  std::uint32_t capacity_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  std::vector<InfoRecord> slots_;
  std::vector<bool> digested_;  // out-of-order release marks, slot-indexed
  OccupancyIntegrator occupancy_;
};

/// The HMB region: backing bytes plus the three-partition layout.
class Hmb {
 public:
  struct Layout {
    std::uint32_t info_slots = 4096;
    std::uint64_t tempbuf_bytes = 64 * 1024;
    std::uint64_t data_bytes = 64ull * 1024 * 1024;
  };

  explicit Hmb(const Layout& layout);

  InfoArea& info() { return info_; }
  const InfoArea& info() const { return info_; }

  /// Byte views of the partitions. Data-area addresses (HmbAddr) used in
  /// InfoRecords are offsets into the *whole* HMB, so device writes use
  /// raw().
  std::span<std::uint8_t> raw() { return {bytes_.data(), bytes_.size()}; }
  std::span<const std::uint8_t> raw() const {
    return {bytes_.data(), bytes_.size()};
  }
  std::span<std::uint8_t> tempbuf() {
    return raw().subspan(tempbuf_offset_, layout_.tempbuf_bytes);
  }
  std::span<std::uint8_t> data_area() {
    return raw().subspan(data_offset_, layout_.data_bytes);
  }

  HmbAddr tempbuf_offset() const { return tempbuf_offset_; }
  HmbAddr data_offset() const { return data_offset_; }
  std::uint64_t size() const { return bytes_.size(); }

  /// Device-side landing window of a DMA: the `len` bytes at `dest`, which
  /// the device writes in place.
  std::span<std::uint8_t> dma_window(HmbAddr dest, std::uint64_t len);

  /// Host-side read out of the HMB (plain memory load).
  void read(HmbAddr src, std::span<std::uint8_t> out) const;

 private:
  Layout layout_;
  HmbAddr tempbuf_offset_;
  HmbAddr data_offset_;
  InfoArea info_;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace pipette
