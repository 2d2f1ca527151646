// Event queue for the DES core: a 4-ary min-heap of compact 24-byte
// (when, seq, handle) entries with out-of-line callback storage. Sifts
// compare and shuffle only the contiguous heap array, never the callbacks;
// the callback slab is recycled through a free list.
//
// Events drain one at a time through pop_min() in exactly (when, seq)
// ascending order — the determinism contract every golden trace pins.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"

namespace pipette {

/// Only for `Simulator sim(config.queue)` in benchmark/pipette_bench.cpp.
enum class QueueKind { kHeap };

class EventQueue {
 public:
  using Callback = InlineFunction<void()>;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event; requires !empty().
  SimTime min_when() const { return heap_[0].when; }

  /// Insert an event. Ordering is by (when, seq) ascending, so equal
  /// timestamps drain in submission order — the determinism contract.
  void push(SimTime when, std::uint64_t seq, Callback cb);

  /// Remove the earliest event, writing its key to `when`/`seq` and moving
  /// its callback into `cb` (no copy); requires !empty(). The slot is
  /// recycled immediately, so the callback may push new events freely.
  void pop_min(SimTime& when, std::uint64_t& seq, Callback& cb);

  /// High-water mark of size() observed after any push (exported as
  /// `des.slab_peak`).
  std::size_t peak_size() const { return peak_size_; }

 private:
  /// Heap entry: the full sort key inline plus the callback slot handle.
  /// Sifts compare and shuffle these 24-byte PODs without ever
  /// dereferencing into the callback slab.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t node;
  };

  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::vector<Callback> nodes_;      // callback slab; index = stable handle
  std::vector<Entry> heap_;          // 4-ary heap of keyed entries
  std::vector<std::uint32_t> free_;  // recycled slab handles
  std::size_t peak_size_ = 0;
};

}  // namespace pipette
