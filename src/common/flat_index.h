// Open-addressing hash index: linear probing, backward-shift erase (no
// tombstones), and a power-of-two slot array that doubles past 3/4 load.
// It backs LruMap and the fine-grained read cache's item/page index.
//
// The index stores small handles (`Ref`), not keys. Each slot keeps 32 bits
// of the key's mixed hash next to its handle; a probe calls the caller's
// match predicate, which reads the key from the caller's own storage, only
// when those bits agree. So every key lives once, growing and erasing never
// read a key, and an index that was never inserted into owns no memory.
//
// A Ref* returned by find() or emplace() is valid until the next emplace()
// or erase().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/assert.h"

namespace pipette {

template <typename Ref>
class FlatIndex {
  static_assert(std::is_trivially_copyable_v<Ref>);

 public:
  /// The handle whose key `match` accepts, or nullptr.
  template <typename Match>
  Ref* find(std::uint64_t hash, Match&& match) {
    const std::size_t pos = position(hash, match);
    return pos == kNone ? nullptr : &slots_[pos].ref;
  }
  template <typename Match>
  const Ref* find(std::uint64_t hash, Match&& match) const {
    const std::size_t pos = position(hash, match);
    return pos == kNone ? nullptr : &slots_[pos].ref;
  }

  /// Insert `ref` unless `match` accepts a handle already present. Returns
  /// the present or inserted handle and whether the insert happened.
  template <typename Match>
  std::pair<Ref*, bool> emplace(std::uint64_t hash, const Ref& ref,
                                Match&& match) {
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    const std::uint32_t tag = tag_of(hash);
    std::size_t i = tag & mask_;
    for (; slots_[i].tag != 0; i = (i + 1) & mask_) {
      if (slots_[i].tag == tag && match(std::as_const(slots_[i].ref)))
        return {&slots_[i].ref, false};
    }
    slots_[i] = {tag, ref};
    ++size_;
    return {&slots_[i].ref, true};
  }

  /// Remove the handle `match` accepts; returns it, or nullopt if absent.
  template <typename Match>
  std::optional<Ref> erase(std::uint64_t hash, Match&& match) {
    std::size_t hole = position(hash, match);
    if (hole == kNone) return std::nullopt;
    const Ref erased = slots_[hole].ref;
    // Backward shift: pull each later entry of the run into the hole unless
    // its home slot lies cyclically in (hole, j], where it must stay.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].tag != 0;
         j = (j + 1) & mask_) {
      const std::size_t home = slots_[j].tag & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].tag = 0;
    --size_;
    return erased;
  }

  /// Drop every handle; the slot array is kept for reuse.
  void clear() {
    for (std::size_t i = 0; i < capacity(); ++i) slots_[i].tag = 0;
    size_ = 0;
  }

  /// Visit every handle, in slot order.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (slots_[i].tag != 0) fn(slots_[i].ref);
    }
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;  // 0 = empty
    Ref ref{};
  };
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  // The high half of a Fibonacci product: well mixed even for identity
  // hashes of sequential keys. Never 0, which marks an empty slot.
  static std::uint32_t tag_of(std::uint64_t hash) {
    const auto tag =
        static_cast<std::uint32_t>((hash * 0x9e3779b97f4a7c15ull) >> 32);
    return tag == 0 ? 1 : tag;
  }

  std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }

  template <typename Match>
  std::size_t position(std::uint64_t hash, Match& match) const {
    if (size_ == 0) return kNone;
    const std::uint32_t tag = tag_of(hash);
    for (std::size_t i = tag & mask_; slots_[i].tag != 0;
         i = (i + 1) & mask_) {
      if (slots_[i].tag == tag && match(std::as_const(slots_[i].ref)))
        return i;
    }
    return kNone;
  }

  // Re-place every entry by its stored tag; keys are not consulted.
  void grow() {
    const std::size_t old_capacity = capacity();
    const std::size_t new_capacity =
        old_capacity == 0 ? kMinCapacity : 2 * old_capacity;
    PIPETTE_ASSERT_MSG(new_capacity - 1 <= 0xffffffffull,
                       "index larger than its 32-bit tags can address");
    std::unique_ptr<Slot[]> old = std::exchange(
        slots_, std::make_unique<Slot[]>(new_capacity));
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].tag == 0) continue;
      std::size_t j = old[i].tag & mask_;
      while (slots_[j].tag != 0) j = (j + 1) & mask_;
      slots_[j] = old[i];
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pipette
