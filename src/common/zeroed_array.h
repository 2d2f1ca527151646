// Fixed-size array of trivially-constructible values that starts all zero,
// backed by its own private anonymous mapping.
//
// The kernel zero-fills anonymous pages on first touch, so constructing the
// array costs no time and no resident memory until an element is written.
// Device-sized tables (the FTL maps) use it so a machine pays for what it
// touches, not for what it models. Correctness only relies on the zero
// guarantee of a fresh mapping.
//
// The array maps its pages itself rather than using std::calloc: glibc
// serves a large calloc from a reused arena heap whenever one has room, and
// then memsets it, so whether a table stayed untouched would depend on what
// other threads had freed before — resident memory would vary run to run.
// Huge pages are declined for the same reason: a sparse write would fault in
// 2 MiB, and khugepaged may collapse a region at any time.
//
// The first write to each 4 KiB page then faults during the run instead of
// during construction. That pays for tables a run barely writes, not for a
// buffer the run fills steadily: the HMB stays a pre-zeroed vector, because
// faulting its Data Area in while the FGRC fills it cost more run time per
// request than the zero fill saved at construction (see DESIGN.md §4f).
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/assert.h"

namespace pipette {

template <typename T>
class ZeroedArray {
  static_assert(std::is_trivial_v<T>,
                "all-zero bytes must be a valid T and no destructor may run");

 public:
  ZeroedArray() = default;
  explicit ZeroedArray(std::size_t size) : size_(size) {
    if (size == 0) return;
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    PIPETTE_ASSERT_MSG(p != MAP_FAILED,
                       "out of memory allocating a zeroed array");
#ifdef MADV_NOHUGEPAGE
    ::madvise(p, bytes(), MADV_NOHUGEPAGE);  // best effort
#endif
    data_ = static_cast<T*>(p);
  }
  ZeroedArray(ZeroedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroedArray& operator=(ZeroedArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;
  ~ZeroedArray() {
    if (data_ != nullptr) ::munmap(data_, bytes());
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }

 private:
  std::size_t bytes() const { return size_ * sizeof(T); }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pipette
