// Replaces the global operator new/delete with counting forwarders to
// malloc/free (see counting_new.h). The default operator new[] forwards
// here; the code under test never over-aligns beyond
// __STDCPP_DEFAULT_NEW_ALIGNMENT__ on a path these tests measure.
#include "counting_new.h"

#include <cstdlib>
#include <new>

std::atomic<std::uint64_t> g_operator_new_calls{0};

void* operator new(std::size_t size) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
// The deletes stay out of line: inlined into a container's destructor, GCC
// pairs their free() with operator new and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
