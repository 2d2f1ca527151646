// Counting global allocator shared by the tests that assert a region of
// code performed zero heap allocations. Link counting_new.cpp into the test
// binary: every replaceable operator new in it then bumps the counter.
#pragma once

#include <atomic>
#include <cstdint>

/// Calls to the global operator new (any non-aligned form) so far.
extern std::atomic<std::uint64_t> g_operator_new_calls;
