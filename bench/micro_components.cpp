// M1: google-benchmark microbenchmarks of Pipette's hot components — the
// real-time costs of the host-side data structures (these are actual
// nanoseconds, not simulated time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/lru.h"
#include "common/zipf.h"
#include "hostmem/page_cache.h"
#include "pipette/adaptive.h"
#include "pipette/fgrc.h"

namespace pipette {
namespace {

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 0.8);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 12)->Arg(1 << 20)->Arg(1 << 24);

void BM_ScatteredZipfSample(benchmark::State& state) {
  ScatteredZipf zipf(static_cast<std::uint64_t>(state.range(0)), 0.8, 11);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ScatteredZipfSample)->Arg(1 << 20);

void BM_LruMapFindHit(benchmark::State& state) {
  LruMap<std::uint64_t, std::uint64_t> map(
      static_cast<std::size_t>(state.range(0)));
  for (std::int64_t i = 0; i < state.range(0); ++i)
    map.insert(static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.find(rng.next_below(static_cast<std::uint64_t>(state.range(0)))));
  }
}
BENCHMARK(BM_LruMapFindHit)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_SlabAllocateFree(benchmark::State& state) {
  Hmb hmb({64, 4096, 16ull * 1024 * 1024});
  SlabConfig cfg;
  cfg.slab_size = 256 * 1024;
  SlabStore store(hmb, cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto loc = store.allocate({1, i++ * 128, 128});
    benchmark::DoNotOptimize(loc);
    if (loc) store.free_item(*loc);
  }
}
BENCHMARK(BM_SlabAllocateFree);

void BM_FgrcLookupHit(benchmark::State& state) {
  Hmb hmb({64, 4096, 64ull * 1024 * 1024});
  FgrcConfig cfg;
  cfg.adaptive.initial_threshold = 1;
  cfg.adaptive.enabled = false;
  cfg.reassign.enabled = false;
  FineGrainedReadCache cache(hmb, cfg, nullptr);
  const std::uint64_t n = 100'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    cache.lookup({1, i * 128, 128});
    cache.plan_miss({1, i * 128, 128});
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup({1, rng.next_below(n) * 128, 128}));
  }
}
BENCHMARK(BM_FgrcLookupHit);

void BM_FgrcInvalidateRange(benchmark::State& state) {
  Hmb hmb({64, 4096, 64ull * 1024 * 1024});
  FgrcConfig cfg;
  cfg.adaptive.initial_threshold = 1;
  cfg.adaptive.enabled = false;
  cfg.reassign.enabled = false;
  FineGrainedReadCache cache(hmb, cfg, nullptr);
  std::uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cache.lookup({1, i * 128, 128});
    cache.plan_miss({1, i * 128, 128});
    state.ResumeTiming();
    benchmark::DoNotOptimize(cache.invalidate_range(1, i * 128, 128));
    ++i;
  }
}
BENCHMARK(BM_FgrcInvalidateRange);

void BM_PageCacheLookup(benchmark::State& state) {
  PageCache cache(64ull * 1024 * 1024);
  const std::uint64_t pages = 10'000;
  for (std::uint64_t p = 0; p < pages; ++p) {
    std::uint8_t* frame = cache.frames().take();
    std::fill_n(frame, kBlockSize, std::uint8_t{1});
    cache.insert({1, p}, frame, true);
  }
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup({1, rng.next_below(pages)}));
  }
}
BENCHMARK(BM_PageCacheLookup);

void BM_AdaptiveOnAccess(benchmark::State& state) {
  AdaptiveThreshold adaptive{AdaptiveConfig{}};
  bool flip = false;
  for (auto _ : state) {
    adaptive.on_access(flip = !flip);
  }
  benchmark::DoNotOptimize(adaptive.threshold());
}
BENCHMARK(BM_AdaptiveOnAccess);

}  // namespace
}  // namespace pipette

BENCHMARK_MAIN();
