// Unit and property tests for src/common: RNG, zipf sampling, statistics,
// pattern bytes, LRU map, the table printer, and the zeroed array.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/inline_function.h"
#include "common/json.h"
#include "common/lru.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/zeroed_array.h"
#include "common/zipf.h"

namespace pipette {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) EXPECT_NEAR(c, expected, expected * 0.05);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_in(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo |= (v == 10);
    saw_hi |= (v == 13);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Mix64, IsStatelessAndStable) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

// --- Zipf ---

// The empirical head mass of zipf(alpha) must match the analytic mass.
class ZipfShape : public ::testing::TestWithParam<double> {};

TEST_P(ZipfShape, HeadMassMatchesAnalytic) {
  const double alpha = GetParam();
  const std::uint64_t n = 10000;
  ZipfGenerator z(n, alpha);
  Rng rng(17);
  const int draws = 200000;
  std::uint64_t head = 0;  // draws landing in the top 100 ranks
  for (int i = 0; i < draws; ++i) head += (z.sample(rng) < 100);

  double mass_head = 0, mass_all = 0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    const double p = std::pow(static_cast<double>(k), -alpha);
    mass_all += p;
    if (k <= 100) mass_head += p;
  }
  const double expected = mass_head / mass_all;
  EXPECT_NEAR(static_cast<double>(head) / draws, expected, 0.015)
      << "alpha=" << alpha;
}

TEST_P(ZipfShape, SamplesInRange) {
  const double alpha = GetParam();
  ZipfGenerator z(1000, alpha);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(z.sample(rng), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfShape,
                         ::testing::Values(0.5, 0.8, 0.99, 1.0, 1.2));

TEST(Zipf, RankZeroIsMostPopular) {
  ZipfGenerator z(1000, 0.8);
  Rng rng(23);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  // Rank 0 strictly dominates rank 100.
  EXPECT_GT(counts[0], counts.count(100) ? counts[100] * 2 : 0);
}

TEST(Zipf, SingleElementPopulation) {
  ZipfGenerator z(1, 0.8);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(ScatteredZipf, PermutationIsBijective) {
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 100ULL, 1000ULL, 4097ULL}) {
    ScatteredZipf z(n, 0.8, 99);
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto p = z.permute(i);
      EXPECT_LT(p, n);
      EXPECT_TRUE(seen.insert(p).second) << "collision at rank " << i;
    }
  }
}

TEST(ScatteredZipf, HotKeysAreScattered) {
  // The 10 hottest ranks should not map to 10 adjacent keys.
  ScatteredZipf z(100000, 0.8, 7);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t r = 0; r < 10; ++r) keys.push_back(z.permute(r));
  std::sort(keys.begin(), keys.end());
  EXPECT_GT(keys.back() - keys.front(), 1000u);
}

// --- Stats ---

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RatioCounter, Basics) {
  RatioCounter r;
  EXPECT_EQ(r.ratio(), 0.0);
  r.record(true);
  r.record(false);
  r.record(true);
  r.record(true);
  EXPECT_EQ(r.hits(), 3u);
  EXPECT_EQ(r.misses(), 1u);
  EXPECT_DOUBLE_EQ(r.ratio(), 0.75);
  r.reset();
  EXPECT_EQ(r.accesses(), 0u);
}

TEST(LatencyHistogram, ExactSmallValues) {
  LatencyHistogram h;
  h.record(3);
  h.record(3);
  h.record(5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 5u);
  EXPECT_NEAR(h.mean_ns(), 11.0 / 3.0, 1e-9);
  EXPECT_EQ(h.percentile(50), 3u);
}

TEST(LatencyHistogram, PercentileWithinBucketError) {
  LatencyHistogram h;
  for (SimDuration v = 1; v <= 100000; ++v) h.record(v);
  // Log-bucketed: <= ~6.25% relative value error at this resolution.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99000.0, 99000.0 * 0.07);
  EXPECT_EQ(h.max(), 100000u);
}

TEST(LatencyHistogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.record(10);
  b.record(1000);
  b.record(2000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 2000u);
}

TEST(LatencyHistogram, ZeroAndHugeValues) {
  LatencyHistogram h;
  h.record(0);
  h.record(3600ull * kSec);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_GE(h.percentile(100), 3000ull * kSec);
}

TEST(LatencyHistogram, SubtractionRemovesAPrefixSnapshot) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(100);
  const LatencyHistogram snapshot = h;  // warmup boundary
  for (int i = 0; i < 10; ++i) h.record(100'000);
  LatencyHistogram measured = h.diff(snapshot);
  EXPECT_EQ(measured.count(), 10u);
  // total_ns subtraction is exact, so the mean is exactly the later values'.
  EXPECT_DOUBLE_EQ(measured.mean_ns(), 100'000.0);
  // Percentiles describe only the post-snapshot values (within bucket
  // error); the full histogram's p50 would sit at the 100ns warmup spike.
  EXPECT_NEAR(static_cast<double>(measured.percentile(50)), 100'000.0,
              100'000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(measured.percentile(1)), 100'000.0,
              100'000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 100.0, 100.0 * 0.07);
  // min/max are representative bucket values after subtraction.
  EXPECT_NEAR(static_cast<double>(measured.min()), 100'000.0,
              100'000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(measured.max()), 100'000.0,
              100'000.0 * 0.07);
}

TEST(LatencyHistogram, SubtractionInPlaceAndEdgeCases) {
  LatencyHistogram h;
  h.record(5);
  h.record(7);
  const LatencyHistogram all = h;
  h -= LatencyHistogram{};  // subtracting empty is a no-op
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 5u);  // sub-bucket range: values exact
  EXPECT_EQ(h.max(), 7u);
  h -= all;  // subtracting everything empties it
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.percentile(99), 0u);
}

// --- ThreadPool ---

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([&ran] { ++ran; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) pool.submit([&ran] { ++ran; });
  }  // ~ThreadPool joins after the queue is empty
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survives a throwing task.
  auto after = pool.submit([] {});
  EXPECT_NO_THROW(after.get());
}

TEST(ThreadPool, AtLeastOneWorkerEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

// --- parallel_for ---

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (unsigned jobs : {1u, 3u, 8u}) {
    std::array<std::atomic<int>, 5> ran{};
    parallel_for(ran.size(), jobs, [&ran](std::size_t i) { ++ran[i]; });
    for (std::size_t i = 0; i < ran.size(); ++i)
      EXPECT_EQ(ran[i].load(), 1) << "jobs " << jobs << " index " << i;
  }
}

TEST(ParallelFor, OneJobRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  parallel_for(5, 1, [&](std::size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(on_caller);
}

TEST(ParallelFor, BodyFailureRethrows) {
  for (unsigned jobs : {1u, 3u}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(5, jobs,
                              [&ran](std::size_t i) {
                                ++ran;
                                if (i == 2) throw std::runtime_error("body");
                              }),
                 std::runtime_error)
        << "jobs " << jobs;
    EXPECT_GE(ran.load(), 3) << "jobs " << jobs;
  }
}

// --- Pattern bytes ---

TEST(PatternBytes, DeterministicAndKeyed) {
  EXPECT_EQ(pattern_byte(1, 0), pattern_byte(1, 0));
  int diff = 0;
  for (int i = 0; i < 64; ++i)
    diff += pattern_byte(1, i) != pattern_byte(2, i);
  EXPECT_GT(diff, 48);  // different keys give mostly different bytes
}

TEST(PatternBytes, FillMatchesByteAtEveryAlignment) {
  // Every start alignment across two words, every length that exercises
  // head-only, head+tail and head+body+tail shapes, and a page-sized body
  // with and without a trailing partial word. Guard bytes around the
  // destination catch a write past either end.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(4097);
  constexpr std::size_t kGuard = 8;
  constexpr std::uint8_t kSentinel = 0xA5;
  for (std::uint64_t start = 0; start < 16; ++start) {
    for (std::size_t len : lengths) {
      std::vector<std::uint8_t> buf(len + 2 * kGuard, kSentinel);
      const std::span<std::uint8_t> out(buf.data() + kGuard, len);
      fill_pattern(out, 9, start);
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(out[i], pattern_byte(9, start + i))
            << start << "+" << i << " len " << len;
      for (std::size_t g = 0; g < kGuard; ++g) {
        ASSERT_EQ(buf[g], kSentinel) << start << " len " << len;
        ASSERT_EQ(buf[kGuard + len + g], kSentinel) << start << " len " << len;
      }
      ASSERT_TRUE(check_pattern(out, 9, start)) << start << " len " << len;
    }
  }
}

TEST(PatternBytes, CheckPatternDetectsCorruption) {
  // Offset 100 is 4 bytes into a word and 64 bytes end 4 bytes into one:
  // bytes [0, 4) are the head, [4, 60) whole words, [60, 64) the tail.
  std::vector<std::uint8_t> buf(64);
  fill_pattern({buf.data(), buf.size()}, 4, 100);
  EXPECT_TRUE(check_pattern({buf.data(), buf.size()}, 4, 100));
  EXPECT_FALSE(check_pattern({buf.data(), buf.size()}, 5, 100));
  EXPECT_FALSE(check_pattern({buf.data(), buf.size()}, 4, 101));
  for (std::size_t at : {0u, 3u, 4u, 17u, 59u, 60u, 63u}) {
    buf[at] ^= 0x01;
    EXPECT_FALSE(check_pattern({buf.data(), buf.size()}, 4, 100)) << at;
    buf[at] ^= 0x01;
  }
  EXPECT_TRUE(check_pattern({buf.data(), buf.size()}, 4, 100));
}

// --- LruMap ---

TEST(LruMap, InsertFindEvictOrder) {
  LruMap<int, int> m(2);
  EXPECT_FALSE(m.insert(1, 10).has_value());
  EXPECT_FALSE(m.insert(2, 20).has_value());
  ASSERT_NE(m.find(1), nullptr);  // promotes 1; LRU is now 2
  auto evicted = m.insert(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2);
  EXPECT_EQ(evicted->second, 20);
  EXPECT_EQ(m.find(2), nullptr);
  EXPECT_NE(m.find(1), nullptr);
}

TEST(LruMap, InsertExistingOverwritesWithoutEviction) {
  LruMap<int, int> m(2);
  m.insert(1, 10);
  m.insert(2, 20);
  EXPECT_FALSE(m.insert(1, 11).has_value());
  EXPECT_EQ(*m.find(1), 11);
  EXPECT_EQ(m.size(), 2u);
}

TEST(LruMap, PeekDoesNotPromote) {
  LruMap<int, int> m(2);
  m.insert(1, 10);
  m.insert(2, 20);
  EXPECT_EQ(*m.peek(1), 10);  // no promotion: 1 stays LRU
  auto evicted = m.insert(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);
}

TEST(LruMap, EraseAndLruAccessor) {
  LruMap<int, int> m(3);
  m.insert(1, 10);
  m.insert(2, 20);
  EXPECT_EQ(m.lru()->first, 1);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.lru()->first, 2);
}

TEST(LruMap, SetCapacityEvictsInOrder) {
  LruMap<int, int> m(4);
  for (int i = 1; i <= 4; ++i) m.insert(i, i);
  std::vector<int> evicted;
  m.set_capacity(2, [&](int k, int) { evicted.push_back(k); });
  EXPECT_EQ(evicted, (std::vector<int>{1, 2}));
  EXPECT_EQ(m.size(), 2u);
}

// --- Table ---

TEST(Table, TextAlignmentAndCsv) {
  Table t({"Workload", "A", "B"});
  t.add_row({"Block I/O", "1.0", "1.0"});
  t.add_row({"Pipette", Table::fmt(31.25, 1), Table::fmt_times(1.5)});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("Workload"), std::string::npos);
  EXPECT_NE(text.find("31.2"), std::string::npos);
  EXPECT_NE(text.find("1.50x"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("Pipette,31.2,1.50x"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table t({"name", "value"});
  t.add_row({"a,b", "say \"hi\""});
  EXPECT_NE(t.to_csv().find("\"a,b\",\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(LatencyHistogram, PercentilesAreMonotonic) {
  LatencyHistogram h;
  Rng rng(21);
  for (int i = 0; i < 50000; ++i) h.record(rng.next_below(1u << 20));
  SimDuration prev = 0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const SimDuration v = h.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  EXPECT_LE(h.percentile(100), h.max());
}

TEST(LatencyHistogram, SingleValueAllPercentilesEqual) {
  LatencyHistogram h;
  h.record(12345);
  const SimDuration p50 = h.percentile(50);
  EXPECT_EQ(h.percentile(1), p50);
  EXPECT_EQ(h.percentile(99), p50);
  // Log-bucketed: within one sub-bucket (~6.25%) of the true value.
  EXPECT_NEAR(static_cast<double>(p50), 12345.0, 12345.0 * 0.07);
}

TEST(Zipf, LowerAlphaIsFlatter) {
  const std::uint64_t n = 100000;
  Rng r1(5), r2(5);
  ZipfGenerator flat(n, 0.5), steep(n, 1.2);
  std::uint64_t flat_head = 0, steep_head = 0;
  for (int i = 0; i < 50000; ++i) {
    flat_head += flat.sample(r1) < 100;
    steep_head += steep.sample(r2) < 100;
  }
  EXPECT_LT(flat_head * 2, steep_head);
}

TEST(BenchArgs, ParsesAllFlags) {
  const char* argv[] = {"prog",   "--requests", "12345",  "--seed", "9",
                        "--quick", "--csv",     "/tmp/x.csv", "--jobs", "8",
                        "--json", "/tmp/x.json"};
  const BenchArgs args =
      BenchArgs::parse(12, const_cast<char**>(argv));
  EXPECT_EQ(args.requests, 12345u);
  EXPECT_EQ(args.seed, 9u);
  EXPECT_TRUE(args.quick);
  EXPECT_EQ(args.csv_path, "/tmp/x.csv");
  EXPECT_EQ(args.jobs, 8u);
  EXPECT_EQ(args.json_path, "/tmp/x.json");
}

TEST(BenchArgs, DefaultsWhenBare) {
  const char* argv[] = {"prog"};
  const BenchArgs args = BenchArgs::parse(1, const_cast<char**>(argv));
  EXPECT_EQ(args.requests, 0u);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_FALSE(args.quick);
  EXPECT_TRUE(args.csv_path.empty());
  EXPECT_TRUE(args.json_path.empty());
  EXPECT_EQ(args.jobs, 0u);  // 0 = hardware concurrency
}

// Numeric flags take a whole decimal number in range and nothing else: no
// suffix, sign, whitespace or overflow is silently truncated or wrapped.
TEST(BenchArgs, NumericFlagsTakeWholeNumbersInRange) {
  const char* limits[] = {"prog",       "--seed", "18446744073709551615",
                          "--jobs",     "4294967295", "--mu", "512",
                          "--requests", "0"};
  const BenchArgs args = BenchArgs::parse(9, const_cast<char**>(limits));
  EXPECT_EQ(args.seed, 18446744073709551615ull);
  EXPECT_EQ(args.jobs, 4294967295u);
  EXPECT_EQ(args.mapping_unit, 512u);
  EXPECT_EQ(args.requests, 0u);

  const auto parse = [](const char* flag, const char* value) {
    const char* argv[] = {"prog", flag, value};
    BenchArgs::parse(3, const_cast<char**>(argv));
  };
  const auto exits2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse("--requests", "10k"), exits2, "--requests must be");
  EXPECT_EXIT(parse("--requests", "abc"), exits2, "--requests must be");
  EXPECT_EXIT(parse("--requests", ""), exits2, "--requests must be");
  EXPECT_EXIT(parse("--requests", " 5"), exits2, "--requests must be");
  EXPECT_EXIT(parse("--seed", "+7"), exits2, "--seed must be");
  EXPECT_EXIT(parse("--seed", "18446744073709551616"), exits2,
              "--seed must be");
  EXPECT_EXIT(parse("--jobs", "-1"), exits2, "--jobs must be");
  EXPECT_EXIT(parse("--jobs", "4294967296"), exits2, "--jobs must be");
  EXPECT_EXIT(parse("--mu", "512abc"), exits2, "--mu must be");
  EXPECT_EXIT(parse("--mu", "0x200"), exits2, "--mu must be");
  EXPECT_EXIT(parse("--mu", "768"), exits2, "--mu must divide 4096");
}

// --- InlineFunction ---

TEST(InlineFunction, InvokesWithArgumentsAndResult) {
  InlineFunction<int(int, int)> f = [](int a, int b) { return a + b; };
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(2, 3), 5);
}

TEST(InlineFunction, DefaultAndNullptrAreEmpty) {
  InlineFunction<void()> a;
  InlineFunction<void()> b = nullptr;
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(InlineFunction, MoveTransfersTargetAndEmptiesSource) {
  int calls = 0;
  InlineFunction<void()> f = [&calls] { ++calls; };
  InlineFunction<void()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(calls, 1);
  f = std::move(g);  // move-assignment works both ways
  EXPECT_FALSE(static_cast<bool>(g));
  f();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, CapturesUpToLimitStayInline) {
  struct Small {
    std::uint64_t a[6];  // exactly 48 bytes
    void operator()() const {}
  };
  struct Big {
    std::uint64_t a[7];  // 56 bytes: over the limit
    void operator()() const {}
  };
  EXPECT_TRUE((InlineFunction<void()>::stores_inline<Small>()));
  EXPECT_FALSE((InlineFunction<void()>::stores_inline<Big>()));

  const std::uint64_t before = inline_function_heap_allocations();
  InlineFunction<void()> small = Small{};
  EXPECT_EQ(inline_function_heap_allocations() - before, 0u);
  InlineFunction<void()> big = Big{};
  EXPECT_EQ(inline_function_heap_allocations() - before, 1u);
  small();
  big();
}

TEST(InlineFunction, HeapTargetSurvivesMovesWithoutReallocating) {
  struct Big {
    std::uint64_t payload[16];
    int* out;
    void operator()() const { *out = static_cast<int>(payload[15]); }
  };
  int result = 0;
  Big b{};
  b.payload[15] = 77;
  b.out = &result;
  const std::uint64_t before = inline_function_heap_allocations();
  InlineFunction<void()> f = b;
  InlineFunction<void()> g = std::move(f);
  InlineFunction<void()> h;
  h = std::move(g);
  EXPECT_EQ(inline_function_heap_allocations() - before, 1u);
  h();
  EXPECT_EQ(result, 77);
}

TEST(InlineFunction, DestroysCapturedState) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  {
    InlineFunction<int()> f = [token] { return *token; };
    token.reset();
    EXPECT_FALSE(watch.expired());  // the closure keeps it alive
    EXPECT_EQ(f(), 5);
  }
  EXPECT_TRUE(watch.expired());  // destroying f released the capture
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.to_text().find("only"), std::string::npos);
}

TEST(OnlineStats, VarianceUndefinedBelowTwoSamples) {
  OnlineStats s;
  EXPECT_EQ(s.variance(), 0.0);  // n = 0
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(42.0);
  EXPECT_EQ(s.variance(), 0.0);  // n = 1: sample variance needs n >= 2
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(42.0);
  EXPECT_EQ(s.variance(), 0.0);  // identical samples: defined, and zero
}

TEST(LatencyHistogram, DiffOfIdenticalSnapshotsIsEmpty) {
  LatencyHistogram h;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) h.record(rng.next_below(1u << 16));
  const LatencyHistogram d = h.diff(h);
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.mean_ns(), 0.0);
  EXPECT_EQ(d.percentile(99), 0);
  EXPECT_EQ(d, LatencyHistogram{});
}

TEST(LatencyHistogram, MergeOfEmptyIsIdentity) {
  LatencyHistogram h, empty;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) h.record(rng.next_below(1u << 16));
  const LatencyHistogram before = h;
  h.merge(empty);
  EXPECT_EQ(h, before);
  empty.merge(before);
  EXPECT_EQ(empty, before);
}

TEST(LatencyHistogram, PercentileMonotonicityProperty) {
  // Property: for random samples and random percentile pairs p <= q,
  // percentile(p) <= percentile(q); and every readout lies in [min, max].
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    LatencyHistogram h;
    const int n = 1 + static_cast<int>(rng.next_below(2000));
    for (int i = 0; i < n; ++i) h.record(rng.next_below(1ull << 40));
    for (int trial = 0; trial < 50; ++trial) {
      double p = rng.next_double() * 100.0;
      double q = rng.next_double() * 100.0;
      if (p > q) std::swap(p, q);
      EXPECT_LE(h.percentile(p), h.percentile(q));
    }
    // Extremes are representative bucket midpoints: within the log-bucket
    // value error (<7%) of the true recorded extremes.
    EXPECT_GE(static_cast<double>(h.percentile(0)),
              static_cast<double>(h.min()) * 0.93 - 1.0);
    EXPECT_LE(static_cast<double>(h.percentile(100)),
              static_cast<double>(h.max()) * 1.07 + 1.0);
  }
}

TEST(LatencyHistogram, SummaryIncludesCountAndTailPercentiles) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1000 * (i + 1));
  const std::string s = h.summary();
  EXPECT_NE(s.find("n=100"), std::string::npos) << s;
  EXPECT_NE(s.find("p50="), std::string::npos) << s;
  EXPECT_NE(s.find("p99="), std::string::npos) << s;
  EXPECT_NE(s.find("p999="), std::string::npos) << s;
  EXPECT_NE(s.find("max="), std::string::npos) << s;
}

TEST(JsonWriter, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "pipette");
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 0.5, 3);
  w.kv("on", true);
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.begin_object();
  w.kv("nested", -7);
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"pipette\",\"count\":42,\"ratio\":0.500,\"on\":true,"
            "\"list\":[1,2,{\"nested\":-7}]}");
  EXPECT_TRUE(json_valid(w.str()));
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\n\t\x01"),
            "a\\\"b\\\\c\\n\\t\\u0001");
  JsonWriter w;
  w.begin_object();
  w.kv("k\"ey", "va\\lue\n");
  w.end_object();
  EXPECT_TRUE(json_valid(w.str()));
}

TEST(JsonWriter, NonFiniteDoublesRenderAsZero) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""), 3);
  w.value(std::numeric_limits<double>::infinity(), 3);
  w.end_array();
  EXPECT_TRUE(json_valid(w.str()));
  EXPECT_EQ(w.str().find("nan"), std::string::npos);
  EXPECT_EQ(w.str().find("inf"), std::string::npos);
}

TEST(JsonValid, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_TRUE(json_valid("  {\"a\": [1, 2.5, -3e2, true, false, null]} "));
  EXPECT_TRUE(json_valid("\"just a string\""));
  EXPECT_TRUE(json_valid("-0.5"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\":}"));
  EXPECT_FALSE(json_valid("[1,]"));
  EXPECT_FALSE(json_valid("{\"a\":1} trailing"));
  EXPECT_FALSE(json_valid("{'single': 1}"));
  EXPECT_FALSE(json_valid("{\"a\":01}"));
  EXPECT_FALSE(json_valid("\"unterminated"));
  EXPECT_FALSE(json_valid("nul"));
}

// Pages of [p, p + bytes) that are resident right now, per mincore().
std::size_t resident_pages(const void* p, std::size_t bytes) {
  const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t begin =
      reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
  const std::uintptr_t end = reinterpret_cast<std::uintptr_t>(p) + bytes;
  std::vector<unsigned char> vec((end - begin + page - 1) / page);
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()),
            0);
  return static_cast<std::size_t>(
      std::count_if(vec.begin(), vec.end(), [](unsigned char v) {
        return (v & 1) != 0;
      }));
}

TEST(ZeroedArray, FreshArrayIsZeroAndNotResidentAfterLargeFrees) {
  constexpr std::size_t kSize = std::size_t{1} << 20;  // 8 MiB of u64
  // Leave the C allocator holding freed, touched memory of that size: a
  // large free raises glibc's mmap threshold, and the smaller blocks then
  // come from (and go back to) its heap. An array carved out of that heap
  // would be resident before anything is written to it.
  { std::vector<std::uint64_t> big(2 * kSize, 1); }
  {
    std::vector<std::unique_ptr<std::uint64_t[]>> blocks;
    for (int i = 0; i < 12; ++i) {
      blocks.emplace_back(new std::uint64_t[kSize / 8]);
      std::fill_n(blocks.back().get(), kSize / 8, 1);
    }
  }
  ZeroedArray<std::uint64_t> a(kSize);
  ASSERT_EQ(a.size(), kSize);
  EXPECT_EQ(resident_pages(&a[0], kSize * sizeof(std::uint64_t)), 0u);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(a[kSize - 1], 0u);
  a[kSize - 1] = 7;
  ZeroedArray<std::uint64_t> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b[kSize - 1], 7u);
}

}  // namespace
}  // namespace pipette
