// Property-based tests: randomised operation sequences checked against
// reference models.
//
//  * Consistency fuzz — every path kind serves a random interleaving of
//    reads and writes; every read's bytes are compared against a shadow
//    copy of the file. This exercises page-cache writeback, FGRC write
//    invalidation, TempBuf staging, CMB staging and the block route in
//    arbitrary orders.
//  * Slab-store stress — random allocate/free/evict/touch/migrate
//    sequences under several geometries; checks address disjointness,
//    bookkeeping, data survival across migration, and each class's LRU
//    order against a std::list per class.
//  * Path-equivalence sweep — all five systems return identical bytes for
//    every request size.
//  * Fleet partitioners — hash and range cover every shard, map each key to
//    exactly one shard, and (range) respect key ordering.
//  * Splittable RNG — sub-streams are deterministic and pairwise disjoint
//    over a 10k-draw window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "fleet/partition.h"
#include "sim/machine.h"

namespace pipette {
namespace {

MachineConfig fuzz_machine(PathKind kind) {
  MachineConfig c;
  c.kind = kind;
  c.ssd.geometry.channels = 4;
  c.ssd.geometry.ways_per_channel = 2;
  c.ssd.geometry.planes_per_die = 1;
  c.ssd.geometry.blocks_per_plane = 32;
  c.ssd.geometry.pages_per_block = 64;
  c.ssd.read_buffer_bytes = 1 * kMiB;  // small: heavy replacement
  c.ssd.hmb.info_slots = 128;
  c.ssd.hmb.tempbuf_bytes = 8 * kKiB;
  c.ssd.hmb.data_bytes = 512 * kKiB;   // small FGRC: pressure paths run
  c.page_cache_bytes = 256 * kKiB;     // small page cache: evictions
  c.pipette.fgrc.slab.slab_size = 32 * kKiB;
  c.pipette.fgrc.slab.max_external_bytes = 128 * kKiB;
  c.pipette.fgrc.adaptive.initial_threshold = 1;
  c.pipette.fgrc.adaptive.enabled = true;
  c.pipette.fgrc.adaptive.adjust_period = 256;
  c.pipette.fgrc.reassign.enabled = true;
  c.pipette.fgrc.reassign.epoch_accesses = 512;
  return c;
}

class ConsistencyFuzz : public ::testing::TestWithParam<PathKind> {};

TEST_P(ConsistencyFuzz, RandomReadsAndWritesMatchShadowModel) {
  constexpr std::uint64_t kFileSize = 2 * kMiB;
  Machine m(fuzz_machine(GetParam()), {{{"fuzz.bin", kFileSize}}});
  const int fd = m.vfs().open("fuzz.bin", m.open_flags(true));
  const FileId file = m.vfs().file_of(fd);

  // Shadow model: the file's logical bytes.
  std::vector<std::uint8_t> shadow(kFileSize);
  {
    std::vector<LbaRange> ranges;
    m.fs().extract_lbas(file, 0, kFileSize, ranges);
    std::uint64_t pos = 0;
    for (const LbaRange& r : ranges) {
      m.ssd().content().read(r.lba, r.offset,
                             {shadow.data() + pos, r.len});
      pos += r.len;
    }
  }

  Rng rng(0xF0 + static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint8_t> buf(16 * 1024);
  for (int op = 0; op < 3000; ++op) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        1 + rng.next_below(op % 7 == 0 ? 12288 : 512));
    const std::uint64_t offset = rng.next_below(kFileSize - len + 1);
    if (rng.next_bool(0.25)) {
      // Write a recognisable pattern derived from (op, offset).
      for (std::uint32_t i = 0; i < len; ++i)
        buf[i] = static_cast<std::uint8_t>(mix64(
            (static_cast<std::uint64_t>(op) << 32) ^ (offset + i)));
      m.vfs().pwrite(fd, offset, {buf.data(), len});
      std::memcpy(shadow.data() + offset, buf.data(), len);
    } else {
      m.vfs().pread(fd, offset, {buf.data(), len});
      for (std::uint32_t i = 0; i < len; ++i)
        ASSERT_EQ(buf[i], shadow[offset + i])
            << to_string(GetParam()) << " op=" << op << " offset=" << offset
            << "+" << i << " len=" << len;
    }
  }
}

// The same fuzz with the fine-grained write extension enabled: exercises
// device-side RMW, in-place FGRC updates, clean-page invalidation and the
// dirty-page fallback interleaved with every read route.
TEST(ConsistencyFuzzFineWrites, RandomOpsMatchShadowModel) {
  constexpr std::uint64_t kFileSize = 2 * kMiB;
  MachineConfig config = fuzz_machine(PathKind::kPipette);
  config.pipette.fine_writes = true;
  Machine m(config, {{{"fuzz.bin", kFileSize}}});
  const int fd = m.vfs().open("fuzz.bin", m.open_flags(true));
  const FileId file = m.vfs().file_of(fd);

  std::vector<std::uint8_t> shadow(kFileSize);
  {
    std::vector<LbaRange> ranges;
    m.fs().extract_lbas(file, 0, kFileSize, ranges);
    std::uint64_t pos = 0;
    for (const LbaRange& r : ranges) {
      m.ssd().content().read(r.lba, r.offset, {shadow.data() + pos, r.len});
      pos += r.len;
    }
  }

  Rng rng(0xBEEF);
  std::vector<std::uint8_t> buf(16 * 1024);
  for (int op = 0; op < 4000; ++op) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        1 + rng.next_below(op % 9 == 0 ? 8192 : 400));
    const std::uint64_t offset = rng.next_below(kFileSize - len + 1);
    if (rng.next_bool(0.4)) {
      for (std::uint32_t i = 0; i < len; ++i)
        buf[i] = static_cast<std::uint8_t>(mix64(
            (static_cast<std::uint64_t>(op) << 32) ^ (offset + i)));
      m.vfs().pwrite(fd, offset, {buf.data(), len});
      std::memcpy(shadow.data() + offset, buf.data(), len);
    } else {
      m.vfs().pread(fd, offset, {buf.data(), len});
      for (std::uint32_t i = 0; i < len; ++i)
        ASSERT_EQ(buf[i], shadow[offset + i])
            << "op=" << op << " offset=" << offset << "+" << i;
    }
  }
  // Both write routes must actually have been exercised.
  EXPECT_GT(m.pipette_path()->pipette_stats().fine_writes, 100u);
  EXPECT_GT(m.pipette_path()->pipette_stats().block_writes, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ConsistencyFuzz,
    ::testing::Values(PathKind::kBlockIo, PathKind::kTwoBMmio,
                      PathKind::kTwoBDma, PathKind::kPipetteNoCache,
                      PathKind::kPipette),
    [](const ::testing::TestParamInfo<PathKind>& info) {
      switch (info.param) {
        case PathKind::kBlockIo:
          return "BlockIo";
        case PathKind::kTwoBMmio:
          return "TwoBMmio";
        case PathKind::kTwoBDma:
          return "TwoBDma";
        case PathKind::kPipetteNoCache:
          return "PipetteNoCache";
        case PathKind::kPipette:
          return "Pipette";
      }
      return "Unknown";
    });

// --- Slab-store stress ---

struct SlabGeometry {
  std::uint64_t slab_size;
  std::vector<std::uint32_t> class_sizes;
};

// Without this gtest prints the raw bytes of the struct, heap pointer
// included, and ctest's discovered case names change from build to build.
void PrintTo(const SlabGeometry& g, std::ostream* os) {
  *os << "slab=" << g.slab_size << " classes=";
  for (std::size_t i = 0; i < g.class_sizes.size(); ++i) {
    *os << (i == 0 ? "" : ",") << g.class_sizes[i];
  }
}

class SlabStress : public ::testing::TestWithParam<SlabGeometry> {};

TEST_P(SlabStress, RandomOpsPreserveInvariants) {
  Hmb hmb({64, 4096, 256 * 1024});
  SlabConfig cfg;
  cfg.slab_size = GetParam().slab_size;
  cfg.class_sizes = GetParam().class_sizes;
  cfg.max_external_bytes = 128 * 1024;
  SlabStore store(hmb, cfg);

  Rng rng(77);
  std::map<std::uint64_t, ItemLoc> live;  // key.offset -> loc
  std::uint64_t next_offset = 0;
  std::uint64_t expected_live = 0;
  // Reference recency per class: front = MRU, back = the next victim.
  std::vector<std::list<ItemLoc>> lru(store.classes());
  auto lru_of = [&](ItemLoc loc) -> std::list<ItemLoc>& {
    return lru[store.class_for(store.key(loc).len)];
  };
  auto drop = [&](std::list<ItemLoc>& order, ItemLoc loc) {
    auto it = std::find(order.begin(), order.end(), loc);
    ASSERT_NE(it, order.end());
    order.erase(it);
  };
  std::uint64_t evictions = 0;

  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.5) {
      // Allocate a random size.
      const std::uint32_t len = static_cast<std::uint32_t>(
          1 + rng.next_below(cfg.class_sizes.back()));
      const FgKey key{1, next_offset, len};
      next_offset += cfg.class_sizes.back();
      if (auto loc = store.allocate(key)) {
        live.emplace(key.offset, *loc);
        ++expected_live;
        lru_of(*loc).push_front(*loc);
        // Address sanity: resident items land inside the Data Area, on an
        // item-size boundary.
        const HmbAddr addr = store.hmb_addr(*loc);
        ASSERT_GE(addr, hmb.data_offset());
        ASSERT_LE(addr + len, hmb.data_offset() + hmb.data_area().size());
      }
    } else if (dice < 0.75 && !live.empty()) {
      // Free a pseudo-random live item.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      drop(lru_of(it->second), it->second);
      store.free_item(it->second);
      live.erase(it);
      --expected_live;
    } else if (dice < 0.9 && !live.empty()) {
      // Touch one.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      store.touch(it->second);
      ASSERT_EQ(store.key(it->second).offset, it->first);
      std::list<ItemLoc>& order = lru_of(it->second);
      drop(order, it->second);
      order.push_front(it->second);
    } else if (dice < 0.97) {
      // Evict from a random class; drop it from our model if it evicted.
      const std::uint32_t cls = static_cast<std::uint32_t>(
          rng.next_below(store.classes()));
      if (auto evicted = store.evict_lru(cls)) {
        ASSERT_FALSE(lru[cls].empty());
        ASSERT_EQ(evicted->second, lru[cls].back()) << "op " << op;
        lru[cls].pop_back();
        ASSERT_EQ(live.erase(evicted->first.offset), 1u);
        --expected_live;
        ++evictions;
      } else {
        ASSERT_TRUE(lru[cls].empty());
      }
    } else {
      // Migrate a slab out.
      store.externalize_slab(static_cast<std::uint32_t>(
                                 rng.next_below(store.classes())),
                             rng);
    }
    ASSERT_EQ(store.stats().live_items, expected_live);
    for (std::uint32_t c = 0; c < store.classes(); ++c) {
      ASSERT_EQ(store.class_stats(c).live_items, lru[c].size())
          << "class " << c << " op " << op;
    }
  }
  EXPECT_GT(evictions, 100u);

  // Every tracked item is still addressable and carries its key.
  for (const auto& [offset, loc] : live) {
    ASSERT_EQ(store.key(loc).offset, offset);
    ASSERT_EQ(store.data(loc).size(), store.key(loc).len);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SlabStress,
    ::testing::Values(SlabGeometry{8 * 1024, {64, 128, 256, 512}},
                      SlabGeometry{16 * 1024, {64, 96, 144, 216, 328, 496}},
                      SlabGeometry{32 * 1024, {128, 1024, 4096}},
                      SlabGeometry{4 * 1024, {64}}));

// --- Path-equivalence sweep over request sizes ---

class SizeEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SizeEquivalence, AllPathsAgreeAtThisSize) {
  const std::uint32_t size = GetParam();
  constexpr std::uint64_t kFileSize = 2 * kMiB;

  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<int> fds;
  for (PathKind kind : kAllPaths) {
    machines.push_back(std::make_unique<Machine>(
        fuzz_machine(kind),
        std::vector<FileSpec>{{"eq.bin", kFileSize}}));
    fds.push_back(machines.back()->vfs().open(
        "eq.bin", machines.back()->open_flags(false)));
  }
  Rng rng(size);
  std::vector<std::uint8_t> ref(size), got(size);
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t offset = rng.next_below(kFileSize - size + 1);
    machines[0]->vfs().pread(fds[0], offset, {ref.data(), size});
    for (std::size_t mi = 1; mi < machines.size(); ++mi) {
      machines[mi]->vfs().pread(fds[mi], offset, {got.data(), size});
      ASSERT_EQ(std::memcmp(ref.data(), got.data(), size), 0)
          << "size=" << size << " machine=" << mi << " offset=" << offset;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeEquivalence,
                         ::testing::Values(1u, 8u, 100u, 128u, 1000u, 4096u,
                                           5000u, 16384u));

// --- Fleet partitioner properties ---

class PartitionProperty : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(PartitionProperty, CoversAllShardsAndMapsEachKeyToExactlyOne) {
  constexpr std::uint64_t kKeyspace = 1ull << 30;
  const std::vector<FileSpec> files{{"k.bin", kKeyspace}};
  Rng rng(0xA11 + static_cast<std::uint64_t>(GetParam()));
  for (std::size_t shards = 1; shards <= 64; ++shards) {
    const Partitioner part(GetParam(), shards, files);
    // Two independently constructed partitioners must agree on every key:
    // a key belongs to exactly one shard, as a pure function of the scheme.
    const Partitioner twin(GetParam(), shards, files);
    std::vector<bool> hit(shards, false);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng.next_below(kKeyspace);
      const std::size_t s = part.shard_of_key(key);
      ASSERT_LT(s, shards);
      ASSERT_EQ(s, twin.shard_of_key(key));
      ASSERT_EQ(s, part.shard_of_key(key));  // stable across calls
      hit[s] = true;
    }
    for (std::size_t s = 0; s < shards; ++s)
      ASSERT_TRUE(hit[s]) << to_string(GetParam()) << " shards=" << shards
                          << " never routed a key to shard " << s;
  }
}

TEST_P(PartitionProperty, MultiFileKeysAreFileBasePlusOffset) {
  const std::vector<FileSpec> files{{"a", 1000}, {"b", 2000}, {"c", 500}};
  const Partitioner part(GetParam(), 4, files);
  EXPECT_EQ(part.keyspace(), 3500u);
  EXPECT_EQ(part.key_of({0, 999, 1, false}), 999u);
  EXPECT_EQ(part.key_of({1, 5, 1, false}), 1005u);
  EXPECT_EQ(part.key_of({2, 0, 1, false}), 3000u);
}

TEST(PartitionPropertyRange, ShardIsMonotoneInKey) {
  constexpr std::uint64_t kKeyspace = 1ull << 40;  // exercises 128-bit math
  const std::vector<FileSpec> files{{"k.bin", kKeyspace}};
  const Partitioner part(PartitionScheme::kRange, 7, files);
  Rng rng(99);
  std::uint64_t prev_key = 0;
  std::size_t prev_shard = part.shard_of_key(0);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = prev_key + 1 + rng.next_below(kKeyspace / 5001);
    if (key >= kKeyspace) break;
    const std::size_t s = part.shard_of_key(key);
    ASSERT_GE(s, prev_shard) << "range shards must follow key order";
    prev_key = key;
    prev_shard = s;
  }
  EXPECT_EQ(part.shard_of_key(kKeyspace - 1), 6u);
}

// --- Splittable RNG sub-streams ---

TEST(SplitRngProperty, SubStreamsAreDeterministicAndPairwiseDisjoint) {
  constexpr int kStreams = 8;
  constexpr int kWindow = 10'000;
  for (std::uint64_t parent_seed : {1ull, 42ull, 0xDEADBEEFull}) {
    Rng parent(parent_seed);
    // All draws across the parent and every sub-stream's 10k-draw window
    // must be distinct: overlapping prefixes would mean two shards replay
    // correlated workloads.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve((kStreams + 1) * kWindow);
    for (int i = 0; i < kWindow; ++i)
      ASSERT_TRUE(seen.insert(parent.next()).second);
    for (int s = 0; s < kStreams; ++s) {
      Rng child = parent.split(static_cast<std::uint64_t>(s));
      Rng replay = parent.split(static_cast<std::uint64_t>(s));
      for (int i = 0; i < kWindow; ++i) {
        const std::uint64_t draw = child.next();
        ASSERT_EQ(draw, replay.next()) << "split is not deterministic";
        ASSERT_TRUE(seen.insert(draw).second)
            << "seed " << parent_seed << " stream " << s << " draw " << i
            << " overlaps another sub-stream";
      }
    }
  }
  // split() derives children from the seed, not the draw position: a parent
  // that has already drawn yields the same children as a fresh one.
  Rng drained(42);
  for (int i = 0; i < 1000; ++i) drained.next();
  EXPECT_EQ(Rng(42).split(3).next(), drained.split(3).next());
}

INSTANTIATE_TEST_SUITE_P(Schemes, PartitionProperty,
                         ::testing::Values(PartitionScheme::kHash,
                                           PartitionScheme::kRange),
                         [](const ::testing::TestParamInfo<PartitionScheme>&
                                info) {
                           return info.param == PartitionScheme::kHash
                                      ? "Hash"
                                      : "Range";
                         });

// --- Info Area stress ---

TEST(InfoAreaProperty, RandomPushConsumeNeverLosesRecords) {
  InfoArea ring(16);
  Rng rng(5);
  std::uint64_t pushed = 0, consumed = 0;
  for (int i = 0; i < 100000; ++i) {
    if (!ring.full() && (ring.empty() || rng.next_bool(0.5))) {
      const auto idx =
          ring.push({pushed, pushed, 1, 1}, static_cast<SimTime>(i));
      ASSERT_EQ(idx, pushed);
      ++pushed;
    } else {
      ASSERT_EQ(ring.at(consumed).dest, consumed);
      ring.release(consumed, static_cast<SimTime>(i));
      ++consumed;
    }
    ASSERT_EQ(ring.in_flight(), pushed - consumed);
  }
}

}  // namespace
}  // namespace pipette
