// Model-checking tests: core data structures driven with random operation
// sequences against simple, obviously-correct reference models.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/lru.h"
#include "common/rng.h"
#include "hostmem/page_cache.h"
#include "ssd/ftl.h"

namespace pipette {
namespace {

// --- LruMap vs a reference made of std::list + std::map ---

class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  int* find(int key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.splice(order_.begin(), order_, it);
        return &order_.front().second;
      }
    }
    return nullptr;
  }

  std::optional<std::pair<int, int>> insert(int key, int value) {
    if (int* v = find(key)) {
      *v = value;
      return std::nullopt;
    }
    order_.emplace_front(key, value);
    if (order_.size() <= capacity_) return std::nullopt;
    auto victim = order_.back();
    order_.pop_back();
    return victim;
  }

  bool erase(int key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::size_t size() const { return order_.size(); }
  std::optional<std::pair<int, int>> lru() const {
    if (order_.empty()) return std::nullopt;
    return order_.back();
  }

  /// MRU-to-LRU contents.
  std::vector<std::pair<int, int>> entries() const {
    return {order_.begin(), order_.end()};
  }

  /// Entries a shrink evicts, in eviction order.
  std::vector<std::pair<int, int>> set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    std::vector<std::pair<int, int>> evicted;
    while (order_.size() > capacity_) {
      evicted.push_back(order_.back());
      order_.pop_back();
    }
    return evicted;
  }

  void clear() { order_.clear(); }

 private:
  std::size_t capacity_;
  std::list<std::pair<int, int>> order_;
};

class LruModelCheck : public ::testing::TestWithParam<std::size_t> {};

std::vector<std::pair<int, int>> dut_entries(LruMap<int, int>& dut) {
  std::vector<std::pair<int, int>> out;
  dut.for_each([&out](int key, int value) { out.emplace_back(key, value); });
  return out;
}

TEST_P(LruModelCheck, RandomOpsMatchReference) {
  const std::size_t capacity = GetParam();
  LruMap<int, int> dut(capacity);
  ReferenceLru ref(capacity);
  Rng rng(capacity * 7919 + 3);
  int resizes = 0, clears = 0;

  for (int op = 0; op < 30000; ++op) {
    const int key = static_cast<int>(rng.next_below(capacity * 3 + 5));
    const double dice = rng.next_double();
    if (op % 1000 == 999) {  // periodic full-order check, MRU to LRU
      ASSERT_EQ(dut_entries(dut), ref.entries()) << "op " << op;
    }
    if (dice >= 0.97) {  // rare whole-map ops, then a full-order check
      if (dice < 0.99) {  // resize; a shrink evicts LRU-first
        const std::size_t cap = 1 + rng.next_below(2 * capacity);
        std::vector<std::pair<int, int>> evicted;
        dut.set_capacity(cap, [&evicted](int k, int v) {
          evicted.emplace_back(k, v);
        });
        ASSERT_EQ(evicted, ref.set_capacity(cap)) << "op " << op;
        ASSERT_EQ(dut.capacity(), cap);
        ++resizes;
      } else if (dice < 0.9905) {  // drop everything, keep going
        dut.clear();
        ref.clear();
        ASSERT_TRUE(dut.empty());
        ASSERT_EQ(dut.lru(), nullptr);
        ++clears;
      }
      ASSERT_EQ(dut_entries(dut), ref.entries()) << "op " << op;
    } else if (dice < 0.45) {
      const int value = op;
      const auto ev_dut = dut.insert(key, value);
      const auto ev_ref = ref.insert(key, value);
      ASSERT_EQ(ev_dut.has_value(), ev_ref.has_value());
      if (ev_dut) {
        ASSERT_EQ(ev_dut->first, ev_ref->first);
        ASSERT_EQ(ev_dut->second, ev_ref->second);
      }
    } else if (dice < 0.8) {
      int* d = dut.find(key);
      int* r = ref.find(key);
      ASSERT_EQ(d != nullptr, r != nullptr);
      if (d) {
        ASSERT_EQ(*d, *r);
      }
    } else if (dice < 0.95) {
      ASSERT_EQ(dut.erase(key), ref.erase(key));
    } else {
      const auto* d = dut.lru();
      const auto r = ref.lru();
      ASSERT_EQ(d != nullptr, r.has_value());
      if (d) {
        ASSERT_EQ(d->first, r->first);
        ASSERT_EQ(d->second, r->second);
      }
    }
    ASSERT_EQ(dut.size(), ref.size());
  }
  EXPECT_GT(resizes, 0);
  EXPECT_GT(clears, 0);
}

// A V* must survive the node pool and the index growing underneath it.
TEST(LruMapPool, ValuePointerStableAcrossOtherInserts) {
  LruMap<int, std::uint64_t> map(4096);
  map.insert(-1, 0xfeed);
  std::uint64_t* value = map.find(-1);
  ASSERT_NE(value, nullptr);
  for (int k = 0; k < 1000; ++k) {
    map.insert(k, static_cast<std::uint64_t>(k));
    ASSERT_EQ(map.peek(-1), value) << "after " << k + 1 << " inserts";
  }
  EXPECT_EQ(*value, 0xfeedu);
  *value = 7;
  EXPECT_EQ(*map.find(-1), 7u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruModelCheck,
                         ::testing::Values(1, 2, 7, 64));

// --- PageCache content model ---

TEST(PageCacheModelCheck, ResidentPagesAlwaysHoldLatestBytes) {
  PageCache cache(8 * kBlockSize);
  std::map<std::uint64_t, std::uint8_t> model;  // page -> expected marker
  std::vector<std::uint8_t> page(kBlockSize);
  Rng rng(11);

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t p = rng.next_below(32);
    const PageKey key{1, p};
    const double dice = rng.next_double();
    if (dice < 0.5) {
      const auto marker = static_cast<std::uint8_t>(op & 0xff);
      std::fill(page.begin(), page.end(), marker);
      std::uint8_t* frame = cache.frames().take();
      std::copy(page.begin(), page.end(), frame);
      cache.insert(key, frame, rng.next_bool(0.5));
      model[p] = marker;
    } else if (dice < 0.9) {
      if (const CachedPage* cp = cache.lookup(key)) {
        ASSERT_TRUE(model.count(p));
        ASSERT_EQ(cp->data[0], model[p]) << "page " << p;
        ASSERT_EQ(cp->data[kBlockSize - 1], model[p]);
      }
    } else {
      cache.invalidate(key);
      // The model keeps the marker: a re-inserted page must match the
      // *latest* insert, which invalidate does not change.
    }
    ASSERT_LE(cache.resident_pages(), 8u);
  }
}

// --- FTL conservation invariants under GC ---

TEST(FtlModelCheck, ValidPageCountEqualsLbaCountAlways) {
  NandGeometry g;
  g.channels = 2;
  g.ways_per_channel = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;  // 512 pages
  const std::uint64_t lbas = 256;
  Ftl ftl(g, lbas);
  Rng rng(5);

  auto check_bijection = [&]() {
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> seen;
    for (Lba lba = 0; lba < lbas; ++lba) {
      const PhysPageAddr a = ftl.lookup(lba);
      ASSERT_TRUE(seen.insert({a.channel, a.way, a.page}).second)
          << "two LBAs share a physical page";
    }
  };

  for (int burst = 0; burst < 60; ++burst) {
    for (int i = 0; i < 300; ++i) ftl.update(rng.next_below(lbas));
    ftl.take_gc_moves();
    check_bijection();
  }
  EXPECT_GT(ftl.stats().gc_collections, 0u);
  EXPECT_GE(ftl.stats().write_amplification(), 1.0);
}

TEST(FtlModelCheck, GcMovesReferenceLivePagesOnly) {
  NandGeometry g;
  g.channels = 2;
  g.ways_per_channel = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;
  Ftl ftl(g, 256);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    ftl.update(rng.next_below(256));
    for (const GcMove& mv : ftl.take_gc_moves()) {
      // Every destination must now be the mapping of some LBA.
      bool found = false;
      for (Lba lba = 0; lba < 256 && !found; ++lba)
        found = ftl.lookup(lba) == mv.to;
      ASSERT_TRUE(found) << "GC moved a page nobody maps";
    }
  }
}

}  // namespace
}  // namespace pipette
