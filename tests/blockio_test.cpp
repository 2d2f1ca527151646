// Tests for the generic block layer: request merging and closed-loop
// dispatch to the device.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "blockio/block_layer.h"
#include "common/rng.h"

namespace pipette {
namespace {

TEST(Merge, EmptyAndSingle) {
  EXPECT_TRUE(BlockLayer::merge({}).empty());
  const auto runs = BlockLayer::merge({7});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(Lba{7}, 1u));
}

TEST(Merge, ContiguousRunsCoalesce) {
  const auto runs = BlockLayer::merge({5, 3, 4, 10, 11, 20});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], std::make_pair(Lba{3}, 3u));
  EXPECT_EQ(runs[1], std::make_pair(Lba{10}, 2u));
  EXPECT_EQ(runs[2], std::make_pair(Lba{20}, 1u));
}

TEST(Merge, DuplicatesCollapse) {
  const auto runs = BlockLayer::merge({4, 4, 5, 5, 6});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(Lba{4}, 3u));
}

ControllerConfig small_config() {
  ControllerConfig c;
  c.geometry.channels = 4;
  c.geometry.ways_per_channel = 2;
  c.geometry.planes_per_die = 1;
  c.geometry.blocks_per_plane = 16;
  c.geometry.pages_per_block = 64;
  c.lba_count = 4096;
  return c;
}

struct BlockLayerFixture : ::testing::Test {
  Simulator sim;
  SsdController ctrl{sim, small_config()};
  BlockLayer layer{sim, ctrl, HostTiming{}};
};

TEST_F(BlockLayerFixture, ReadPagesDeliversCorrectBytes) {
  std::map<Lba, std::vector<std::uint8_t>> got;
  layer.read_pages({10, 11, 42}, [&](Lba lba, const std::uint8_t* data) {
    got[lba].assign(data, data + kBlockSize);
  });
  ASSERT_EQ(got.size(), 3u);
  for (const auto& [lba, bytes] : got) {
    for (std::uint32_t i = 0; i < kBlockSize; ++i)
      ASSERT_EQ(bytes[i], ctrl.content().pristine_byte(lba, i)) << lba;
  }
}

TEST_F(BlockLayerFixture, MergingReducesCommandCount) {
  layer.read_pages({1, 2, 3, 4}, [](Lba, const std::uint8_t*) {});
  EXPECT_EQ(layer.stats().page_requests, 4u);
  EXPECT_EQ(layer.stats().merged_requests, 1u);
  EXPECT_EQ(ctrl.stats().commands, 1u);
}

TEST_F(BlockLayerFixture, DiscontiguousPagesIssueSeparateCommands) {
  layer.read_pages({1, 100, 200}, [](Lba, const std::uint8_t*) {});
  EXPECT_EQ(layer.stats().merged_requests, 3u);
  EXPECT_EQ(ctrl.stats().commands, 3u);
}

TEST_F(BlockLayerFixture, ClockAdvancesAcrossRead) {
  const SimTime t0 = sim.now();
  layer.read_pages({5}, [](Lba, const std::uint8_t*) {});
  EXPECT_GT(sim.now(), t0);
}

TEST_F(BlockLayerFixture, ConcurrentRunsOverlapOnDevice) {
  // Two discontiguous single-page runs on different channels should take
  // far less than twice a single run.
  const SimTime t0 = sim.now();
  layer.read_pages({0}, [](Lba, const std::uint8_t*) {});
  const SimDuration one = sim.now() - t0;
  const SimTime t1 = sim.now();
  layer.read_pages({101, 202}, [](Lba, const std::uint8_t*) {});
  const SimDuration two = sim.now() - t1;
  EXPECT_LT(two, one + one / 2);
}

TEST_F(BlockLayerFixture, WritePagePersists) {
  std::vector<std::uint8_t> data(kBlockSize, 0x77);
  layer.write_page(9, data.data());
  std::vector<std::uint8_t> out(16);
  ctrl.content().read(9, 0, {out.data(), out.size()});
  for (auto b : out) EXPECT_EQ(b, 0x77);
}

TEST(MergeProperty, CoversExactlyTheInputSet) {
  // Random LBA multisets: the merged runs must cover exactly the distinct
  // input LBAs, without overlap, in ascending order.
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Lba> lbas;
    const std::size_t n = 1 + rng.next_below(64);
    for (std::size_t i = 0; i < n; ++i) lbas.push_back(rng.next_below(96));
    std::set<Lba> expected(lbas.begin(), lbas.end());

    std::set<Lba> covered;
    Lba prev_end = 0;
    bool first = true;
    for (const auto& [start, count] : BlockLayer::merge(lbas)) {
      ASSERT_GT(count, 0u);
      if (!first) {
        ASSERT_GT(start, prev_end);  // ascending, non-adjacent
      }
      first = false;
      prev_end = start + count - 1;
      for (std::uint32_t i = 0; i < count; ++i) {
        ASSERT_TRUE(covered.insert(start + i).second);
      }
    }
    ASSERT_EQ(covered, expected) << "trial " << trial;
  }
}

TEST_F(BlockLayerFixture, AsyncReadDeliversLater) {
  bool delivered = false;
  layer.read_pages_async({7}, [&](Lba, const std::uint8_t*) {
    delivered = true;
  });
  EXPECT_FALSE(delivered);  // returns before the device completes
  sim.run_all();
  EXPECT_TRUE(delivered);
}

TEST_F(BlockLayerFixture, AsyncReadDataIsCorrect) {
  std::vector<std::uint8_t> got;
  layer.read_pages_async({11}, [&](Lba, const std::uint8_t* data) {
    got.assign(data, data + kBlockSize);
  });
  sim.run_all();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBlockSize));
  for (std::uint32_t i = 0; i < kBlockSize; ++i)
    ASSERT_EQ(got[i], ctrl.content().pristine_byte(11, i));
}

TEST_F(BlockLayerFixture, TrafficCountsWholePages) {
  layer.read_pages({1, 2}, [](Lba, const std::uint8_t*) {});
  EXPECT_EQ(ctrl.stats().bytes_to_host, 2u * kBlockSize);
}

}  // namespace
}  // namespace pipette
