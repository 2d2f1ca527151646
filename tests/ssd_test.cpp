// Tests for the SSD substrate: disk content overlay, FTL mapping, PCIe cost
// model, HMB/Info Area ring, CMB, and the controller's four command flows
// including the device-side Fine-Grained Read Engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/bytes.h"
#include "common/inline_function.h"
#include "common/rng.h"
#include "counting_new.h"
#include "des/simulator.h"
#include "ssd/controller.h"

namespace pipette {
namespace {

// --- DiskContent ---

TEST(DiskContent, PristineReadsMatchPattern) {
  DiskContent d(7);
  std::vector<std::uint8_t> buf(64);
  d.read(5, 100, {buf.data(), buf.size()});
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_EQ(buf[i], d.pristine_byte(5, 100 + static_cast<std::uint32_t>(i)));
}

TEST(DiskContent, DifferentLbasDiffer) {
  DiskContent d;
  std::vector<std::uint8_t> a(32), b(32);
  d.read(1, 0, {a.data(), a.size()});
  d.read(2, 0, {b.data(), b.size()});
  EXPECT_NE(a, b);
}

TEST(DiskContent, WriteOverlayAndReadBack) {
  DiskContent d;
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  d.write(9, 1000, {data.data(), data.size()});
  std::vector<std::uint8_t> out(7);
  d.read(9, 999, {out.data(), out.size()});
  EXPECT_EQ(out[0], d.pristine_byte(9, 999));  // before the write: pristine
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<size_t>(i) + 1], data[static_cast<size_t>(i)]);
  EXPECT_EQ(out[6], d.pristine_byte(9, 1005));  // after the write: pristine
  EXPECT_EQ(d.dirty_blocks(), 1u);
}

TEST(DiskContent, PartialWritePreservesRestOfBlock) {
  DiskContent d;
  std::vector<std::uint8_t> data(16, 0xAB);
  d.write(3, 0, {data.data(), data.size()});
  std::vector<std::uint8_t> out(32);
  d.read(3, 0, {out.data(), out.size()});
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], 0xAB);
  for (int i = 16; i < 32; ++i)
    EXPECT_EQ(out[static_cast<size_t>(i)],
              d.pristine_byte(3, static_cast<std::uint32_t>(i)));
}

// --- FTL ---

NandGeometry ftl_geometry() {
  NandGeometry g;
  g.channels = 4;
  g.ways_per_channel = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;
  return g;  // 1024 pages
}

TEST(Ftl, InitialMappingStripesAcrossChannels) {
  Ftl ftl(ftl_geometry(), 256);
  for (Lba lba = 0; lba < 8; ++lba) {
    const PhysPageAddr a = ftl.lookup(lba);
    EXPECT_EQ(a.channel, lba % 4);
    EXPECT_EQ(a.way, (lba / 4) % 2);
    EXPECT_EQ(a.page, lba / 8);
  }
}

TEST(Ftl, MappingIsInjective) {
  Ftl ftl(ftl_geometry(), 512);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> seen;
  for (Lba lba = 0; lba < 512; ++lba) {
    const PhysPageAddr a = ftl.lookup(lba);
    EXPECT_TRUE(seen.insert({a.channel, a.way, a.page}).second) << lba;
  }
}

TEST(Ftl, UpdateRemapsAndInvalidates) {
  Ftl ftl(ftl_geometry(), 256);
  const PhysPageAddr before = ftl.lookup(10);
  const PhysPageAddr after = ftl.update(10);
  EXPECT_FALSE(before == after);
  EXPECT_TRUE(ftl.lookup(10) == after);
  EXPECT_EQ(ftl.stats().invalidated_pages, 1u);
}

TEST(Ftl, UpdatesSpreadAcrossDies) {
  Ftl ftl(ftl_geometry(), 256);
  std::set<std::pair<std::uint32_t, std::uint32_t>> dies;
  for (int i = 0; i < 8; ++i) {
    const PhysPageAddr a = ftl.update(static_cast<Lba>(i));
    dies.insert({a.channel, a.way});
  }
  EXPECT_EQ(dies.size(), 8u);  // 8 writes -> all 8 dies
}

TEST(Ftl, UpdatedPagesStayInjective) {
  Ftl ftl(ftl_geometry(), 256);
  for (int round = 0; round < 3; ++round)
    for (Lba lba = 0; lba < 16; ++lba) ftl.update(lba);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> seen;
  for (Lba lba = 0; lba < 256; ++lba) {
    const PhysPageAddr a = ftl.lookup(lba);
    EXPECT_TRUE(seen.insert({a.channel, a.way, a.page}).second) << lba;
  }
}

TEST(Ftl, GcReclaimsInvalidatedBlocks) {
  Ftl ftl(ftl_geometry(), 256);
  // Hammer a small set of LBAs until GC must run.
  for (int round = 0; round < 200 && ftl.stats().gc_collections == 0;
       ++round) {
    for (Lba lba = 0; lba < 32; ++lba) ftl.update(lba);
  }
  EXPECT_GT(ftl.stats().gc_collections, 0u);
  EXPECT_GT(ftl.stats().blocks_erased, 0u);
  // No die ever runs dry.
  const auto dies = ftl_geometry().dies();
  for (std::uint32_t d = 0; d < dies; ++d)
    EXPECT_GE(ftl.free_blocks(d) + 1, 1u);
  // The mapping survives GC: still injective, lookups still resolve.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> seen;
  for (Lba lba = 0; lba < 256; ++lba) {
    const PhysPageAddr a = ftl.lookup(lba);
    EXPECT_TRUE(seen.insert({a.channel, a.way, a.page}).second) << lba;
  }
}

TEST(Ftl, GcMovesAreReportedOnce) {
  Ftl ftl(ftl_geometry(), 256);
  std::uint64_t total_moves = 0;
  for (int round = 0; round < 400; ++round) {
    for (Lba lba = 0; lba < 16; ++lba) ftl.update(lba);
    total_moves += ftl.take_gc_moves().size();
    EXPECT_TRUE(ftl.take_gc_moves().empty());  // drained
  }
  EXPECT_EQ(total_moves, ftl.stats().gc_relocated_pages);
}

TEST(Ftl, WriteAmplificationAtLeastOne) {
  Ftl ftl(ftl_geometry(), 256);
  EXPECT_DOUBLE_EQ(ftl.stats().write_amplification(), 1.0);
  for (int round = 0; round < 400; ++round)
    for (Lba lba = 0; lba < 16; ++lba) ftl.update(lba);
  EXPECT_GE(ftl.stats().write_amplification(), 1.0);
  // Overwriting a tiny working set leaves mostly-invalid victims, so GC
  // should stay cheap: amplification well under 2.
  EXPECT_LT(ftl.stats().write_amplification(), 2.0);
}

TEST(Ftl, SustainedRandomWritesSurvive) {
  Ftl ftl(ftl_geometry(), 256);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) ftl.update(rng.next_below(256));
  // Content correctness proxy: every lookup decodes to a valid address.
  for (Lba lba = 0; lba < 256; ++lba) {
    const PhysPageAddr a = ftl.lookup(lba);
    EXPECT_LT(a.channel, ftl_geometry().channels);
    EXPECT_LT(a.way, ftl_geometry().ways_per_channel);
    EXPECT_LT(a.page, ftl_geometry().pages_per_die());
  }
  EXPECT_GT(ftl.stats().gc_collections, 0u);
}

// --- PCIe ---

TEST(Pcie, MmioCostLinearInTransactions) {
  Simulator sim;
  PcieTiming t;
  PcieLink link(sim, t);
  EXPECT_EQ(link.mmio_read_cost(8), t.mmio_read_per_tx);
  EXPECT_EQ(link.mmio_read_cost(1), t.mmio_read_per_tx);
  EXPECT_EQ(link.mmio_read_cost(16), 2 * t.mmio_read_per_tx);
  EXPECT_EQ(link.mmio_read_cost(4096), 512 * t.mmio_read_per_tx);
}

TEST(Pcie, DmaCostHasOverheadPlusBytes) {
  Simulator sim;
  PcieTiming t;
  PcieLink link(sim, t);
  EXPECT_EQ(link.dma_cost(0), t.dma_overhead);
  EXPECT_GT(link.dma_cost(4096), link.dma_cost(128));
}

TEST(Pcie, DmaTransfersSerialiseOnLink) {
  Simulator sim;
  PcieTiming t;
  PcieLink link(sim, t);
  std::vector<SimTime> done(2);
  link.dma(4096, [&] { done[0] = sim.now(); });
  link.dma(4096, [&] { done[1] = sim.now(); });
  sim.run_all();
  EXPECT_EQ(done[0], link.dma_cost(4096));
  EXPECT_EQ(done[1], 2 * link.dma_cost(4096));
  EXPECT_EQ(link.dma_bytes(), 8192u);
}

// --- InfoArea / Hmb ---

TEST(InfoArea, PushConsumeRoundTrip) {
  InfoArea ring(4);
  EXPECT_TRUE(ring.empty());
  const auto idx = ring.push({100, 5, 64, 128}, 0);
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(ring.in_flight(), 1u);
  const InfoRecord& rec = ring.at(idx);
  EXPECT_EQ(rec.dest, 100u);
  EXPECT_EQ(rec.lba, 5u);
  ring.release(ring.head(), 10);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.occupancy().integral_ns(), 10u);
}

TEST(InfoArea, WrapsAroundCapacity) {
  InfoArea ring(2);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto idx = ring.push({i, i, 1, 1}, i);
    EXPECT_EQ(ring.at(idx).dest, i);
    ring.release(ring.head(), i);
  }
  EXPECT_EQ(ring.head(), 10u);
  EXPECT_EQ(ring.tail(), 10u);
  EXPECT_EQ(ring.peak_in_flight(), 1u);
}

TEST(InfoArea, FullDetection) {
  InfoArea ring(2);
  ring.push({}, 0);
  EXPECT_FALSE(ring.full());
  ring.push({}, 0);
  EXPECT_TRUE(ring.full());
  ring.release(ring.head(), 0);
  EXPECT_FALSE(ring.full());
  EXPECT_EQ(ring.peak_in_flight(), 2u);
}

TEST(InfoAreaDeathTest, OverflowAsserts) {
  InfoArea ring(1);
  ring.push({}, 0);
  EXPECT_DEATH(ring.push({}, 0), "overflow");
}

TEST(Hmb, LayoutPartitionsDoNotOverlap) {
  Hmb::Layout layout;
  layout.info_slots = 8;
  layout.tempbuf_bytes = 1024;
  layout.data_bytes = 4096;
  Hmb hmb(layout);
  EXPECT_EQ(hmb.tempbuf_offset(), 8 * sizeof(InfoRecord));
  EXPECT_EQ(hmb.data_offset(), hmb.tempbuf_offset() + 1024);
  EXPECT_EQ(hmb.size(), hmb.data_offset() + 4096);
  EXPECT_EQ(hmb.tempbuf().size(), 1024u);
  EXPECT_EQ(hmb.data_area().size(), 4096u);
}

TEST(Hmb, DmaWriteThenRead) {
  Hmb hmb({8, 256, 1024});
  std::vector<std::uint8_t> in{9, 8, 7};
  std::ranges::copy(in, hmb.dma_window(hmb.data_offset() + 10, 3).begin());
  std::vector<std::uint8_t> out(3);
  hmb.read(hmb.data_offset() + 10, {out.data(), out.size()});
  EXPECT_EQ(in, out);
}

// --- Cmb ---

TEST(Cmb, SlotsRecycleRoundRobin) {
  Cmb cmb(3);
  EXPECT_EQ(cmb.claim_slot(), 0u);
  EXPECT_EQ(cmb.claim_slot(), 1u);
  EXPECT_EQ(cmb.claim_slot(), 2u);
  EXPECT_EQ(cmb.claim_slot(), 0u);
}

TEST(Cmb, FillAndReadBack) {
  Cmb cmb(2);
  std::ranges::fill(cmb.slot(1), 0x5A);
  auto view = cmb.slot(1);
  EXPECT_EQ(view[0], 0x5A);
  EXPECT_EQ(view[kBlockSize - 1], 0x5A);
}

// --- Controller ---

ControllerConfig test_config() {
  ControllerConfig c;
  c.geometry.channels = 4;
  c.geometry.ways_per_channel = 2;
  c.geometry.planes_per_die = 1;
  c.geometry.blocks_per_plane = 16;
  c.geometry.pages_per_block = 64;  // 8192 pages = 32 MiB
  c.lba_count = 4096;
  c.read_buffer_bytes = 64 * kBlockSize;
  c.block_reads_use_buffer = true;  // exercise the buffer from block reads
  c.hmb.info_slots = 64;
  c.hmb.tempbuf_bytes = 8192;
  c.hmb.data_bytes = 1 * kMiB;
  return c;
}

struct ControllerFixture : ::testing::Test {
  Simulator sim;
  ControllerConfig config = test_config();
  SsdController ctrl{sim, config};

  CommandResult run(Command cmd) {
    CommandResult result;
    bool done = false;
    ctrl.submit(std::move(cmd), [&](const CommandResult& r) {
      result = r;
      done = true;
    });
    EXPECT_TRUE(sim.run_until_condition([&] { return done; }));
    return result;
  }
};

// The per-block destinations (PRP list) of a contiguous buffer; it must
// outlive the command.
std::vector<std::uint8_t*> pages_of(std::vector<std::uint8_t>& buf) {
  std::vector<std::uint8_t*> pages;
  for (std::size_t off = 0; off < buf.size(); off += kBlockSize)
    pages.push_back(buf.data() + off);
  return pages;
}

TEST_F(ControllerFixture, BlockReadReturnsCorrectBytes) {
  std::vector<std::uint8_t> buf(2 * kBlockSize);
  Command cmd;
  cmd.op = Opcode::kRead;
  cmd.lba = 10;
  cmd.nlb = 2;
  const std::vector<std::uint8_t*> cmd_pages = pages_of(buf);
  cmd.host_pages = cmd_pages;
  const CommandResult r = run(std::move(cmd));
  EXPECT_GT(r.completed_at, 0u);
  for (std::uint32_t i = 0; i < 2 * kBlockSize; ++i) {
    const Lba lba = 10 + i / kBlockSize;
    ASSERT_EQ(buf[i], ctrl.content().pristine_byte(lba, i % kBlockSize));
  }
  EXPECT_EQ(ctrl.stats().bytes_to_host, 2u * kBlockSize);
}

TEST_F(ControllerFixture, BlockReadScattersBlocksOverThePrpList) {
  // Four blocks land in every other slot of an 8-slot buffer, in reverse
  // address order: block i goes to slot 6 - 2i. Each block must land in
  // its own destination and the slots between them stay untouched.
  constexpr std::uint8_t kUntouched = 0x3C;
  std::vector<std::uint8_t> buf(8 * kBlockSize, kUntouched);
  std::vector<std::uint8_t*> dests;
  for (std::size_t i = 0; i < 4; ++i)
    dests.push_back(buf.data() + (6 - 2 * i) * kBlockSize);
  Command cmd;
  cmd.op = Opcode::kRead;
  cmd.lba = 20;
  cmd.nlb = 4;
  cmd.host_pages = dests;
  const CommandResult r = run(std::move(cmd));
  EXPECT_EQ(r.status, CmdStatus::kOk);
  for (std::size_t slot = 0; slot < 8; ++slot) {
    const std::uint8_t* at = buf.data() + slot * kBlockSize;
    for (std::uint32_t b = 0; b < kBlockSize; ++b) {
      if (slot % 2 == 1) {
        ASSERT_EQ(at[b], kUntouched) << "slot " << slot;
      } else {
        const Lba lba = 20 + (6 - slot) / 2;
        ASSERT_EQ(at[b], ctrl.content().pristine_byte(lba, b))
            << "slot " << slot << " byte " << b;
      }
    }
  }
  EXPECT_EQ(ctrl.stats().bytes_to_host, 4u * kBlockSize);
}

TEST_F(ControllerFixture, BlockReadHitsReadBufferSecondTime) {
  std::vector<std::uint8_t> buf(kBlockSize);
  for (int i = 0; i < 2; ++i) {
    Command cmd;
    cmd.op = Opcode::kRead;
    cmd.lba = 5;
    const std::vector<std::uint8_t*> cmd_pages = pages_of(buf);
    cmd.host_pages = cmd_pages;
    run(std::move(cmd));
  }
  EXPECT_EQ(ctrl.stats().read_buffer.hits(), 1u);
  EXPECT_EQ(ctrl.stats().read_buffer.misses(), 1u);
  EXPECT_EQ(ctrl.nand().stats().page_reads, 1u);
}

TEST_F(ControllerFixture, ReadBufferHitIsFaster) {
  std::vector<std::uint8_t> buf(kBlockSize);
  Command a;
  a.op = Opcode::kRead;
  a.lba = 7;
  const std::vector<std::uint8_t*> a_pages = pages_of(buf);
  a.host_pages = a_pages;
  const SimTime t0 = sim.now();
  run(std::move(a));
  const SimDuration miss_latency = sim.now() - t0;
  Command b;
  b.op = Opcode::kRead;
  b.lba = 7;
  const std::vector<std::uint8_t*> b_pages = pages_of(buf);
  b.host_pages = b_pages;
  const SimTime t1 = sim.now();
  run(std::move(b));
  const SimDuration hit_latency = sim.now() - t1;
  EXPECT_LT(hit_latency * 5, miss_latency);  // no tR on the hit
}

TEST_F(ControllerFixture, MultiPageReadUsesChannelParallelism) {
  // 4 consecutive LBAs stripe across the 4 channels: total time should be
  // far below 4 sequential page reads.
  std::vector<std::uint8_t> buf(4 * kBlockSize);
  Command cmd;
  cmd.op = Opcode::kRead;
  cmd.lba = 0;
  cmd.nlb = 4;
  const std::vector<std::uint8_t*> cmd_pages = pages_of(buf);
  cmd.host_pages = cmd_pages;
  const SimTime t0 = sim.now();
  run(std::move(cmd));
  const SimDuration elapsed = sim.now() - t0;
  const SimDuration t_read = config.nand_timing.t_read();
  EXPECT_LT(elapsed, 2 * t_read);
  EXPECT_EQ(ctrl.nand().stats().page_reads, 4u);
}

TEST_F(ControllerFixture, WriteThenReadSeesNewData) {
  Command w;
  w.op = Opcode::kWrite;
  w.lba = 3;
  w.nlb = 1;
  w.write_data.assign(kBlockSize, 0xEE);
  run(std::move(w));
  EXPECT_EQ(ctrl.stats().block_writes, 1u);

  std::vector<std::uint8_t> buf(kBlockSize);
  Command r;
  r.op = Opcode::kRead;
  r.lba = 3;
  const std::vector<std::uint8_t*> r_pages = pages_of(buf);
  r.host_pages = r_pages;
  run(std::move(r));
  for (auto b : buf) ASSERT_EQ(b, 0xEE);
}

TEST_F(ControllerFixture, FgReadLandsBytesAtHmbDestinations) {
  // Two ranges in different pages, landing at distinct HMB offsets.
  auto& info = ctrl.hmb().info();
  const HmbAddr d0 = ctrl.hmb().data_offset();
  const HmbAddr d1 = d0 + 128;
  Command cmd;
  cmd.op = Opcode::kFgRead;
  cmd.ranges = {
      {20, 100, 128, info.push({d0, 20, 100, 128}, sim.now())},
      {21, 512, 64, info.push({d1, 21, 512, 64}, sim.now())},
  };
  run(std::move(cmd));

  std::vector<std::uint8_t> out(128);
  ctrl.hmb().read(d0, {out.data(), out.size()});
  for (std::uint32_t i = 0; i < 128; ++i)
    ASSERT_EQ(out[i], ctrl.content().pristine_byte(20, 100 + i));
  out.resize(64);
  ctrl.hmb().read(d1, {out.data(), out.size()});
  for (std::uint32_t i = 0; i < 64; ++i)
    ASSERT_EQ(out[i], ctrl.content().pristine_byte(21, 512 + i));

  // The engine consumed both Info Area records.
  EXPECT_TRUE(info.empty());
  EXPECT_EQ(ctrl.stats().fg_ranges, 2u);
  EXPECT_EQ(ctrl.stats().bytes_to_host, 128u + 64u);
}

TEST_F(ControllerFixture, FgReadLoadsEachDistinctPageOnce) {
  auto& info = ctrl.hmb().info();
  const HmbAddr base = ctrl.hmb().data_offset();
  Command cmd;
  cmd.op = Opcode::kFgRead;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint32_t off = i * 128;
    cmd.ranges.push_back(
        {30, off, 128, info.push({base + i * 128, 30, off, 128}, sim.now())});
  }
  run(std::move(cmd));
  EXPECT_EQ(ctrl.nand().stats().page_reads, 1u);  // one page, four ranges
  EXPECT_EQ(ctrl.stats().bytes_to_host, 512u);
}

TEST_F(ControllerFixture, FgReadTrafficIsOnlyDemandedBytes) {
  auto& info = ctrl.hmb().info();
  Command cmd;
  cmd.op = Opcode::kFgRead;
  cmd.ranges = {
      {40, 0, 8, info.push({ctrl.hmb().data_offset(), 40, 0, 8}, sim.now())}};
  run(std::move(cmd));
  EXPECT_EQ(ctrl.stats().bytes_to_host, 8u);
}

TEST_F(ControllerFixture, ReadToCmbThenMmioPull) {
  Command cmd;
  cmd.op = Opcode::kReadToCmb;
  cmd.lba = 50;
  const CommandResult r = run(std::move(cmd));
  std::vector<std::uint8_t> out(96);
  const SimDuration cost =
      ctrl.read_from_cmb(r.cmb_slot, 200, {out.data(), out.size()}, false);
  EXPECT_EQ(cost, ctrl.pcie().mmio_read_cost(96));
  for (std::uint32_t i = 0; i < 96; ++i)
    ASSERT_EQ(out[i], ctrl.content().pristine_byte(50, 200 + i));
}

TEST_F(ControllerFixture, CmbDmaPullPaysMappingCost) {
  Command cmd;
  cmd.op = Opcode::kReadToCmb;
  cmd.lba = 51;
  const CommandResult r = run(std::move(cmd));
  std::vector<std::uint8_t> out(128);
  const SimDuration dma_cost =
      ctrl.read_from_cmb(r.cmb_slot, 0, {out.data(), out.size()}, true);
  EXPECT_GE(dma_cost, config.pcie.dma_map_cost);
}

TEST_F(ControllerFixture, FgWritePatchesOnlyDemandedBytes) {
  Command cmd;
  cmd.op = Opcode::kFgWrite;
  cmd.write_data.assign(64, 0xCD);
  cmd.ranges = {{70, 100, 64, 0}};
  run(std::move(cmd));
  EXPECT_EQ(ctrl.stats().fg_writes, 1u);
  EXPECT_EQ(ctrl.stats().bytes_from_host, 64u);
  std::vector<std::uint8_t> out(kBlockSize);
  ctrl.content().read(70, 0, {out.data(), out.size()});
  for (std::uint32_t i = 0; i < kBlockSize; ++i) {
    if (i >= 100 && i < 164) {
      ASSERT_EQ(out[i], 0xCD);
    } else {
      ASSERT_EQ(out[i], ctrl.content().pristine_byte(70, i)) << i;
    }
  }
}

TEST_F(ControllerFixture, FgWriteSpanningTwoPages) {
  Command cmd;
  cmd.op = Opcode::kFgWrite;
  cmd.write_data.assign(200, 0xEF);
  cmd.ranges = {{80, kBlockSize - 100, 100, 0}, {81, 0, 100, 0}};
  run(std::move(cmd));
  std::vector<std::uint8_t> tail(100), head(100);
  ctrl.content().read(80, kBlockSize - 100, {tail.data(), tail.size()});
  ctrl.content().read(81, 0, {head.data(), head.size()});
  for (auto b : tail) ASSERT_EQ(b, 0xEF);
  for (auto b : head) ASSERT_EQ(b, 0xEF);
  // Two pages were remapped and programmed.
  EXPECT_EQ(ctrl.ftl().stats().writes_mapped, 2u);
  EXPECT_EQ(ctrl.nand().stats().page_programs, 2u);
}

TEST_F(ControllerFixture, FgWriteThenFgReadRoundTrip) {
  Command w;
  w.op = Opcode::kFgWrite;
  w.write_data.assign(32, 0x42);
  w.ranges = {{90, 500, 32, 0}};
  run(std::move(w));

  auto& info = ctrl.hmb().info();
  Command r;
  r.op = Opcode::kFgRead;
  r.ranges = {{90, 500, 32,
               info.push({ctrl.hmb().data_offset(), 90, 500, 32}, sim.now())}};
  run(std::move(r));
  std::vector<std::uint8_t> out(32);
  ctrl.hmb().read(ctrl.hmb().data_offset(), {out.data(), out.size()});
  for (auto b : out) ASSERT_EQ(b, 0x42);
}

TEST_F(ControllerFixture, ConcurrentCommandsAllComplete) {
  // Sixteen block reads in flight at once: all complete, data correct,
  // and the array's parallelism keeps total time well under serial.
  constexpr int kN = 16;
  std::vector<std::vector<std::uint8_t>> bufs(kN);
  std::vector<std::uint8_t*> dests(kN);  // one single-entry PRP list each
  int completed = 0;
  for (int i = 0; i < kN; ++i) {
    bufs[static_cast<size_t>(i)].resize(kBlockSize);
    dests[static_cast<size_t>(i)] = bufs[static_cast<size_t>(i)].data();
    Command cmd;
    cmd.op = Opcode::kRead;
    cmd.lba = static_cast<Lba>(i * 37 % 512);
    cmd.host_pages = {&dests[static_cast<size_t>(i)], 1};
    ctrl.submit(std::move(cmd),
                [&completed](const CommandResult&) { ++completed; });
  }
  sim.run_all();
  EXPECT_EQ(completed, kN);
  const SimDuration serial = kN * config.nand_timing.t_read();
  EXPECT_LT(sim.now(), serial);
  for (int i = 0; i < kN; ++i) {
    const Lba lba = static_cast<Lba>(i * 37 % 512);
    for (std::uint32_t b = 0; b < kBlockSize; ++b)
      ASSERT_EQ(bufs[static_cast<size_t>(i)][b],
                ctrl.content().pristine_byte(lba, b));
  }
}

TEST_F(ControllerFixture, InterleavedReadsAndWritesStayCoherent) {
  // Writes and reads of the same LBA issued back-to-back (the read
  // submitted after the write) must observe the write's data.
  Command w;
  w.op = Opcode::kWrite;
  w.lba = 100;
  w.write_data.assign(kBlockSize, 0xA1);
  bool w_done = false;
  ctrl.submit(std::move(w), [&](const CommandResult&) { w_done = true; });
  std::vector<std::uint8_t> buf(kBlockSize);
  Command r;
  r.op = Opcode::kRead;
  r.lba = 100;
  const std::vector<std::uint8_t*> r_pages = pages_of(buf);
  r.host_pages = r_pages;
  bool r_done = false;
  ctrl.submit(std::move(r), [&](const CommandResult&) { r_done = true; });
  sim.run_all();
  EXPECT_TRUE(w_done && r_done);
  for (auto b : buf) ASSERT_EQ(b, 0xA1);
}

TEST_F(ControllerFixture, FgReadsFromManyPagesUseParallelDies) {
  // 8 ranges on 8 different, channel-striped pages: the sensing overlaps.
  auto& info = ctrl.hmb().info();
  Command cmd;
  cmd.op = Opcode::kFgRead;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const Lba lba = i;  // striped across the 4 channels x 2 ways
    cmd.ranges.push_back(
        {lba, 0, 64,
         info.push({ctrl.hmb().data_offset() + i * 64, lba, 0, 64},
                   sim.now())});
  }
  const SimTime t0 = sim.now();
  run(std::move(cmd));
  EXPECT_LT(sim.now() - t0, 2 * config.nand_timing.t_read());
  EXPECT_EQ(ctrl.nand().stats().page_reads, 8u);
}

TEST_F(ControllerFixture, StatsAccumulateAcrossCommandMix) {
  std::vector<std::uint8_t> buf(kBlockSize);
  Command r;
  r.op = Opcode::kRead;
  r.lba = 1;
  const std::vector<std::uint8_t*> r_pages = pages_of(buf);
  r.host_pages = r_pages;
  run(std::move(r));
  Command w;
  w.op = Opcode::kWrite;
  w.lba = 1;
  w.write_data.assign(kBlockSize, 1);
  run(std::move(w));
  Command c;
  c.op = Opcode::kReadToCmb;
  c.lba = 2;
  run(std::move(c));
  EXPECT_EQ(ctrl.stats().commands, 3u);
  EXPECT_EQ(ctrl.stats().block_reads, 1u);
  EXPECT_EQ(ctrl.stats().block_writes, 1u);
  EXPECT_EQ(ctrl.stats().cmb_reads, 1u);
}

TEST_F(ControllerFixture, WriteInvalidatesDeviceReadBuffer) {
  std::vector<std::uint8_t> buf(kBlockSize);
  Command r1;
  r1.op = Opcode::kRead;
  r1.lba = 60;
  const std::vector<std::uint8_t*> r1_pages = pages_of(buf);
  r1.host_pages = r1_pages;
  run(std::move(r1));  // stages page 60
  Command w;
  w.op = Opcode::kWrite;
  w.lba = 60;
  w.write_data.assign(kBlockSize, 0x11);
  run(std::move(w));
  Command r2;
  r2.op = Opcode::kRead;
  r2.lba = 60;
  const std::vector<std::uint8_t*> r2_pages = pages_of(buf);
  r2.host_pages = r2_pages;
  run(std::move(r2));
  for (auto b : buf) ASSERT_EQ(b, 0x11);
  // Second read re-staged from NAND (buffer was invalidated).
  EXPECT_EQ(ctrl.stats().read_buffer.misses(), 2u);
}

// Once warm, the read flows allocate nothing per command: the command
// records, stage slots, range vectors and event nodes are all recycled, and
// the device writes each payload straight into its destination (the PRP
// list, the HMB, the CMB slot) rather than through a bounce buffer.
TEST_F(ControllerFixture, WarmReadCommandsAreAllocationFree) {
  InfoArea& info = ctrl.hmb().info();
  const HmbAddr base = ctrl.hmb().data_offset();
  constexpr std::uint32_t kRangeLen = 128;
  std::vector<std::uint8_t> buf(4 * kBlockSize);
  const std::vector<std::uint8_t*> dests = pages_of(buf);
  Rng rng(31);
  std::uint64_t ok = 0;
  std::uint64_t mismatches = 0;
  CommandResult cmb_result;
  // Completions capture at most 16 bytes, so std::function keeps them
  // inline.
  const auto count_ok = [&ok](const CommandResult& r) {
    ok += r.status == CmdStatus::kOk;
  };

  // One round: a block read, a fine read and a CMB read in flight together,
  // over 256 pages against a 64-page read buffer (hits and misses both).
  auto round = [&] {
    Command block;
    block.op = Opcode::kRead;
    block.lba = rng.next_below(256);
    block.nlb = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    block.host_pages = std::span(dests).first(block.nlb);
    const Lba block_lba = block.lba;
    const std::uint32_t nlb = block.nlb;
    ctrl.submit(std::move(block), count_ok);

    Command fine;
    fine.op = Opcode::kFgRead;
    fine.ranges = ctrl.take_fg_ranges();
    const std::uint64_t n = 1 + rng.next_below(4);
    for (std::uint32_t i = 0; i < n; ++i) {
      // A few pages only, so ranges often share a page group.
      const Lba lba = rng.next_below(6);
      const std::uint32_t off = i * kRangeLen;
      fine.ranges.push_back(
          {lba, off, kRangeLen,
           info.push({base + off, lba, off, kRangeLen}, sim.now())});
    }
    std::array<FgRange, 4> sent{};
    std::copy(fine.ranges.begin(), fine.ranges.end(), sent.begin());
    ctrl.submit(std::move(fine), count_ok);

    Command cmb;
    cmb.op = Opcode::kReadToCmb;
    cmb.lba = rng.next_below(256);
    const Lba cmb_lba = cmb.lba;
    ctrl.submit(std::move(cmb), [&ok, &cmb_result](const CommandResult& r) {
      ok += r.status == CmdStatus::kOk;
      cmb_result = r;
    });
    sim.run_all();

    for (std::uint32_t p = 0; p < nlb; ++p) {
      for (std::uint32_t b : {0u, kBlockSize / 2, kBlockSize - 1})
        mismatches += dests[p][b] != ctrl.content().pristine_byte(
                                         block_lba + p, b);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const FgRange& r = sent[i];
      const std::uint8_t* got = ctrl.hmb().raw().data() + base + r.offset;
      for (std::uint32_t b = 0; b < r.len; ++b)
        mismatches += got[b] != ctrl.content().pristine_byte(r.lba,
                                                             r.offset + b);
    }
    constexpr std::uint32_t kTail = kBlockSize - 64;
    std::array<std::uint8_t, 64> pulled{};
    ctrl.read_from_cmb(cmb_result.cmb_slot, kTail, pulled, false);
    for (std::uint32_t b = 0; b < pulled.size(); ++b)
      mismatches +=
          pulled[b] != ctrl.content().pristine_byte(cmb_lba, kTail + b);
  };

  // Warm every pool to its peak. The command records are shared by all
  // opcodes, so it takes a while before each one has held a fine read with
  // the widest page grouping.
  for (int i = 0; i < 2000; ++i) round();

  const std::uint64_t ok_before = ok;
  const std::uint64_t hits_before = ctrl.stats().read_buffer.hits();
  const std::uint64_t misses_before = ctrl.stats().read_buffer.misses();
  const std::uint64_t news_before =
      g_operator_new_calls.load(std::memory_order_relaxed);
  const std::uint64_t heap_before = inline_function_heap_allocations();
  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) round();
  const std::uint64_t news_delta =
      g_operator_new_calls.load(std::memory_order_relaxed) - news_before;
  const std::uint64_t heap_delta =
      inline_function_heap_allocations() - heap_before;

  EXPECT_EQ(news_delta, 0u);
  EXPECT_EQ(heap_delta, 0u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(ok - ok_before, 3u * kRounds);
  EXPECT_TRUE(info.empty());
  EXPECT_GT(ctrl.stats().read_buffer.hits(), hits_before + 100);
  EXPECT_GT(ctrl.stats().read_buffer.misses(), misses_before + 100);
}

// --- Retire paths, at MU = page and MU = 512 ---
//
// Every way a fine command can end goes through the controller's one retire
// path: it must release the Info Area records, recycle the range vector,
// and deliver (or, when the fault plan drops it, withhold) exactly one
// completion.

class RetirePath : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  struct Rig {
    Simulator sim;
    SsdController ctrl;
    int completions = 0;
    CommandResult last;

    explicit Rig(const ControllerConfig& config) : ctrl(sim, config) {}

    // One 64-byte range at offset 256 of each of `pages` consecutive LBAs
    // from `lba0`, landing at consecutive 64-byte HMB destinations.
    void submit_fine_read(Lba lba0, std::uint32_t pages) {
      Command cmd;
      cmd.op = Opcode::kFgRead;
      cmd.ranges = ctrl.take_fg_ranges();
      InfoArea& info = ctrl.hmb().info();
      for (std::uint32_t i = 0; i < pages; ++i) {
        const HmbAddr dest = ctrl.hmb().data_offset() + i * 64;
        cmd.ranges.push_back(
            {lba0 + i, 256, 64,
             info.push({dest, lba0 + i, 256, 64}, sim.now())});
      }
      submit(std::move(cmd));
    }

    void submit(Command cmd) {
      ctrl.submit(std::move(cmd), [this](const CommandResult& r) {
        ++completions;
        last = r;
      });
    }

    // The HMB bytes of range i of submit_fine_read(lba0, ...) are right.
    bool landed(Lba lba0, std::uint32_t i) {
      const std::uint8_t* at =
          ctrl.hmb().raw().data() + ctrl.hmb().data_offset() + i * 64;
      for (std::uint32_t b = 0; b < 64; ++b)
        if (at[b] != ctrl.content().pristine_byte(lba0 + i, 256 + b))
          return false;
      return true;
    }
  };

  ControllerConfig config() const {
    ControllerConfig c = test_config();
    c.mapping_unit = GetParam();
    return c;
  }

  // What every retire path leaves behind: no Info record in flight and the
  // command's range vector back in the pool.
  static void expect_retired(Rig& rig) {
    EXPECT_EQ(rig.ctrl.hmb().info().in_flight(), 0u);
    EXPECT_GT(rig.ctrl.take_fg_ranges().capacity(), 0u);
  }
};

TEST_P(RetirePath, HmbFaultCompletesWithFaultStatus) {
  ControllerConfig c = config();
  c.faults.hmb.dma_fault_rate = 1.0;
  Rig rig(c);
  rig.submit_fine_read(10, 2);
  rig.sim.run_all();
  EXPECT_EQ(rig.completions, 1);
  EXPECT_EQ(rig.last.status, CmdStatus::kHmbFault);
  EXPECT_EQ(rig.ctrl.stats().hmb_dma_faults, 1u);
  EXPECT_EQ(rig.ctrl.stats().dropped_completions, 0u);
  EXPECT_EQ(rig.ctrl.nand().stats().page_reads, 0u);  // aborted before NAND
  EXPECT_EQ(rig.ctrl.stats().bytes_to_host, 0u);
  expect_retired(rig);
}

TEST_P(RetirePath, HmbFaultWithDroppedCompletionNeverCompletes) {
  ControllerConfig c = config();
  c.faults.hmb.dma_fault_rate = 1.0;
  c.faults.hmb.drop_rate = 1.0;
  Rig rig(c);
  rig.submit_fine_read(10, 2);
  rig.sim.run_all();
  EXPECT_EQ(rig.completions, 0);
  EXPECT_EQ(rig.ctrl.stats().hmb_dma_faults, 1u);
  EXPECT_EQ(rig.ctrl.stats().dropped_completions, 1u);
  expect_retired(rig);
}

TEST_P(RetirePath, DroppedCompletionStillLandsTheBytes) {
  ControllerConfig c = config();
  c.faults.hmb.drop_rate = 1.0;
  Rig rig(c);
  rig.submit_fine_read(10, 2);
  rig.sim.run_all();
  EXPECT_EQ(rig.completions, 0);
  EXPECT_EQ(rig.ctrl.stats().hmb_dma_faults, 0u);
  EXPECT_EQ(rig.ctrl.stats().dropped_completions, 1u);
  EXPECT_TRUE(rig.landed(10, 0));
  EXPECT_TRUE(rig.landed(10, 1));
  EXPECT_EQ(rig.ctrl.stats().bytes_to_host, 2u * 64);
  expect_retired(rig);
}

TEST_P(RetirePath, MediaErrorOnOnePageFailsTheFineRead) {
  // Each sensing pass fails with probability 1/2 and there is no retry, so
  // some fault seed fails exactly one of the two pages; take the first.
  ControllerConfig c = config();
  c.faults.nand.read_error_rate = 0.5;
  c.faults.nand.max_attempts = 1;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    c.faults.seed = seed;
    Rig rig(c);
    rig.submit_fine_read(10, 2);
    rig.sim.run_all();
    if (rig.ctrl.nand().stats().read_failures != 1) continue;
    EXPECT_EQ(rig.completions, 1);
    EXPECT_EQ(rig.last.status, CmdStatus::kMediaError);
    EXPECT_EQ(rig.ctrl.stats().media_errors, 1u);
    EXPECT_EQ(rig.ctrl.stats().dropped_completions, 0u);
    // The readable page's range still reached the host.
    EXPECT_EQ(rig.ctrl.stats().bytes_to_host, 64u);
    EXPECT_NE(rig.landed(10, 0), rig.landed(10, 1));
    expect_retired(rig);
    return;
  }
  FAIL() << "no seed in 1..64 failed exactly one of the two pages";
}

TEST_P(RetirePath, FineWriteWithUnreadableSourcePageFails) {
  ControllerConfig c = config();
  c.faults.nand.read_error_rate = 1.0;
  c.faults.nand.max_attempts = 2;
  Rig rig(c);
  Command cmd;
  cmd.op = Opcode::kFgWrite;
  cmd.ranges = rig.ctrl.take_fg_ranges();
  cmd.ranges.push_back({12, 100, 64, 0});
  cmd.write_data.assign(64, 0xCD);
  rig.submit(std::move(cmd));
  rig.sim.run_all();
  EXPECT_EQ(rig.completions, 1);
  EXPECT_EQ(rig.last.status, CmdStatus::kMediaError);
  EXPECT_EQ(rig.ctrl.stats().media_errors, 1u);
  // The read-modify-write never patched or programmed anything.
  EXPECT_EQ(rig.ctrl.content().dirty_blocks(), 0u);
  EXPECT_EQ(rig.ctrl.nand().stats().page_programs, 0u);
  expect_retired(rig);
}

INSTANTIATE_TEST_SUITE_P(Mu, RetirePath, ::testing::Values(4096u, 512u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "mu" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace pipette
