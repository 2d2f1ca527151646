// Tests for the workload generators: Table 1 mixes, distribution shapes,
// bounds, determinism, and the real-application generators.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/units.h"
#include "ssd/types.h"
#include "workload/linkbench.h"
#include "workload/recsys.h"
#include "workload/search.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

TEST(Synthetic, Table1Ratios) {
  EXPECT_DOUBLE_EQ(table1_workload('A', Distribution::kUniform).small_ratio,
                   0.0);
  EXPECT_DOUBLE_EQ(table1_workload('B', Distribution::kUniform).small_ratio,
                   0.1);
  EXPECT_DOUBLE_EQ(table1_workload('C', Distribution::kUniform).small_ratio,
                   0.5);
  EXPECT_DOUBLE_EQ(table1_workload('D', Distribution::kUniform).small_ratio,
                   0.9);
  EXPECT_DOUBLE_EQ(table1_workload('E', Distribution::kUniform).small_ratio,
                   1.0);
}

TEST(Synthetic, MixMatchesRatio) {
  SyntheticConfig c = table1_workload('D', Distribution::kUniform);
  c.file_size = 16 * kMiB;
  SyntheticWorkload w(c);
  int small = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) small += (w.next().len == 128);
  EXPECT_NEAR(static_cast<double>(small) / n, 0.9, 0.02);
}

TEST(Synthetic, RequestsStayInBounds) {
  for (Distribution d : {Distribution::kUniform, Distribution::kZipf}) {
    SyntheticConfig c = table1_workload('C', d);
    c.file_size = 8 * kMiB;
    SyntheticWorkload w(c);
    for (int i = 0; i < 20000; ++i) {
      const Request r = w.next();
      EXPECT_LE(r.offset + r.len, c.file_size);
      EXPECT_FALSE(r.is_write);
    }
  }
}

TEST(Synthetic, SmallReadsAreSlotAligned) {
  SyntheticConfig c = table1_workload('E', Distribution::kUniform);
  c.file_size = 8 * kMiB;
  SyntheticWorkload w(c);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(w.next().offset % 128, 0u);
}

TEST(Synthetic, LargeReadsArePageAligned) {
  SyntheticConfig c = table1_workload('A', Distribution::kUniform);
  c.file_size = 8 * kMiB;
  SyntheticWorkload w(c);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(w.next().offset % 4096, 0u);
}

TEST(Synthetic, ZipfHeadIsClusteredAtFileStart) {
  SyntheticConfig c = table1_workload('E', Distribution::kZipf);
  c.file_size = 64 * kMiB;
  SyntheticWorkload w(c);
  std::uint64_t in_first_mib = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) in_first_mib += (w.next().offset < kMiB);
  // Far beyond the uniform expectation of 1/64.
  EXPECT_GT(in_first_mib, static_cast<std::uint64_t>(n) / 8);
}

TEST(Synthetic, DeterministicForSameSeed) {
  SyntheticConfig c = table1_workload('C', Distribution::kZipf, 123);
  c.file_size = 8 * kMiB;
  SyntheticWorkload a(c), b(c);
  for (int i = 0; i < 1000; ++i) {
    const Request ra = a.next(), rb = b.next();
    EXPECT_EQ(ra.offset, rb.offset);
    EXPECT_EQ(ra.len, rb.len);
  }
}

TEST(SizeSweep, OffsetsAlignedBoundedNeverPageAligned) {
  SizeSweepWorkload w(4 * kMiB, 1024);
  for (int i = 0; i < 5000; ++i) {
    const Request r = w.next();
    EXPECT_EQ(r.offset % 8, 0u);
    EXPECT_NE(r.offset % kBlockSize, 0u);  // always fine-grained routed
    EXPECT_LE(r.offset + r.len, 4 * kMiB);
    EXPECT_EQ(r.len, 1024u);
  }
}

TEST(SizeSweep, SlotOffsetsAreStableAcrossSizes) {
  // The access population must be identical for every request size so the
  // Fig. 8 sweep varies only the size.
  SizeSweepWorkload a(4 * kMiB, 8), b(4 * kMiB, 4096);
  for (std::uint64_t s = 0; s < 4 * kMiB / kBlockSize - 1; ++s)
    EXPECT_EQ(a.slot_offset(s), b.slot_offset(s));
}

TEST(SizeSweep, MaxSizeReadStaysInFile) {
  SizeSweepWorkload w(4 * kMiB, 4096);
  for (int i = 0; i < 5000; ++i) {
    const Request r = w.next();
    EXPECT_LE(r.offset + r.len, 4 * kMiB);
  }
}

// --- Recsys ---

TEST(Recsys, AllLookupsAreVectorSized) {
  RecsysConfig c;
  c.total_bytes = 32 * kMiB;
  RecsysWorkload w(c);
  for (int i = 0; i < 5000; ++i) {
    const Request r = w.next();
    EXPECT_EQ(r.len, 128u);
    EXPECT_EQ(r.offset % 128, 0u);
    EXPECT_LE(r.offset + r.len, w.files()[0].size);
    EXPECT_FALSE(r.is_write);
  }
}

TEST(Recsys, AccessesAreSkewed) {
  RecsysConfig c;
  c.total_bytes = 32 * kMiB;
  RecsysWorkload w(c);
  std::map<std::uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[w.next().offset];
  // Top 1% of distinct vectors should carry a large share of accesses.
  std::vector<int> freq;
  for (auto& [off, cnt] : counts) freq.push_back(cnt);
  std::sort(freq.rbegin(), freq.rend());
  std::uint64_t head = 0, total = 0;
  for (std::size_t i = 0; i < freq.size(); ++i) {
    total += static_cast<std::uint64_t>(freq[i]);
    if (i < freq.size() / 100 + 1) head += static_cast<std::uint64_t>(freq[i]);
  }
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.15);
}

TEST(Recsys, HotVectorsAreScattered) {
  RecsysConfig c;
  c.total_bytes = 32 * kMiB;
  RecsysWorkload w(c);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[w.next().offset];
  // The 20 hottest offsets must not all sit in the first table.
  std::vector<std::pair<int, std::uint64_t>> by_freq;
  for (auto& [off, cnt] : counts) by_freq.emplace_back(cnt, off);
  std::sort(by_freq.rbegin(), by_freq.rend());
  const std::uint64_t file_size = w.files()[0].size;
  int in_first_quarter = 0;
  for (int i = 0; i < 20; ++i)
    in_first_quarter += (by_freq[static_cast<size_t>(i)].second < file_size / 4);
  EXPECT_LT(in_first_quarter, 15);
}

// --- Search ---

TEST(Search, RequestsStayInTermSlots) {
  SearchConfig c;
  c.terms = 1 << 14;
  SearchWorkload w(c);
  for (int i = 0; i < 20000; ++i) {
    const Request r = w.next();
    EXPECT_EQ(r.offset % c.slot_bytes, 0u);  // slot-aligned
    EXPECT_GE(r.len, c.min_posting);
    EXPECT_LE(r.len, c.slot_bytes);
    EXPECT_LE(r.offset + r.len, w.files()[0].size);
    EXPECT_FALSE(r.is_write);
  }
}

TEST(Search, PostingLengthStablePerTerm) {
  SearchConfig c;
  c.terms = 1 << 14;
  SearchWorkload w(c);
  for (std::uint64_t term = 0; term < 100; ++term)
    EXPECT_EQ(w.posting_bytes(term), w.posting_bytes(term));
}

TEST(Search, PostingLengthsAreLogSpread) {
  SearchConfig c;
  c.terms = 1 << 16;
  SearchWorkload w(c);
  int small = 0, large = 0;
  for (std::uint64_t term = 0; term < 10000; ++term) {
    const std::uint32_t len = w.posting_bytes(term);
    small += len < 64;
    large += len > 256;
  }
  EXPECT_GT(small, 1000);  // both ends of the range are populated
  EXPECT_GT(large, 1000);
}

TEST(Search, TermPopularityIsSkewed) {
  SearchConfig c;
  c.terms = 1 << 16;
  SearchWorkload w(c);
  std::map<std::uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[w.next().offset];
  std::vector<int> freq;
  for (auto& [off, cnt] : counts) freq.push_back(cnt);
  std::sort(freq.rbegin(), freq.rend());
  std::uint64_t head = 0;
  for (std::size_t i = 0; i < freq.size() / 100 + 1; ++i)
    head += static_cast<std::uint64_t>(freq[i]);
  EXPECT_GT(static_cast<double>(head) / n, 0.1);
}

// --- LinkBench ---

TEST(LinkBench, RequestsRespectFileBounds) {
  LinkBenchConfig c;
  c.node_count = 1 << 16;
  LinkBenchWorkload w(c);
  for (int i = 0; i < 20000; ++i) {
    const Request r = w.next();
    ASSERT_LT(r.file_index, 2u);
    ASSERT_LE(r.offset + r.len, w.files()[r.file_index].size)
        << "op=" << static_cast<int>(w.last_op());
    ASSERT_GT(r.len, 0u);
  }
}

TEST(LinkBench, OpMixRoughlyMatchesDefaults) {
  LinkBenchConfig c;
  c.node_count = 1 << 16;
  LinkBenchWorkload w(c);
  std::map<GraphOp, int> ops;
  const int n = 100000;
  int writes = 0;
  for (int i = 0; i < n; ++i) {
    const Request r = w.next();
    ++ops[w.last_op()];
    writes += r.is_write;
  }
  // GET_LINKS_LIST dominates at ~52% of the reduced mix.
  EXPECT_NEAR(static_cast<double>(ops[GraphOp::kGetLinkList]) / n, 0.525,
              0.03);
  // Writes land near the LinkBench default ~28% (of the reduced mix).
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.285, 0.03);
}

TEST(LinkBench, ReadOnlyModeHasNoWrites) {
  LinkBenchConfig c;
  c.node_count = 1 << 16;
  c.read_only = true;
  LinkBenchWorkload w(c);
  for (int i = 0; i < 20000; ++i) EXPECT_FALSE(w.next().is_write);
}

TEST(LinkBench, NodeReadsAreSmall) {
  LinkBenchConfig c;
  c.node_count = 1 << 16;
  LinkBenchWorkload w(c);
  for (int i = 0; i < 20000; ++i) {
    const Request r = w.next();
    if (w.last_op() == GraphOp::kGetNode) {
      EXPECT_EQ(r.len, 88u);
      EXPECT_EQ(r.file_index, 0u);
    }
  }
}

TEST(LinkBench, DegreeIsStablePerNode) {
  LinkBenchConfig c;
  c.node_count = 1 << 12;
  LinkBenchWorkload w(c);
  // Collect GET_LINKS_LIST lengths per node segment; each node must always
  // produce the same list length.
  std::map<std::uint64_t, std::uint32_t> degree;
  for (int i = 0; i < 50000; ++i) {
    const Request r = w.next();
    if (w.last_op() != GraphOp::kGetLinkList) continue;
    auto [it, fresh] = degree.emplace(r.offset, r.len);
    if (!fresh) {
      EXPECT_EQ(it->second, r.len);
    }
  }
}

}  // namespace
}  // namespace pipette
