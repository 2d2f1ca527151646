// Reproduces Fig. 6 and Table 2 from one run of the synthetic workloads
// A..E (Table 1) under the uniform random distribution, for all five
// systems: Fig. 6 is their normalized throughput, Table 2 their I/O traffic
// (MB).
//
// Paper's reading, Fig. 6: Pipette's advantage grows with the small-read
// share — comparable to block I/O at A, a large multiple at E (the paper
// reports 31.2x on its hardware); the no-cache byte paths improve
// moderately; and 2B-SSD MMIO *degrades* as large reads grow because each
// 8-byte non-posted transaction is a full PCIe round trip.
//
// Table 2: block I/O moves the same data regardless of the size mix
// (location, not size, decides which pages are read); the no-cache byte
// paths move exactly the requested bytes (9765.6 MB at A down to 305.2 MB
// at E for 2.5M requests); Pipette tracks block I/O at A and drops ~4x
// below the no-cache paths at E thanks to the fine-grained read cache.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Scale scale = Scale::from_args(args);
  print_header("Fig. 6 — normalized throughput, synthetic, uniform", scale);

  const SyntheticMatrix matrix =
      run_synthetic_matrix(Distribution::kUniform, scale, args);
  emit(throughput_table(matrix), args);
  std::printf(
      "\nPaper reference (Fig. 6): Pipette ~1.0x at A rising to 31.2x at E;"
      "\nno-cache paths a small multiple at E; MMIO below 1x at A.\n");

  print_header("Table 2 — I/O traffic (MiB), synthetic, uniform", scale);
  emit(traffic_table(matrix), args, "_table2");
  std::printf(
      "\nPaper reference (Table 2, 2.5M requests, MB):\n"
      "Block I/O          2973.6 2973.6 2973.6 2973.6 2973.6\n"
      "2B-SSD/w-o cache   9765.6 8819.6 5035.4 1251.2  305.2\n"
      "Pipette            2973.6 2678.4 1479.7  313.5   79.8\n");
  write_json_summary(args, "fig6_table2_uniform", matrix.labels,
                     matrix.results);
  return 0;
}
