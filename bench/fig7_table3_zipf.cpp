// Reproduces Fig. 7 and Table 3 from one run of the synthetic workloads
// A..E under the zipfian distribution (alpha = 0.8, hot head clustered at
// the start of the file): Fig. 7 is their normalized throughput, Table 3
// their I/O traffic (MB).
//
// Paper's reading, Fig. 7: zipfian locality lets the page cache and
// read-ahead do their job, so every gap compresses — Pipette's gain shrinks
// to 1.1-1.4x (it "has a smaller optimization space"), and block I/O is no
// longer the universal loser.
//
// Table 3: block I/O's traffic collapses relative to the uniform case
// (748.3 vs 2973.6 MB — reuse plus read-ahead now pay off); the no-cache
// paths are unchanged (they always move exactly the requested bytes);
// Pipette is the lowest everywhere (33.3 MB at E).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Scale scale = Scale::from_args(args);
  print_header("Fig. 7 — normalized throughput, synthetic, zipf(0.8)", scale);

  const SyntheticMatrix matrix =
      run_synthetic_matrix(Distribution::kZipf, scale, args);
  emit(throughput_table(matrix), args);
  std::printf(
      "\nPaper reference (Fig. 7): Pipette 1.1x..1.4x across A..E; spreads\n"
      "far smaller than the uniform case (Fig. 6).\n");

  print_header("Table 3 — I/O traffic (MiB), synthetic, zipf(0.8)", scale);
  emit(traffic_table(matrix), args, "_table3");
  std::printf(
      "\nPaper reference (Table 3, 2.5M requests, MB):\n"
      "Block I/O           748.3  748.3  748.3  748.3  748.3\n"
      "2B-SSD/w-o cache   9765.6 8819.6 5035.4 1251.2  305.2\n"
      "Pipette             748.3  684.2  399.9  107.0   33.3\n");
  write_json_summary(args, "fig7_table3_zipf", matrix.labels, matrix.results);
  return 0;
}
