// Reproduces Fig. 8: average read latency of workload E (pure fine-grained
// reads, uniform distribution) for request sizes 8 B .. 4 KiB, all systems.
//
// Paper's reading: every curve is flat except 2B-SSD MMIO, whose latency
// grows linearly with size (8-byte non-posted transactions); ordering
// Pipette (~2us) < Pipette w/o cache < 2B-SSD DMA (per-access mapping) <
// block I/O (~33.8x Pipette); MMIO crosses w/o-cache around 32 B and DMA
// around 1 KiB.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {600'000, 400'000};
  print_header("Fig. 8 — mean read latency (us) vs request size, uniform",
               scale);

  const std::uint32_t sizes[] = {8,   16,  32,   64,   128,
                                 256, 512, 1024, 2048, 4096};
  const std::uint64_t file_size = 256ull * kMiB;

  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (PathKind kind : kAllPaths) {
    for (std::uint32_t size : sizes) {
      cells.push_back({default_machine_for(args, kind),
                       factory<SizeSweepWorkload>(file_size, size, args.seed),
                       scale.run()});
      labels.push_back(std::string(to_string(kind)) + "/" +
                       std::to_string(size) + "B");
    }
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  std::vector<std::string> headers{"System"};
  for (std::uint32_t s : sizes) headers.push_back(std::to_string(s) + "B");
  Table t(headers);
  for (std::size_t k = 0; k < std::size(kAllPaths); ++k) {
    std::vector<std::string> row{to_string(kAllPaths[k])};
    for (std::size_t s = 0; s < std::size(sizes); ++s)
      row.push_back(
          Table::fmt(results[k * std::size(sizes) + s].mean_latency_us, 2));
    t.add_row(std::move(row));
  }
  emit(t, args);
  write_json_summary(args, "fig8_latency_vs_size", labels, results);

  std::printf(
      "\nPaper reference (Fig. 8): flat curves except MMIO (linear in "
      "size);\nPipette ~2us; block I/O 33.8x Pipette; MMIO crosses "
      "w/o-cache near 32B\nand DMA near 1KiB.\n");
  return 0;
}
