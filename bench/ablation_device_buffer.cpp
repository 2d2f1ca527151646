// Ablation A6: the device staging buffer (controller DRAM) — the modelling
// decision DESIGN.md §4b calls out. Sweeps the buffer size for the
// fine-grained paths and toggles whether block reads may use it, showing
// the two regimes: staging covers the working set (synthetic experiments,
// byte paths at microseconds) vs staging dwarfed by the dataset (real-app
// experiments, byte-path misses pay NAND tR).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {500'000, 500'000};
  print_header("Ablation A6 — device staging buffer (workload E, uniform)",
               scale);

  // Per (buffer size, block uses it) row: a Pipette w/o cache cell, then
  // a Block I/O cell.
  const std::uint64_t buffer_mibs[] = {16, 64, 512};
  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (std::uint64_t buffer_mib : buffer_mibs) {
    for (bool block_uses : {false, true}) {
      for (PathKind kind : {PathKind::kPipetteNoCache, PathKind::kBlockIo}) {
        MachineConfig config = default_machine_for(args, kind);
        config.ssd.read_buffer_bytes = buffer_mib * kMiB;
        config.ssd.block_reads_use_buffer = block_uses;
        cells.push_back({std::move(config),
                         table1('E', Distribution::kUniform, args.seed),
                         scale.run()});
        labels.push_back("buffer=" + std::to_string(buffer_mib) +
                         "MiB block_uses=" + (block_uses ? "yes/" : "no/") +
                         to_string(kind));
      }
    }
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  Table t({"read_buffer", "block uses it", "Pipette w/o cache us",
           "Block I/O us", "ratio"});
  for (std::size_t row = 0; row < results.size() / 2; ++row) {
    const RunResult& nocache = results[2 * row];
    const RunResult& block = results[2 * row + 1];
    t.add_row({std::to_string(buffer_mibs[row / 2]) + " MiB",
               row % 2 == 1 ? "yes" : "no",
               Table::fmt(nocache.mean_latency_us, 2),
               Table::fmt(block.mean_latency_us, 2),
               Table::fmt_times(block.mean_latency_us /
                                nocache.mean_latency_us)});
  }
  emit(t, args);
  write_json_summary(args, "ablation_device_buffer", labels, results);
  return 0;
}
