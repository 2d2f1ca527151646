// Ablation A4: the Read Dispatcher's size threshold (§3.1.2 routes "mainly
// based on the data size"). The search workload's posting lists span
// 16 B .. 512 B, so lowering the threshold pushes progressively more reads
// onto the block interface — showing what the byte path is worth per size
// class.
#include "bench_common.h"
#include "workload/search.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {1'000'000, 1'000'000};
  print_header("Ablation A4 — dispatcher fine-path size threshold", scale);

  const std::uint32_t thresholds[] = {32, 64, 128, 512, 4096};
  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  SearchConfig sc;
  sc.seed = args.seed;
  for (std::uint32_t fine_max : thresholds) {
    MachineConfig config = default_machine_for(args, PathKind::kPipette);
    config.pipette.dispatch.fine_max_len = fine_max;
    cells.push_back(
        {std::move(config), factory<SearchWorkload>(sc), scale.run()});
    labels.push_back("fine_max=" + std::to_string(fine_max));
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  Table t({"fine_max_len", "thpt (req/s)", "traffic MiB", "fine reads %"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    // Routing share over the whole run, warmup included.
    const std::uint64_t fine = r.metrics.value("pipette.fine_reads");
    const std::uint64_t block = r.metrics.value("pipette.block_reads");
    t.add_row({std::to_string(thresholds[i]),
               Table::fmt(r.requests_per_sec(), 0),
               Table::fmt(to_mib(r.traffic_bytes), 1),
               Table::fmt(100.0 * static_cast<double>(fine) /
                              static_cast<double>(fine + block),
                          1)});
  }
  emit(t, args);
  write_json_summary(args, "ablation_dispatch_threshold", labels, results);
  return 0;
}
