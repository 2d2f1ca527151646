// Reproduces Fig. 1 (motivation): normalized I/O traffic and throughput of
// 2B-SSD against block I/O on the two fine-grained-read-dominated
// applications, showing the dilemma Pipette resolves — the byte interface
// slashes traffic but *loses* throughput because it cannot exploit
// host-DRAM locality.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {500'000, 4'000'000};
  print_header("Fig. 1 — motivation: 2B-SSD vs block I/O", scale);

  const PathKind kinds[] = {PathKind::kBlockIo, PathKind::kTwoBMmio,
                            PathKind::kTwoBDma};
  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (std::size_t app = 0; app < std::size(kRealApps); ++app) {
    for (PathKind kind : kinds) {
      cells.push_back({realapp_machine_for(args, kind),
                       realapp_workload(app, args.seed), scale.run()});
      labels.push_back(std::string(kRealApps[app]) + "/" + to_string(kind));
    }
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  Table t({"App", "System", "Norm. I/O traffic", "Norm. throughput"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const RunResult& base = results[i - i % std::size(kinds)];  // Block I/O
    t.add_row({kRealApps[i / std::size(kinds)],
               to_string(kinds[i % std::size(kinds)]),
               Table::fmt(static_cast<double>(r.traffic_bytes) /
                              static_cast<double>(base.traffic_bytes),
                          3),
               Table::fmt(normalized_throughput(r, base), 3)});
  }
  emit(t, args);
  write_json_summary(args, "fig1_motivation", labels, results);

  std::printf(
      "\nPaper reference (Fig. 1): 2B-SSD's I/O traffic is a small fraction\n"
      "of block I/O's, yet its throughput is *lower* — reduced read\n"
      "amplification does not pay without a fine-grained host cache.\n");
  return 0;
}
