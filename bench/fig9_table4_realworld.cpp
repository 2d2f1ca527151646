// Reproduces Fig. 9 and Table 4 from one run of the real-world
// applications — the recommendation system (DLRM-style 128 B embedding
// lookups) and the social graph (LinkBench, read-only) — on all five
// systems. Fig. 9 is (a) normalized throughput and (b) I/O traffic; Table 4
// compares the Block I/O run's page cache with the Pipette run's
// fine-grained read cache (hit ratio and memory usage).
//
// Paper's reading, Fig. 9: Pipette outperforms block I/O by ~1.3x on both
// apps (31.6% and 33.5%); the no-cache byte paths land *below* block I/O
// (no locality support); Pipette's traffic is an order of magnitude below
// both the no-cache paths and block I/O.
//
// Table 4: the FGRC reaches a far higher hit ratio (93.5% / 89.1% vs
// 64.5% / 66.5%) while using an order of magnitude less memory (91 MB vs
// 2382 MB; 70 MB vs 1112 MB), because it stores only the demanded bytes.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {1'000'000, 4'000'000};
  print_header("Fig. 9 — real-world applications", scale);

  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (std::size_t app = 0; app < std::size(kRealApps); ++app) {
    for (PathKind kind : kAllPaths) {
      cells.push_back({realapp_machine_for(args, kind),
                       realapp_workload(app, args.seed), scale.run()});
      labels.push_back(std::string(kRealApps[app]) + "/" + to_string(kind));
    }
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);
  auto result = [&](std::size_t app, PathKind kind) -> const RunResult& {
    return results[app * std::size(kAllPaths) + path_index(kind)];
  };

  Table t({"System", "RecSys norm. thpt", "RecSys traffic MiB",
           "SocGraph norm. thpt", "SocGraph traffic MiB"});
  for (PathKind kind : kAllPaths) {
    std::vector<std::string> row{to_string(kind)};
    for (std::size_t app = 0; app < std::size(kRealApps); ++app) {
      row.push_back(Table::fmt(normalized_throughput(
                                   result(app, kind),
                                   result(app, PathKind::kBlockIo)),
                               2));
      row.push_back(Table::fmt(to_mib(result(app, kind).traffic_bytes), 1));
    }
    t.add_row(std::move(row));
  }
  emit(t, args);
  std::printf(
      "\nPaper reference (Fig. 9): Pipette ~1.3x block I/O on both apps;\n"
      "no-cache paths below block I/O; Pipette traffic an order of\n"
      "magnitude below every alternative.\n");

  print_header("Table 4 — page cache vs fine-grained read cache", scale);
  Table cache({"App", "System", "Hit ratio (%)", "Memory usage (MiB)"});
  for (std::size_t app = 0; app < std::size(kRealApps); ++app) {
    const RunResult& block = result(app, PathKind::kBlockIo);
    const RunResult& pipette = result(app, PathKind::kPipette);
    cache.add_row({kRealApps[app], to_string(PathKind::kBlockIo),
                   Table::fmt(block.page_cache_hit_ratio * 100.0, 2),
                   Table::fmt(to_mib(block.page_cache_bytes), 0)});
    cache.add_row({kRealApps[app], to_string(PathKind::kPipette),
                   Table::fmt(pipette.fgrc_hit_ratio * 100.0, 2),
                   Table::fmt(to_mib(pipette.fgrc_bytes), 0)});
  }
  emit(cache, args, "_table4");
  std::printf(
      "\nPaper reference (Table 4):\n"
      "RecSys:   Block I/O 64.50%% / 2382 MB   Pipette 93.50%% / 91 MB\n"
      "SocGraph: Block I/O 66.50%% / 1112 MB   Pipette 89.09%% / 70 MB\n");
  write_json_summary(args, "fig9_table4_realworld", labels, results);
  return 0;
}
