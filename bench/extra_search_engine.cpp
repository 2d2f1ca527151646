// Extension experiment: a third fine-grained-read application — WiSER-style
// search-engine posting-list fetches (the paper's introduction names search
// engines among the motivating workloads but evaluates only the first two).
// All five systems, throughput + traffic, same methodology as Fig. 9.
#include "bench_common.h"
#include "workload/search.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {1'000'000, 4'000'000};
  print_header("Extension — search-engine posting-list reads", scale);

  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  SearchConfig sc;
  sc.seed = args.seed;
  for (PathKind kind : kAllPaths) {
    cells.push_back({realapp_machine_for(args, kind),
                     factory<SearchWorkload>(sc), scale.run()});
    labels.push_back(to_string(kind));
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);
  const RunResult& block = results[path_index(PathKind::kBlockIo)];

  Table t({"System", "norm. throughput", "traffic MiB", "mean us"});
  for (std::size_t k = 0; k < results.size(); ++k) {
    t.add_row({labels[k],
               Table::fmt(normalized_throughput(results[k], block), 2),
               Table::fmt(to_mib(results[k].traffic_bytes), 1),
               Table::fmt(results[k].mean_latency_us, 2)});
  }
  emit(t, args);
  write_json_summary(args, "extra_search_engine", labels, results);
  std::printf(
      "\nExpected shape (by analogy with Fig. 9): Pipette above block I/O\n"
      "with an order of magnitude less traffic; no-cache byte paths below\n"
      "block I/O.\n");
  return 0;
}
