// Ablation A1: the adaptive caching mechanism (§3.2.2) against fixed
// promotion thresholds.
//
// The adaptive threshold should track the best fixed threshold on both a
// high-reuse (zipf) and a low-reuse (uniform) workload, where any single
// fixed threshold loses on one of them: threshold 1 pollutes the cache
// under scans, large thresholds starve it under reuse.
#include <iterator>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {1'000'000, 1'000'000};
  print_header("Ablation A1 — adaptive caching vs fixed thresholds", scale);

  struct Variant {
    const char* name;
    bool adaptive;
    std::uint32_t threshold;
  };
  const Variant variants[] = {
      {"adaptive (paper)", true, 2}, {"fixed t=1", false, 1},
      {"fixed t=2", false, 2},       {"fixed t=4", false, 4},
      {"fixed t=8", false, 8},
  };

  // One independent cell per (variant, distribution).
  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (const Variant& v : variants) {
    MachineConfig config = default_machine_for(args, PathKind::kPipette);
    config.pipette.fgrc.adaptive.enabled = v.adaptive;
    config.pipette.fgrc.adaptive.initial_threshold = v.threshold;
    config.pipette.fgrc.adaptive.min_threshold = 1;
    config.pipette.fgrc.adaptive.max_threshold =
        std::max<std::uint32_t>(v.threshold, 4);
    for (Distribution dist : {Distribution::kUniform, Distribution::kZipf}) {
      cells.push_back({config, table1('E', dist, args.seed), scale.run()});
      labels.push_back(std::string(v.name) +
                       (dist == Distribution::kUniform ? "/uniform" : "/zipf"));
    }
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  Table t({"Variant", "uniform E thpt (req/s)", "uniform E FGRC hit %",
           "zipf E thpt (req/s)", "zipf E FGRC hit %"});
  for (std::size_t v = 0; v < std::size(variants); ++v) {
    const RunResult& uni = results[2 * v];
    const RunResult& zipf = results[2 * v + 1];
    t.add_row({variants[v].name, Table::fmt(uni.requests_per_sec(), 0),
               Table::fmt(uni.fgrc_hit_ratio * 100.0, 1),
               Table::fmt(zipf.requests_per_sec(), 0),
               Table::fmt(zipf.fgrc_hit_ratio * 100.0, 1)});
  }
  emit(t, args);
  write_json_summary(args, "ablation_adaptive_caching", labels, results);
  return 0;
}
