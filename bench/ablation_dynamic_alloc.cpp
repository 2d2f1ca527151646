// Ablation A3: the dynamic allocation strategy (§3.2.4) — choosing between
// LRU eviction and slab migration by comparing page-cache and FGRC hit
// ratios — against the two fixed policies. Uses the search workload (its
// posting lists span several slab classes, so migration has donor classes)
// under a tight FGRC, with a block-routed large-read sidecar stream that
// keeps the page-cache hit counter meaningful.
#include "bench_common.h"
#include "workload/search.h"

namespace {

using namespace pipette;
using namespace pipette::bench;

// The search workload with a sidecar: 1-in-16 requests is a page-aligned
// 4 KiB read (block route), so the page cache sees traffic and its hit
// ratio is defined.
class SearchWithSidecar final : public Workload {
 public:
  explicit SearchWithSidecar(const SearchConfig& config)
      : search_(config), sidecar_(config.seed + 1) {}

  const std::vector<FileSpec>& files() const override {
    return search_.files();
  }
  Request next() override {
    if (issued_++ % 16 == 15) {
      const std::uint64_t page =
          sidecar_.next_below(search_.files()[0].size / kBlockSize);
      return {0, page * kBlockSize, kBlockSize, false};
    }
    return search_.next();
  }
  std::string name() const override { return "search+sidecar"; }

 private:
  SearchWorkload search_;
  Rng sidecar_;
  std::uint64_t issued_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {1'000'000, 1'000'000};
  print_header("Ablation A3 — dynamic allocation vs fixed pressure policy",
               scale);

  struct Variant {
    const char* name;
    PressurePolicy policy;
  };
  const Variant variants[] = {
      {"dynamic (paper)", PressurePolicy::kDynamic},
      {"always evict", PressurePolicy::kAlwaysEvict},
      {"always migrate", PressurePolicy::kAlwaysMigrate},
  };

  SearchConfig sc;
  sc.seed = args.seed;
  sc.terms = 1 << 19;
  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (const Variant& v : variants) {
    MachineConfig config = default_machine_for(args, PathKind::kPipette);
    config.ssd.hmb.data_bytes = 16ull * kMiB;  // tight: pressure runs
    config.pipette.fgrc.slab.max_external_bytes = 8ull * kMiB;
    config.pipette.fgrc.policy = v.policy;
    cells.push_back({std::move(config),
                     factory<SearchWithSidecar>(sc), scale.run()});
    labels.push_back(v.name);
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  Table t({"Variant", "thpt (req/s)", "FGRC hit %", "evictions",
           "migrations", "FGRC MiB"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    t.add_row({variants[i].name, Table::fmt(r.requests_per_sec(), 0),
               Table::fmt(r.fgrc_hit_ratio * 100.0, 1),
               std::to_string(r.metrics.value("fgrc.pressure_evictions")),
               std::to_string(r.metrics.value("fgrc.pressure_migrations")),
               Table::fmt(to_mib(r.fgrc_bytes), 1)});
  }
  emit(t, args);
  write_json_summary(args, "ablation_dynamic_alloc", labels, results);
  return 0;
}
