// Ablation A8: speculative readahead x interconnect backend.
//
// Runs the Pipette path over the interconnect {hmb, lmb} x prefetch
// {off, on} x workload {strided, clustered, uniform} matrix:
//
//  * strided — fixed-stride runs; the stride classifier locks on after two
//    accesses and the prefetcher should convert most of each run's misses
//    into FGRC hits (or device-buffer-warm re-reads).
//  * clustered — zipf-hot 64 KiB neighbourhoods visited in long bursts;
//    the cluster classifier speculates the surrounding record grid and
//    page-stride probes warm the neighbourhood's pages.
//  * uniform — Table 1 'E' (uniform random 128 B): the classifier must stay
//    quiet; the wasted-prefetch ratio bounds the cost of mis-speculation.
//
// The LMB rows show the CXL-linked-buffer trade: fills pay a slightly
// slower per-byte link, host reads of served bytes pay far-memory loads
// instead of DRAM copies, and the reclaimed host DRAM grows the page cache.
//
// Extra flags on top of the common set:
//   --selfcheck   assert the acceptance properties (prefetch wins on
//                 strided/clustered p50+p99, wasted ratio stays low on
//                 uniform, LMB has a distinct latency profile) and exit
//                 nonzero on violation (used by the prefetch_smoke ctest).
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/pattern.h"

using namespace pipette;
using namespace pipette::bench;

namespace {

struct CellSpec {
  const char* workload;  // "strided" | "clustered" | "uniform"
  InterconnectKind interconnect;
  bool prefetch;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "strided") {
    StridedConfig c;
    c.seed = seed;
    return std::make_unique<StridedWorkload>(c);
  }
  if (name == "clustered") {
    ClusteredConfig c;
    c.seed = seed;
    return std::make_unique<ClusteredHotWorkload>(c);
  }
  return std::make_unique<SyntheticWorkload>(
      table1_workload('E', Distribution::kUniform, seed));
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void write_prefetch_json(const BenchArgs& args,
                         const std::vector<CellSpec>& specs,
                         const std::vector<RunResult>& results) {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "ablation_interconnect_prefetch");
  w.kv("jobs", args.jobs);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = results[i];
    w.begin_object();
    w.kv("workload", specs[i].workload);
    w.kv("interconnect", to_string(specs[i].interconnect));
    w.kv("prefetch", specs[i].prefetch);
    w.kv("requests", r.requests);
    w.kv("mean_latency_us", r.mean_latency_us, 6);
    w.kv("p50_latency_us", r.p50_latency_us, 6);
    w.kv("p99_latency_us", r.p99_latency_us, 6);
    w.kv("fgrc_hit_ratio", r.fgrc_hit_ratio, 6);
    w.kv("host_seconds", r.host_seconds, 6);
    w.kv("events_executed", r.events_executed);
    json_metrics(w, "metrics", r.metrics);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(args.json_path);
}

}  // namespace

int main(int argc, char** argv) {
  bool selfcheck = false;
  const BenchArgs args = BenchArgs::parse(
      argc, argv,
      [&](const char* flag, const BenchArgs::ValueFn&) {
        if (std::strcmp(flag, "--selfcheck") == 0) {
          selfcheck = true;
          return true;
        }
        return false;
      },
      "  --selfcheck  assert prefetch wins on structured streams, stays\n"
      "               harmless on uniform, and LMB differs from HMB\n");
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {500'000, 250'000};
  print_header(
      "Ablation A8 — interconnect x prefetch x workload (Pipette path)",
      scale);

  std::vector<CellSpec> specs;
  for (const char* wl : {"strided", "clustered", "uniform"}) {
    for (InterconnectKind ic : {InterconnectKind::kHmb, InterconnectKind::kLmb})
      for (bool pf : {false, true}) specs.push_back({wl, ic, pf});
  }

  std::vector<ExperimentCell> cells;
  for (const CellSpec& spec : specs) {
    MachineConfig config = default_machine_for(args, PathKind::kPipette);
    config.interconnect = spec.interconnect;
    config.prefetch.enabled = spec.prefetch;
    const std::string wl = spec.workload;
    const std::uint64_t seed = args.seed;
    cells.push_back({std::move(config),
                     [wl, seed] { return make_workload(wl, seed); },
                     scale.run()});
  }
  const std::vector<RunResult> results = run_experiments_parallel(
      std::move(cells), args.jobs,
      [&specs](std::size_t i, const RunResult& r) {
        std::fprintf(stderr, "  %-9s %s prefetch=%-3s done (%s, %.1fs host)\n",
                     specs[i].workload, to_string(specs[i].interconnect),
                     specs[i].prefetch ? "on" : "off",
                     r.read_latency.summary().c_str(), r.host_seconds);
      });

  Table t({"workload", "link", "prefetch", "p50 us", "p99 us", "mean us",
           "fgrc hit%", "pf issued", "pf hit%", "pf wasted%"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = results[i];
    const std::uint64_t issued = r.metrics.value("prefetch.issued");
    t.add_row({specs[i].workload, to_string(specs[i].interconnect),
               specs[i].prefetch ? "on" : "off",
               Table::fmt(r.p50_latency_us, 2), Table::fmt(r.p99_latency_us, 2),
               Table::fmt(r.mean_latency_us, 2),
               Table::fmt(r.fgrc_hit_ratio * 100.0, 1),
               std::to_string(issued),
               Table::fmt(ratio(r.metrics.value("prefetch.hits"), issued) *
                              100.0,
                          1),
               Table::fmt(ratio(r.metrics.value("prefetch.wasted"), issued) *
                              100.0,
                          1)});
  }
  emit(t, args);
  if (!args.json_path.empty()) write_prefetch_json(args, specs, results);

  if (selfcheck) {
    bool ok = true;
    auto cell = [&](const char* wl, InterconnectKind ic,
                    bool pf) -> const RunResult& {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (std::strcmp(specs[i].workload, wl) == 0 &&
            specs[i].interconnect == ic && specs[i].prefetch == pf)
          return results[i];
      }
      PIPETTE_ASSERT_MSG(false, "cell missing from matrix");
      return results[0];
    };
    for (InterconnectKind ic :
         {InterconnectKind::kHmb, InterconnectKind::kLmb}) {
      for (const char* wl : {"strided", "clustered"}) {
        const RunResult& off = cell(wl, ic, false);
        const RunResult& on = cell(wl, ic, true);
        if (!(on.p50_latency_us < off.p50_latency_us &&
              on.p99_latency_us < off.p99_latency_us)) {
          std::fprintf(stderr,
                       "pipette: selfcheck: prefetch did not win on %s/%s "
                       "(p50 %.2f vs %.2f, p99 %.2f vs %.2f)\n",
                       wl, to_string(ic), on.p50_latency_us,
                       off.p50_latency_us, on.p99_latency_us,
                       off.p99_latency_us);
          ok = false;
        }
      }
      const RunResult& uni = cell("uniform", ic, true);
      const std::uint64_t issued = uni.metrics.value("prefetch.issued");
      const double wasted =
          ratio(uni.metrics.value("prefetch.wasted"), issued);
      if (wasted > 0.20) {
        std::fprintf(stderr,
                     "pipette: selfcheck: uniform wasted-prefetch ratio %.3f "
                     "exceeds 0.20 (%s, issued=%llu)\n",
                     wasted, to_string(ic),
                     static_cast<unsigned long long>(issued));
        ok = false;
      }
    }
    // The LMB must be a genuinely different timing model, not an alias.
    const RunResult& hmb = cell("strided", InterconnectKind::kHmb, false);
    const RunResult& lmb = cell("strided", InterconnectKind::kLmb, false);
    if (hmb.mean_latency_us == lmb.mean_latency_us ||
        lmb.metrics.value("lmb.dma_transfers") == 0) {
      std::fprintf(stderr,
                   "pipette: selfcheck: LMB profile indistinguishable from "
                   "HMB (mean %.3f vs %.3f, lmb transfers %llu)\n",
                   hmb.mean_latency_us, lmb.mean_latency_us,
                   static_cast<unsigned long long>(
                       lmb.metrics.value("lmb.dma_transfers")));
      ok = false;
    }
    if (!ok) return 1;
    std::printf("selfcheck      : ok\n");
  }
  return 0;
}
