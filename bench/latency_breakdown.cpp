// Latency decomposition: where a read's time goes, per stage, for all five
// systems over the mixed synthetic workload (Table 1 'C', uniform offsets).
//
// Each system runs with the request tracer enabled, which populates one
// latency histogram per pipeline stage (submit, page cache, FGRC lookup,
// queue, FTL, NAND sense/retry, bus, PCIe/HMB DMA, host copy, ...) without
// perturbing the simulation — tracing on/off is bit-identical, a property
// obs_test pins against the golden trace.
//
// What to look for:
//  * Block I/O pays nand_sense + pcie_dma on every miss and amortises them
//    through the page cache; its host_copy stage is page-sized.
//  * 2B-SSD eliminates the queue/FTL block stack but pays host_copy (MMIO
//    pulls) per request.
//  * Pipette's hit path is host-only (fgrc_lookup + host_copy); its miss
//    path shows the Info-ring handoff plus hmb_dma instead of pcie_dma.
//
// Extra flags on top of the common set:
//   --trace PATH    write a Chrome-trace JSON (chrome://tracing, Perfetto)
//                   with one process per system and one track per stage.
//   --selfcheck     re-read every JSON artefact written and fail unless it
//                   parses (used by the trace_smoke ctest).
// --json adds per-stage histograms, the component metrics registry and the
// sim-time series of each system to the machine-readable summary.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/chrome_trace.h"
#include "obs/util.h"
#include "workload/pattern.h"

using namespace pipette;
using namespace pipette::bench;

namespace {

/// The five paper systems on Table 1 'C', plus a prefetch-enabled Pipette
/// cell on a strided stream — the workload where the spec_fill stage (the
/// speculative Info-ring batching work) actually shows up in the table.
struct SystemSpec {
  const char* label;
  PathKind kind;
  bool prefetch;
  bool strided;  // strided pattern workload instead of Table 1 'C'
};

constexpr SystemSpec kSystems[] = {
    {"2B-SSD MMIO", PathKind::kTwoBMmio, false, false},
    {"2B-SSD DMA", PathKind::kTwoBDma, false, false},
    {"Pipette w/o cache", PathKind::kPipetteNoCache, false, false},
    {"Pipette", PathKind::kPipette, false, false},
    {"Block I/O", PathKind::kBlockIo, false, false},
    {"Pipette+prefetch", PathKind::kPipette, true, true},
};

struct SystemRun {
  const char* label;
  RunResult result;
};

/// Sim-time between timeline samples: fine enough that even the smoke run's
/// short measured phase yields a handful of samples.
constexpr SimDuration kTimelineInterval = 500'000;  // 0.5 ms

double stage_total_ms(const LatencyHistogram& h) {
  return h.mean_ns() * static_cast<double>(h.count()) / 1e6;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n;
  out.clear();
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

bool selfcheck_json_file(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "pipette: selfcheck cannot read %s\n", path.c_str());
    return false;
  }
  if (!json_valid(text)) {
    std::fprintf(stderr, "pipette: selfcheck: %s is not valid JSON\n",
                 path.c_str());
    return false;
  }
  return true;
}

void write_breakdown_json(const BenchArgs& args,
                          const std::vector<SystemRun>& runs) {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "latency_breakdown");
  w.kv("jobs", args.jobs);
  w.key("systems");
  w.begin_array();
  for (const SystemRun& run : runs) {
    const RunResult& r = run.result;
    w.begin_object();
    w.kv("system", run.label);
    w.kv("requests", r.requests);
    w.kv("mean_latency_us", r.mean_latency_us, 6);
    w.kv("p99_latency_us", r.p99_latency_us, 6);
    w.kv("host_seconds", r.host_seconds, 6);
    w.kv("events_executed", r.events_executed);
    w.key("stages");
    w.begin_array();
    for (std::size_t s = 0; s < r.stage_latency.size(); ++s) {
      const LatencyHistogram& h = r.stage_latency[s];
      if (h.count() == 0) continue;
      const Stage stage = static_cast<Stage>(s);
      w.begin_object();
      w.kv("stage", stage_name(stage));
      w.kv("track", stage_track(stage));
      w.kv("count", h.count());
      w.kv("total_ms", stage_total_ms(h), 3);
      w.kv("mean_us", h.mean_ns() / 1e3, 3);
      w.kv("p50_us", to_us(h.percentile(50)), 3);
      w.kv("p99_us", to_us(h.percentile(99)), 3);
      w.kv("p999_us", to_us(h.percentile(99.9)), 3);
      w.end_object();
    }
    w.end_array();
    w.key("timeline");
    w.begin_array();
    for (const TimeSample& sample : r.timeline) {
      w.begin_object();
      w.kv("t_ms", static_cast<double>(sample.t) / 1e6, 3);
      w.kv("reads", sample.reads);
      w.kv("traffic_bytes", sample.traffic_bytes);
      w.kv("page_cache_hit_ratio", sample.page_cache_hit_ratio, 6);
      w.kv("fgrc_hit_ratio", sample.fgrc_hit_ratio, 6);
      w.kv("fgrc_bytes", sample.fgrc_bytes);
      w.kv("gc_moves", sample.gc_moves);
      w.kv("read_retries", sample.read_retries);
      w.kv("degraded_reads", sample.degraded_reads);
      w.kv("nand_busy_ns", sample.nand_busy_ns);
      w.kv("interconnect_busy_ns", sample.interconnect_busy_ns);
      w.kv("gc_busy_ns", sample.gc_busy_ns);
      w.kv("info_ring_depth", sample.info_ring_depth);
      w.kv("nand_queue_depth", sample.nand_queue_depth);
      w.end_object();
    }
    w.end_array();
    json_metrics(w, "metrics", r.metrics);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(args.json_path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool selfcheck = false;
  const BenchArgs args = BenchArgs::parse(
      argc, argv,
      [&](const char* flag, const BenchArgs::ValueFn& value) {
        if (std::strcmp(flag, "--trace") == 0) {
          trace_path = value();
          return true;
        }
        if (std::strcmp(flag, "--selfcheck") == 0) {
          selfcheck = true;
          return true;
        }
        return false;
      },
      "  --trace PATH write a Chrome trace of the Pipette cell\n"
      "  --selfcheck  assert traced == untraced determinism\n");
  const Scale scale = Scale::from_args(args);
  print_header("Latency breakdown — Table 1 'C', per-stage decomposition",
               scale);

  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (const SystemSpec& spec : kSystems) {
    MachineConfig config = default_machine_for(args, spec.kind);
    config.trace.enabled = true;
    if (spec.prefetch) config.prefetch = true;
    RunConfig run = scale.run();
    run.timeline.interval = kTimelineInterval;
    StridedConfig strided;
    strided.seed = args.seed;
    cells.push_back({config,
                     spec.strided
                         ? factory<StridedWorkload>(strided)
                         : table1('C', Distribution::kUniform, args.seed),
                     run});
    labels.push_back(spec.label);
  }
  std::vector<RunResult> results = run_cells(std::move(cells), labels, args);

  std::vector<SystemRun> runs;
  for (std::size_t i = 0; i < results.size(); ++i)
    runs.push_back({kSystems[i].label, std::move(results[i])});

  // Decomposition table: rows = stages (in pipeline order), columns = the
  // five systems, cells = total stage time per 1k requests (us) — totals,
  // not means, so rarely-hit stages don't read as dominant.
  {
    std::vector<std::string> headers{"Stage (us/1k reqs)"};
    for (const SystemRun& run : runs) headers.push_back(run.label);
    Table t(headers);
    for (std::size_t s = 0; s < kStageCount; ++s) {
      bool any = false;
      for (const SystemRun& run : runs)
        any = any || (s < run.result.stage_latency.size() &&
                      run.result.stage_latency[s].count() > 0);
      if (!any) continue;
      std::vector<std::string> row{stage_name(static_cast<Stage>(s))};
      for (const SystemRun& run : runs) {
        const double us_per_1k =
            s < run.result.stage_latency.size() && run.result.requests > 0
                ? stage_total_ms(run.result.stage_latency[s]) * 1e6 /
                      static_cast<double>(run.result.requests)
                : 0.0;
        row.push_back(Table::fmt(us_per_1k, 1));
      }
      t.add_row(std::move(row));
    }
    std::vector<std::string> total_row{"end-to-end mean (us)"};
    for (const SystemRun& run : runs)
      total_row.push_back(Table::fmt(run.result.mean_latency_us, 2));
    t.add_row(std::move(total_row));
    emit(t, args);
  }

  std::printf("\nper-system read latency:\n");
  for (const SystemRun& run : runs)
    std::printf("  %-18s %s\n", run.label,
                run.result.read_latency.summary().c_str());

  // Where each system's time actually went: the top-ranked resource of the
  // utilization accounts (full per-resource table in bottleneck_report).
  std::printf("\nbottleneck attribution (busy-time share of elapsed):\n");
  for (const SystemRun& run : runs) {
    const BottleneckReport report =
        BottleneckReport::from_metrics(run.result.metrics);
    if (report.resources().empty()) continue;
    const ResourceReport& top = report.resources().front();
    std::printf("  %-18s %-14s share=%.3f  resid=%.4f%%\n", run.label,
                top.name.c_str(), top.busy_share(report.elapsed_ns()),
                report.max_littles_residual() * 100.0);
  }

  if (!args.json_path.empty()) write_breakdown_json(args, runs);
  if (!trace_path.empty()) {
    std::vector<ShardTrace> shards;
    for (SystemRun& run : runs)
      shards.push_back({run.label, std::move(run.result.trace_spans),
                        std::move(run.result.timeline)});
    if (!write_chrome_trace(trace_path, shards)) return 1;
    std::printf("chrome trace   : %s\n", trace_path.c_str());
  }

  if (selfcheck) {
    bool ok = true;
    for (const SystemRun& run : runs) {
      std::uint64_t spans = 0;
      for (const LatencyHistogram& h : run.result.stage_latency)
        spans += h.count();
      if (spans == 0) {
        std::fprintf(stderr, "pipette: selfcheck: %s recorded no spans\n",
                     run.label);
        ok = false;
      }
    }
    if (!args.json_path.empty()) ok = selfcheck_json_file(args.json_path) && ok;
    if (!trace_path.empty()) ok = selfcheck_json_file(trace_path) && ok;
    if (!ok) return 1;
    std::printf("selfcheck      : ok\n");
  }
  return 0;
}
