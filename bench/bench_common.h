// Shared helpers for the experiment benches: workload factories, the one
// cell runner every bench fans out through (run_cells), the Table 1 matrix
// over the five systems, and table/CSV/JSON output.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/json.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"
#include "workload/linkbench.h"
#include "workload/recsys.h"
#include "workload/synthetic.h"

namespace pipette::bench {

/// Paper-scale request counts (§4.2 performs 2.5M reads); --quick and
/// --requests rescale.
struct Scale {
  std::uint64_t requests = 2'500'000;
  std::uint64_t warmup = 1'000'000;

  static Scale from_args(const BenchArgs& args) {
    Scale s;
    if (args.quick) s = {100'000, 50'000};
    if (args.requests != 0) {
      s.requests = args.requests;
      s.warmup = args.requests / 2;
    }
    return s;
  }
  RunConfig run() const { return {requests, warmup}; }
};

/// Apply the fine-path flags (--interconnect, --prefetch, --mu) to a
/// machine config. A no-op when none of the flags was given, so default
/// runs stay bit-identical to history.
inline void apply_fine_path_flags(const BenchArgs& args,
                                  MachineConfig& config) {
  if (args.interconnect == "lmb") config.interconnect = InterconnectKind::kLmb;
  if (args.prefetch) config.prefetch = true;  // Pipette with cache only
  if (args.mapping_unit != 0) config.mapping_unit = args.mapping_unit;
}

/// default_machine / realapp_machine with the fine-path flags applied —
/// what every bench that builds configs by hand should call, so the common
/// flags work uniformly across the suite.
inline MachineConfig default_machine_for(const BenchArgs& args,
                                         PathKind kind) {
  MachineConfig config = default_machine(kind);
  apply_fine_path_flags(args, config);
  return config;
}

inline MachineConfig realapp_machine_for(const BenchArgs& args,
                                         PathKind kind) {
  MachineConfig config = realapp_machine(kind);
  apply_fine_path_flags(args, config);
  return config;
}

/// What ExperimentCell::make_workload holds: builds a cell's fresh,
/// deterministically seeded workload inside the cell's task.
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// A factory for a `W` constructed from copies of `args`.
template <class W, class... Args>
WorkloadFactory factory(Args... args) {
  return [=]() -> std::unique_ptr<Workload> {
    return std::make_unique<W>(args...);
  };
}

/// A Table 1 synthetic workload (`wl` in A..E).
inline WorkloadFactory table1(char wl, Distribution dist, std::uint64_t seed) {
  return factory<SyntheticWorkload>(table1_workload(wl, dist, seed));
}

/// The two real applications of Fig. 1, Fig. 9 and Table 4, in the paper's
/// order.
inline constexpr const char* kRealApps[] = {"Recommender System",
                                            "Social Graph"};

/// Real application `app` (index into kRealApps). The social graph runs
/// LinkBench's read-only mix: the figures report read throughput/traffic,
/// and writes would charge the block paths read-modify-write fetches that
/// the paper's metric excludes.
inline WorkloadFactory realapp_workload(std::size_t app, std::uint64_t seed) {
  RecsysConfig rc;
  rc.seed = seed;
  LinkBenchConfig lc;
  lc.seed = seed;
  lc.read_only = true;
  return app == 0 ? factory<RecsysWorkload>(rc)
                  : factory<LinkBenchWorkload>(lc);
}

/// Run `cells` over `args.jobs` threads (0 = hardware concurrency, 1 =
/// serial) and return their results in cell order, bit-identical at any job
/// count. Prints each cell's done line under `labels[i]` as it finishes and,
/// at the end, host wall-clock against the summed per-cell time.
inline std::vector<RunResult> run_cells(std::vector<ExperimentCell> cells,
                                        const std::vector<std::string>& labels,
                                        const BenchArgs& args) {
  PIPETTE_ASSERT_MSG(labels.size() == cells.size(), "one label per cell");
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<RunResult> results = run_experiments_parallel(
      std::move(cells), args.jobs,
      [&labels](std::size_t i, const RunResult& r) {
        std::fprintf(stderr, "  %-36s done (%s, %.1fs host)\n",
                     labels[i].c_str(), r.read_latency.summary().c_str(),
                     r.host_seconds);
      });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  double cell_seconds = 0.0;
  for (const RunResult& r : results) cell_seconds += r.host_seconds;
  std::fprintf(stderr,
               "  [host] %zu cells in %.1fs wall (%.1fs of cell time, "
               "jobs=%u -> %.1fx)\n",
               results.size(), wall, cell_seconds,
               args.jobs == 0 ? ThreadPool::default_threads() : args.jobs,
               wall > 0.0 ? cell_seconds / wall : 0.0);
  return results;
}

/// Position of `kind` in kAllPaths.
inline std::size_t path_index(PathKind kind) {
  std::size_t k = 0;
  while (kAllPaths[k] != kind) ++k;
  return k;
}

/// The Table 1 matrix of one distribution: workloads A..E x the five
/// systems, workload-major with systems in kAllPaths order.
struct SyntheticMatrix {
  std::vector<std::string> labels;
  std::vector<RunResult> results;

  const RunResult& at(char wl, PathKind kind) const {
    return results[static_cast<std::size_t>(wl - 'A') * std::size(kAllPaths) +
                   path_index(kind)];
  }
};

inline constexpr char kTable1Workloads[] = {'A', 'B', 'C', 'D', 'E'};

/// Run the five systems over the Table 1 synthetic workloads of one
/// distribution as 25 independent cells (see run_cells).
inline SyntheticMatrix run_synthetic_matrix(Distribution dist,
                                            const Scale& scale,
                                            const BenchArgs& args) {
  SyntheticMatrix m;
  std::vector<ExperimentCell> cells;
  for (char wl : kTable1Workloads) {
    for (PathKind kind : kAllPaths) {
      cells.push_back({default_machine_for(args, kind),
                       table1(wl, dist, args.seed), scale.run()});
      m.labels.push_back(std::string(1, wl) + "/" + to_string(kind));
    }
  }
  m.results = run_cells(std::move(cells), m.labels, args);
  return m;
}

/// Render a normalized-throughput table (rows = systems, columns = A..E).
inline Table throughput_table(const SyntheticMatrix& m) {
  Table t({"System", "A", "B", "C", "D", "E"});
  for (PathKind kind : kAllPaths) {
    std::vector<std::string> row{to_string(kind)};
    for (char wl : kTable1Workloads) {
      row.push_back(Table::fmt(
          normalized_throughput(m.at(wl, kind), m.at(wl, PathKind::kBlockIo)),
          2));
    }
    t.add_row(std::move(row));
  }
  return t;
}

/// Render an I/O-traffic table in MiB (the paper's "MB").
inline Table traffic_table(const SyntheticMatrix& m) {
  Table t({"System", "A", "B", "C", "D", "E"});
  for (PathKind kind : kAllPaths) {
    std::vector<std::string> row{to_string(kind)};
    for (char wl : kTable1Workloads)
      row.push_back(Table::fmt(to_mib(m.at(wl, kind).traffic_bytes), 1));
    t.add_row(std::move(row));
  }
  return t;
}

/// Print `t` and, with --csv PATH, write it to PATH. A bench that prints a
/// second table passes `csv_suffix`, which goes in before PATH's extension
/// (`out.csv` -> `out_table2.csv`), so each table keeps its own CSV.
inline void emit(const Table& t, const BenchArgs& args,
                 std::string_view csv_suffix = {}) {
  std::fputs(t.to_text().c_str(), stdout);
  if (args.csv_path.empty()) return;
  std::string path = args.csv_path;
  const std::size_t slash = path.find_last_of('/');
  std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    dot = path.size();
  path.insert(dot, csv_suffix);
  t.write_csv(path);
}

/// Emit a MetricsRegistry as one flat JSON object under `key`.
inline void json_metrics(JsonWriter& w, std::string_view key,
                         const MetricsRegistry& metrics) {
  w.key(key);
  w.begin_object();
  for (const auto& [name, v] : metrics.values()) w.kv(name, v);
  w.end_object();
}

/// Machine-readable run summary (--json): one entry per labelled cell with
/// its host_seconds, events_executed, mean latency and component metrics
/// registry, so host cost is tracked across PRs (see EXPERIMENTS.md
/// "Host-cost tracking").
inline void write_json_summary(const BenchArgs& args, const char* bench,
                               const std::vector<std::string>& labels,
                               const std::vector<RunResult>& results) {
  if (args.json_path.empty()) return;
  PIPETTE_ASSERT_MSG(labels.size() == results.size(), "one label per cell");
  double total_seconds = 0.0;
  std::uint64_t total_events = 0;
  for (const RunResult& r : results) {
    total_seconds += r.host_seconds;
    total_events += r.events_executed;
  }
  JsonWriter w;
  w.begin_object();
  w.kv("bench", bench);
  w.kv("jobs", args.jobs);
  w.kv("total_host_seconds", total_seconds, 6);
  w.kv("total_events_executed", total_events);
  w.kv("events_per_sec",
       total_seconds > 0.0 ? static_cast<double>(total_events) / total_seconds
                           : 0.0,
       0);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    w.begin_object();
    w.kv("cell", labels[i]);
    w.kv("host_seconds", r.host_seconds, 6);
    w.kv("events_executed", r.events_executed);
    w.kv("mean_latency_us", r.mean_latency_us, 6);
    json_metrics(w, "metrics", r.metrics);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(args.json_path);
}

inline void print_header(const char* title, const Scale& scale) {
  std::printf("=== %s ===\n", title);
  std::printf("(requests per run: %llu measured after %llu warmup)\n\n",
              static_cast<unsigned long long>(scale.requests),
              static_cast<unsigned long long>(scale.warmup));
}

}  // namespace pipette::bench
