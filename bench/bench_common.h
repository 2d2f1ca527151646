// Shared helpers for the experiment benches: run matrices over the five
// systems, and table rendering with the paper's reference numbers alongside.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"
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

inline const char* short_name(PathKind kind) {
  switch (kind) {
    case PathKind::kBlockIo:
      return "Block I/O";
    case PathKind::kTwoBMmio:
      return "2B-SSD MMIO";
    case PathKind::kTwoBDma:
      return "2B-SSD DMA";
    case PathKind::kPipetteNoCache:
      return "Pipette w/o cache";
    case PathKind::kPipette:
      return "Pipette";
  }
  return "?";
}

/// Results of one workload column across all five systems.
using Column = std::map<PathKind, RunResult>;

/// Run the five systems over the Table 1 synthetic workloads of one
/// distribution, fanning the 25 independent cells over `args.jobs` threads
/// (0 = hardware concurrency, 1 = serial). Each cell constructs its own
/// deterministically seeded workload, so the matrix is bit-identical at any
/// job count. `make_machine` lets ablations tweak configs per kind.
/// Prints an end-of-matrix summary of host wall-clock vs per-cell CPU time.
inline std::map<char, Column> run_synthetic_matrix(
    Distribution dist, const Scale& scale, const BenchArgs& args,
    const std::function<MachineConfig(PathKind)>& make_machine =
        [](PathKind k) { return default_machine(k); }) {
  const std::uint64_t seed = args.seed;
  const unsigned jobs = args.jobs;
  std::vector<ExperimentCell> cells;
  std::vector<std::pair<char, PathKind>> labels;
  for (char wl : {'A', 'B', 'C', 'D', 'E'}) {
    for (PathKind kind : kAllPaths) {
      MachineConfig config = make_machine(kind);
      apply_fine_path_flags(args, config);
      cells.push_back({std::move(config),
                       [wl, dist, seed]() -> std::unique_ptr<Workload> {
                         return std::make_unique<SyntheticWorkload>(
                             table1_workload(wl, dist, seed));
                       },
                       scale.run()});
      labels.emplace_back(wl, kind);
    }
  }

  const auto wall0 = std::chrono::steady_clock::now();
  const std::vector<RunResult> results = run_experiments_parallel(
      std::move(cells), jobs,
      [&labels](std::size_t i, const RunResult& r) {
        std::fprintf(stderr, "  [%c] %-18s done (%s, %.1fs host)\n",
                     labels[i].first, short_name(labels[i].second),
                     r.read_latency.summary().c_str(), r.host_seconds);
      });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();

  std::map<char, Column> out;
  double cell_seconds = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    out[labels[i].first][labels[i].second] = results[i];
    cell_seconds += results[i].host_seconds;
  }
  std::fprintf(stderr,
               "  [host] %zu cells in %.1fs wall (%.1fs of cell time, "
               "jobs=%u -> %.1fx)\n",
               results.size(), wall, cell_seconds,
               jobs == 0 ? ThreadPool::default_threads() : jobs,
               wall > 0.0 ? cell_seconds / wall : 0.0);
  return out;
}

/// Render a normalized-throughput table (rows = systems, columns = A..E).
inline Table throughput_table(const std::map<char, Column>& matrix) {
  Table t({"System", "A", "B", "C", "D", "E"});
  for (PathKind kind : kAllPaths) {
    std::vector<std::string> row{short_name(kind)};
    for (const auto& [wl, column] : matrix) {
      const double norm = normalized_throughput(
          column.at(kind), column.at(PathKind::kBlockIo));
      row.push_back(Table::fmt(norm, 2));
    }
    t.add_row(std::move(row));
  }
  return t;
}

/// Render an I/O-traffic table in MiB (the paper's "MB").
inline Table traffic_table(const std::map<char, Column>& matrix) {
  Table t({"System", "A", "B", "C", "D", "E"});
  for (PathKind kind : kAllPaths) {
    std::vector<std::string> row{short_name(kind)};
    for (const auto& [wl, column] : matrix) {
      row.push_back(Table::fmt(to_mib(column.at(kind).traffic_bytes), 1));
    }
    t.add_row(std::move(row));
  }
  return t;
}

inline void emit(const Table& t, const BenchArgs& args) {
  std::fputs(t.to_text().c_str(), stdout);
  if (!args.csv_path.empty()) t.write_csv(args.csv_path);
}

/// Emit a MetricsRegistry as one flat JSON object under `key`.
inline void json_metrics(JsonWriter& w, std::string_view key,
                         const MetricsRegistry& metrics) {
  w.key(key);
  w.begin_object();
  for (const auto& [name, v] : metrics.values()) w.kv(name, v);
  w.end_object();
}

/// Machine-readable run summary (--json): per-cell host_seconds,
/// events_executed and the component metrics registry, so the DES core's
/// throughput is tracked across PRs (see EXPERIMENTS.md "Host-cost
/// tracking").
inline void write_json_summary(const BenchArgs& args, const char* bench,
                               const std::map<char, Column>& matrix) {
  if (args.json_path.empty()) return;
  double total_seconds = 0.0;
  std::uint64_t total_events = 0;
  for (const auto& [wl, column] : matrix) {
    for (const auto& [kind, r] : column) {
      total_seconds += r.host_seconds;
      total_events += r.events_executed;
    }
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
  for (const auto& [wl, column] : matrix) {
    for (const auto& [kind, r] : column) {
      w.begin_object();
      w.kv("workload", std::string(1, wl));
      w.kv("system", short_name(kind));
      w.kv("host_seconds", r.host_seconds, 6);
      w.kv("events_executed", r.events_executed);
      w.kv("mean_latency_us", r.mean_latency_us, 6);
      json_metrics(w, "metrics", r.metrics);
      w.end_object();
    }
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
