// Fleet scaling: the synthetic mixed workload (Table 1 'C') served by a
// fleet of 1..N sharded machines, for all five systems under both offset
// distributions — plus a cores × shards sweep of host-side throughput.
//
// What to look for:
//  * Fleet throughput grows near-linearly with shard count under the hash
//    partitioner and a uniform distribution (no interference between
//    machines; the fleet makespan is set by the most-loaded shard).
//  * Under zipf the merged p99 and the load-imbalance column show the cost
//    of skew: the hottest shard serves disproportionate traffic, and with
//    --partition range the spatially clustered zipf head lands on one
//    shard, dragging the whole fleet's tail with it.
//  * The cores sweep measures *host* scaling: each shard is one task taken
//    by whichever worker is free, so host events/sec should grow with
//    cores until cores == shards. Every combo is asserted bit-identical to
//    its jobs-1 run — parallelism is never allowed to change results.
//
// Extra flags on top of the common set: --shards N (default: sweep 1,2,4,8),
// --partition hash|range, and --no-cores-sweep to skip the cores × shards
// section. --json writes the BENCH_fleet.json summary (per-cell host_seconds
// and events_executed, plus the cores_sweep section) for perf tracking.
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "fleet/fleet.h"

using namespace pipette;
using namespace pipette::bench;

namespace {

struct FleetCell {
  Distribution dist;
  std::size_t shards;
  PathKind kind;
  FleetResult result;
};

struct CoresCell {
  unsigned cores;
  std::size_t shards;
  FleetResult result;
  bool matches_jobs1 = false;
};

const char* dist_name(Distribution d) {
  return d == Distribution::kUniform ? "uniform" : "zipf";
}

double host_events_per_sec(const FleetResult& r) {
  return r.host_seconds > 0.0
             ? static_cast<double>(r.events_executed) / r.host_seconds
             : 0.0;
}

void write_fleet_json(const BenchArgs& args, PartitionScheme partition,
                      const std::vector<FleetCell>& cells,
                      const std::vector<CoresCell>& cores_cells) {
  if (args.json_path.empty()) return;
  double total_seconds = 0.0;
  std::uint64_t total_events = 0;
  for (const FleetCell& c : cells) {
    total_seconds += c.result.host_seconds;
    total_events += c.result.events_executed;
  }
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "fleet_scaling");
  w.kv("jobs", args.jobs);
  w.kv("partition", to_string(partition));
  w.kv("total_host_seconds", total_seconds, 6);
  w.kv("total_events_executed", total_events);
  w.kv("events_per_sec",
       total_seconds > 0.0 ? static_cast<double>(total_events) / total_seconds
                           : 0.0,
       0);
  w.key("cells");
  w.begin_array();
  for (const FleetCell& c : cells) {
    w.begin_object();
    w.kv("dist", dist_name(c.dist));
    w.kv("shards", c.shards);
    w.kv("system", short_name(c.kind));
    w.kv("fleet_rps", c.result.requests_per_sec(), 0);
    w.kv("p99_us", c.result.p99_latency_us, 6);
    w.kv("load_imbalance", c.result.load_imbalance, 6);
    w.kv("host_seconds", c.result.host_seconds, 6);
    w.kv("events_executed", c.result.events_executed);
    json_metrics(w, "metrics", c.result.metrics);
    w.end_object();
  }
  w.end_array();
  // Host-throughput scaling with worker threads (every combo verified
  // bit-identical to its jobs-1 run before landing here).
  w.key("cores_sweep");
  w.begin_array();
  for (const CoresCell& c : cores_cells) {
    w.begin_object();
    w.kv("cores", c.cores);
    w.kv("shards", c.shards);
    w.kv("host_seconds", c.result.host_seconds, 6);
    w.kv("events_executed", c.result.events_executed);
    w.kv("host_events_per_sec", host_events_per_sec(c.result), 0);
    w.kv("fleet_rps", c.result.requests_per_sec(), 0);
    w.kv("matches_jobs1", c.matches_jobs1);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(args.json_path);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards_flag = 0;  // 0 = sweep
  PartitionScheme partition = PartitionScheme::kHash;
  bool cores_sweep = true;
  const BenchArgs args = BenchArgs::parse(
      argc, argv,
      [&](const char* flag, const BenchArgs::ValueFn& value) {
        if (std::strcmp(flag, "--shards") == 0) {
          shards_flag = std::strtoull(value(), nullptr, 10);
          return true;
        }
        if (std::strcmp(flag, "--partition") == 0) {
          partition = std::strcmp(value(), "range") == 0
                          ? PartitionScheme::kRange
                          : PartitionScheme::kHash;
          return true;
        }
        if (std::strcmp(flag, "--no-cores-sweep") == 0) {
          cores_sweep = false;
          return true;
        }
        return false;
      },
      "  --shards N        fixed shard count (default: sweep 1,2,4,8)\n"
      "  --partition P     hash | range\n"
      "  --no-cores-sweep  skip the cores x shards host-scaling sweep\n");
  const Scale scale = Scale::from_args(args);
  print_header("Fleet scaling — Table 1 'C', sharded fleet", scale);
  std::printf("(partitioner: %s; requests are fleet-wide totals)\n\n",
              to_string(partition));

  const std::vector<std::size_t> shard_counts =
      shards_flag != 0 ? std::vector<std::size_t>{shards_flag}
                       : std::vector<std::size_t>{1, 2, 4, 8};

  auto make_runner = [&](Distribution dist, std::size_t shards, PathKind kind) {
    FleetConfig fleet;
    fleet.shards = shards;
    fleet.partition = partition;
    fleet.machine = default_machine_for(args, kind);
    return FleetRunner(
        fleet,
        [dist](std::uint64_t s) -> std::unique_ptr<Workload> {
          return std::make_unique<SyntheticWorkload>(
              table1_workload('C', dist, s));
        },
        args.seed);
  };

  std::vector<FleetCell> cells;
  for (Distribution dist : {Distribution::kUniform, Distribution::kZipf}) {
    for (std::size_t shards : shard_counts) {
      for (PathKind kind : kAllPaths) {
        FleetRunner runner = make_runner(dist, shards, kind);
        cells.push_back(
            {dist, shards, kind, runner.run(scale.run(), args.jobs)});
        const FleetResult& r = cells.back().result;
        std::fprintf(stderr,
                     "  [%s] %-18s x%zu done (%.2f Mreq/s fleet, p99 %.2f "
                     "us, imb %.2f, %.1fs host)\n",
                     dist_name(dist), short_name(kind), shards,
                     r.requests_per_sec() / 1e6, r.p99_latency_us,
                     r.load_imbalance, r.host_seconds);
      }
    }
  }

  for (Distribution dist : {Distribution::kUniform, Distribution::kZipf}) {
    std::vector<std::string> headers{"System"};
    for (std::size_t shards : shard_counts)
      headers.push_back("x" + std::to_string(shards));
    std::printf("-- %s: fleet throughput (Mreq/s) --\n", dist_name(dist));
    Table rps(headers);
    Table p99(headers);
    Table imb(headers);
    for (PathKind kind : kAllPaths) {
      std::vector<std::string> rps_row{short_name(kind)};
      std::vector<std::string> p99_row{short_name(kind)};
      std::vector<std::string> imb_row{short_name(kind)};
      for (const FleetCell& c : cells) {
        if (c.dist != dist || c.kind != kind) continue;
        rps_row.push_back(Table::fmt(c.result.requests_per_sec() / 1e6, 2));
        p99_row.push_back(Table::fmt(c.result.p99_latency_us, 2));
        imb_row.push_back(Table::fmt(c.result.load_imbalance, 2));
      }
      rps.add_row(std::move(rps_row));
      p99.add_row(std::move(p99_row));
      imb.add_row(std::move(imb_row));
    }
    std::fputs(rps.to_text().c_str(), stdout);
    std::printf("\n-- %s: merged cross-shard p99 (us) --\n", dist_name(dist));
    std::fputs(p99.to_text().c_str(), stdout);
    std::printf("\n-- %s: load imbalance (max/mean shard requests) --\n",
                dist_name(dist));
    std::fputs(imb.to_text().c_str(), stdout);
    std::printf("\n");
    if (!args.csv_path.empty() && dist == Distribution::kUniform)
      rps.write_csv(args.csv_path);
  }

  // Cores × shards: host scaling of one system (Pipette, uniform — the
  // hottest host path) as worker threads grow, shards fixed per column.
  // Each combo is re-run at jobs=1 first and must be bit-identical.
  std::vector<CoresCell> cores_cells;
  if (cores_sweep) {
    // Worker counts are thread counts, not physical cores: sweeping past
    // hardware concurrency still validates determinism and shows
    // the (flat or negative) oversubscription regime on small hosts.
    const std::vector<unsigned> core_counts{1, 2, 4, 8};
    const unsigned hw = ThreadPool::default_threads();
    std::printf("(hardware concurrency: %u)\n", hw);
    std::printf("-- cores x shards: host Mevents/s (Pipette, uniform) --\n");
    std::vector<std::string> headers{"Cores"};
    for (std::size_t shards : shard_counts)
      headers.push_back("x" + std::to_string(shards));
    Table t(headers);
    bool all_match = true;
    for (unsigned cores : core_counts) {
      std::vector<std::string> row{std::to_string(cores)};
      for (std::size_t shards : shard_counts) {
        FleetRunner runner =
            make_runner(Distribution::kUniform, shards, PathKind::kPipette);
        const FleetResult baseline = runner.run(scale.run(), /*jobs=*/1);
        const FleetResult r = cores == 1 ? baseline
                                         : runner.run(scale.run(), cores);
        CoresCell cell{cores, shards, r, deterministic_equal(baseline, r)};
        all_match = all_match && cell.matches_jobs1;
        std::fprintf(stderr,
                     "  [cores] %u core(s) x%zu shards: %.2f Mev/s host%s\n",
                     cores, shards, host_events_per_sec(r) / 1e6,
                     cell.matches_jobs1 ? "" : "  ** MISMATCH vs jobs=1 **");
        row.push_back(Table::fmt(host_events_per_sec(r) / 1e6, 2));
        cores_cells.push_back(std::move(cell));
      }
      t.add_row(std::move(row));
    }
    std::fputs(t.to_text().c_str(), stdout);
    std::printf("\n");
    if (!all_match) {
      std::fprintf(stderr,
                   "pipette: cores sweep diverged from jobs-1 results\n");
      return 1;
    }
  }

  write_fleet_json(args, partition, cells, cores_cells);
  return 0;
}
