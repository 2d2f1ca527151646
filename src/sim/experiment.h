// Experiment runner: drives a workload through a machine (warmup phase +
// measured phase) and collects the metrics every table/figure in the paper
// reports — throughput, I/O traffic, latency, cache hit ratios, memory use.
//
// Every cell (one machine + one workload + one run length) is fully
// self-contained and deterministically seeded, so a matrix of cells is
// embarrassingly parallel: run_experiments_parallel() fans cells across a
// thread pool and returns results bit-identical to running them serially.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace pipette {

struct RunConfig {
  std::uint64_t requests = 500'000;  // measured requests
  std::uint64_t warmup = 250'000;    // cache-warming requests (not measured)
  TimelineConfig timeline;           // sim-time series sampling (off = {})
};

struct RunResult {
  std::string path_name;
  std::uint64_t requests = 0;
  std::uint64_t measured_reads = 0;  // read ops in the measured phase
  std::uint64_t bytes_requested = 0;
  SimDuration elapsed = 0;          // simulated time of the measured phase
  std::uint64_t traffic_bytes = 0;  // device->host bytes, measured phase

  double mean_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;

  double page_cache_hit_ratio = 0.0;   // over the measured phase
  double fgrc_hit_ratio = 0.0;         // Pipette kinds only
  std::uint64_t page_cache_bytes = 0;  // resident at end of run
  std::uint64_t fgrc_bytes = 0;        // FGRC memory at end of run

  // Fault-model counters, all over the measured phase. `retries` counts
  // extra NAND sensing passes plus any fleet-level client retries;
  // `down_requests` counts requests that arrived while the owning shard was
  // down (fleet runs only).
  std::uint64_t retries = 0;
  std::uint64_t failed_reads = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t down_requests = 0;

  /// Full measured-phase read-latency distribution (the histogram behind
  /// mean/p50/p99 above). Kept so a fleet of runs can merge distributions
  /// bucket-wise and report true cross-shard percentiles instead of
  /// averaging per-shard percentile readouts.
  LatencyHistogram read_latency;

  /// Simulator events executed over the whole cell (warmup + measurement).
  /// Deterministic; together with host_seconds it tracks the DES core's
  /// events/sec across PRs (see bench/des_microbench).
  std::uint64_t events_executed = 0;

  /// End-of-run component counters/gauges under dotted names (ssd.*,
  /// nand.*, page_cache.*, fgrc.*, ...). Always collected — the registry
  /// reads counters the simulation maintains anyway — so it participates in
  /// Deterministic() and the serial/parallel and tracing-on/off equivalence
  /// guarantees.
  MetricsRegistry metrics;

  /// Measured-phase latency decomposition: one histogram per Stage (indexed
  /// by static_cast<size_t>(Stage)). Empty unless the machine was built with
  /// trace.enabled — tracing changes which histograms are populated but not
  /// the simulation itself, so this is *excluded* from Deterministic().
  std::vector<LatencyHistogram> stage_latency;

  /// Measured-phase sim-time series (empty unless run.timeline.interval > 0).
  /// Excluded from Deterministic(): sampling is a run-level option, not part
  /// of the simulated system.
  std::vector<TimeSample> timeline;

  /// Raw spans drained from the tracer (empty unless tracing was enabled);
  /// feed to chrome_trace_json(). Excluded from Deterministic().
  std::vector<TraceSpan> trace_spans;

  /// Host wall-clock spent simulating this cell (warmup + measurement).
  /// The only nondeterministic field: excluded from serial/parallel
  /// equivalence comparisons.
  double host_seconds = 0.0;

  /// Every deterministic field as one comparable (and gtest-printable)
  /// tuple — host_seconds is wall-clock and deliberately absent.
  /// Equivalence tests assert
  ///   EXPECT_EQ(a.Deterministic(), b.Deterministic())
  /// instead of repeating field-by-field boilerplate that silently rots
  /// when a field is added.
  auto Deterministic() const {
    return std::tie(path_name, requests, measured_reads, bytes_requested,
                    elapsed, traffic_bytes, mean_latency_us, p50_latency_us,
                    p99_latency_us, page_cache_hit_ratio, fgrc_hit_ratio,
                    page_cache_bytes, fgrc_bytes, retries, failed_reads,
                    degraded_reads, down_requests, read_latency,
                    events_executed, metrics);
  }

  /// Fraction of measured reads that returned data (possibly degraded).
  /// 1.0 when no read was attempted.
  double availability() const {
    const std::uint64_t attempted = measured_reads + failed_reads;
    return attempted == 0
               ? 1.0
               : static_cast<double>(measured_reads) /
                     static_cast<double>(attempted);
  }

  double requests_per_sec() const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(requests) /
                              (static_cast<double>(elapsed) / 1e9);
  }
  double throughput_mib_s() const {
    return elapsed == 0
               ? 0.0
               : static_cast<double>(bytes_requested) / (1024.0 * 1024.0) /
                     (static_cast<double>(elapsed) / 1e9);
  }
};

/// Build the machine for `kind`, create the workload's files, run warmup +
/// measurement, and return the measured metrics.
RunResult run_experiment(const MachineConfig& config, Workload& workload,
                         const RunConfig& run);

/// Per-request interception for fault-aware drivers (the fleet's shard
/// outage policies). `on_request` sees every request before it is issued,
/// together with the issuing closure; returning true means the hook consumed
/// (or rejected) the request and the runner must not issue it itself.
struct RunHooks {
  using IssueFn = std::function<void(const Request&)>;
  std::function<bool(const Request&, const IssueFn&)> on_request;
};

/// Caller-owned scratch for a run. Its one field is the request bounce
/// buffer: the run sizes it and passes it to every Vfs call, so a caller
/// that owns the arena (the repo benchmark does) can write a write's payload
/// into `io_buf` before issuing the request and check a read's bytes after
/// it.
struct RunArena {
  std::vector<std::uint8_t> io_buf;
};

/// The same warmup + measurement flow on a caller-owned machine. This is
/// what the fleet layer drives: each fleet machine is its own Machine (and
/// with it a private Simulator) and pushes its sub-stream through it. The
/// machine is expected to be freshly built for `workload.files()`; reusing
/// a machine across runs measures the second run against pre-warmed caches.
/// `hooks.on_request` (when set) wraps every issued request; `arena` (when
/// non-null) supplies the bounce buffer, otherwise the run owns one.
RunResult run_experiment_on(Machine& machine, Workload& workload,
                            const RunConfig& run, const RunHooks& hooks = {},
                            RunArena* arena = nullptr);

/// One independent cell of an experiment matrix. The workload is constructed
/// *inside* the task (each cell gets a fresh, deterministically seeded
/// stream), which is what makes parallel and serial execution bit-identical.
struct ExperimentCell {
  MachineConfig config;
  std::function<std::unique_ptr<Workload>()> make_workload;
  RunConfig run;
};

/// Called (serialised) as each cell finishes: (cell index, its result).
/// Completion order is nondeterministic with jobs > 1; results are not.
using CellDoneFn = std::function<void(std::size_t, const RunResult&)>;

/// Run every cell and return results in cell order. `jobs` = worker threads
/// (0 = hardware concurrency, 1 = serial on the calling thread; see
/// parallel_for). Results are bit-identical to the serial runner at any job
/// count, except RunResult::host_seconds.
std::vector<RunResult> run_experiments_parallel(
    std::vector<ExperimentCell> cells, unsigned jobs = 0,
    const CellDoneFn& on_cell_done = nullptr);

/// Normalised throughput: each result's requests/sec over the baseline's.
double normalized_throughput(const RunResult& result,
                             const RunResult& baseline);

}  // namespace pipette
