#include "sim/experiment.h"

#include <chrono>
#include <mutex>
#include <vector>

#include "common/assert.h"
#include "common/thread_pool.h"

namespace pipette {

RunResult run_experiment(const MachineConfig& config, Workload& workload,
                         const RunConfig& run) {
  Machine machine(config, workload.files());
  return run_experiment_on(machine, workload, run);
}

RunResult run_experiment_on(Machine& machine, Workload& workload,
                            const RunConfig& run, const RunHooks& hooks,
                            RunArena* arena) {
  const auto host_t0 = std::chrono::steady_clock::now();
  Vfs& vfs = machine.vfs();

  std::vector<int> fds;
  for (const FileSpec& spec : workload.files()) {
    fds.push_back(vfs.open(spec.name, machine.open_flags(/*writable=*/true)));
  }

  std::vector<std::uint8_t> own_buf;
  std::vector<std::uint8_t>& buf = arena != nullptr ? arena->io_buf : own_buf;
  buf.resize(64 * 1024);
  auto issue_direct = [&](const Request& req) {
    PIPETTE_ASSERT(req.len <= buf.size());
    PIPETTE_ASSERT(req.file_index < fds.size());
    const int fd = fds[req.file_index];
    if (req.is_write) {
      vfs.pwrite(fd, req.offset, {buf.data(), req.len});
    } else {
      vfs.pread(fd, req.offset, {buf.data(), req.len});
    }
  };
  RunHooks::IssueFn issue_fn;
  if (hooks.on_request) issue_fn = issue_direct;
  auto issue = [&](const Request& req) {
    if (hooks.on_request && hooks.on_request(req, issue_fn)) return;
    issue_direct(req);
  };

  for (std::uint64_t i = 0; i < run.warmup; ++i) issue(workload.next());

  // Snapshot counters so the result reflects only the measured phase.
  const std::uint64_t traffic0 = machine.io_traffic_bytes();
  const SimTime t0 = machine.sim().now();
  const std::uint64_t reads0 = machine.path().stats().reads;
  const std::uint64_t writes0 = machine.path().stats().writes;
  const std::uint64_t bytes0 = machine.path().stats().bytes_requested;
  const std::uint64_t failed0 = machine.path().stats().failed_reads;
  const std::uint64_t degraded0 = machine.path().stats().degraded_reads;
  const std::uint64_t retries0 = machine.ssd().nand().stats().read_retries;
  RatioCounter pc0, fgrc0;
  if (PageCache* pc = machine.page_cache()) pc0 = pc->stats().lookups;
  if (PipettePath* p = machine.pipette_path())
    fgrc0 = p->fgrc().stats().lookups;
  const LatencyHistogram lat0 = machine.path().stats().read_latency;
  std::vector<LatencyHistogram> stage0;
  if (Tracer* tracer = machine.tracer()) stage0 = tracer->stage_latency();

  // Sim-time series: sampled between requests, so the sampler only reads
  // counters the simulation maintains anyway and never perturbs it.
  TimelineSampler sampler(run.timeline, machine.sim().now());
  const UtilSnapshot u0 = machine.util_snapshot();
  const std::uint64_t gc_moves0 = u0.gc_moves;
  auto hit_ratio_since = [](const RatioCounter& now, const RatioCounter& at) {
    const std::uint64_t accesses = now.accesses() - at.accesses();
    return accesses == 0 ? 0.0
                         : static_cast<double>(now.hits() - at.hits()) /
                               static_cast<double>(accesses);
  };

  for (std::uint64_t i = 0; i < run.requests; ++i) {
    issue(workload.next());
    if (sampler.due(machine.sim().now())) {
      TimeSample sample;
      sample.reads = machine.path().stats().reads - reads0;
      sample.writes = machine.path().stats().writes - writes0;
      sample.traffic_bytes = machine.io_traffic_bytes() - traffic0;
      if (PageCache* pc = machine.page_cache())
        sample.page_cache_hit_ratio = hit_ratio_since(pc->stats().lookups, pc0);
      if (PipettePath* p = machine.pipette_path()) {
        sample.fgrc_hit_ratio = hit_ratio_since(p->fgrc().stats().lookups, fgrc0);
        sample.fgrc_bytes = p->fgrc().memory_bytes();
      }
      // GC/fault activity and utilization accounts, measured-phase deltas
      // (depth fields are instantaneous — no baseline to subtract).
      sample.read_retries =
          machine.ssd().nand().stats().read_retries - retries0;
      sample.degraded_reads =
          machine.path().stats().degraded_reads - degraded0;
      const UtilSnapshot u = machine.util_snapshot();
      sample.gc_moves = u.gc_moves - gc_moves0;
      sample.nand_busy_ns = u.nand_busy_ns - u0.nand_busy_ns;
      sample.interconnect_busy_ns =
          u.interconnect_busy_ns - u0.interconnect_busy_ns;
      sample.gc_busy_ns = u.gc_busy_ns - u0.gc_busy_ns;
      sample.info_ring_depth = u.info_ring_depth;
      sample.nand_queue_depth = u.nand_queue_depth;
      sampler.record(machine.sim().now(), sample);
    }
  }

  RunResult result;
  result.path_name = to_string(machine.kind());
  result.requests = run.requests;
  result.measured_reads = machine.path().stats().reads - reads0;
  result.bytes_requested = machine.path().stats().bytes_requested - bytes0;
  result.elapsed = machine.sim().now() - t0;
  result.traffic_bytes = machine.io_traffic_bytes() - traffic0;
  result.failed_reads = machine.path().stats().failed_reads - failed0;
  result.degraded_reads = machine.path().stats().degraded_reads - degraded0;
  result.retries = machine.ssd().nand().stats().read_retries - retries0;

  // Measured-phase latency distribution: subtract the warmup snapshot
  // bucket-wise, so mean and percentiles all describe exactly the measured
  // requests.
  LatencyHistogram measured = machine.path().stats().read_latency.diff(lat0);
  if (measured.count() > 0) {
    result.mean_latency_us = measured.mean_ns() / 1e3;
    result.p50_latency_us = to_us(measured.percentile(50));
    result.p99_latency_us = to_us(measured.percentile(99));
  }
  result.read_latency = std::move(measured);

  if (PageCache* pc = machine.page_cache()) {
    result.page_cache_hit_ratio = hit_ratio_since(pc->stats().lookups, pc0);
    result.page_cache_bytes = pc->resident_bytes();
  }
  if (PipettePath* p = machine.pipette_path()) {
    result.fgrc_hit_ratio = hit_ratio_since(p->fgrc().stats().lookups, fgrc0);
    result.fgrc_bytes = p->fgrc().memory_bytes();
  }
  result.events_executed = machine.sim().events_executed();
  machine.collect_metrics(result.metrics);
  result.timeline = sampler.take();
  if (Tracer* tracer = machine.tracer()) {
    // Measured-phase stage decomposition: subtract the warmup snapshot
    // bucket-wise, mirroring the read_latency treatment above.
    const std::vector<LatencyHistogram>& now = tracer->stage_latency();
    result.stage_latency.resize(now.size());
    for (std::size_t s = 0; s < now.size(); ++s) {
      result.stage_latency[s] =
          s < stage0.size() ? now[s].diff(stage0[s]) : now[s];
    }
    result.trace_spans = tracer->take_spans();
  }
  result.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0)
          .count();
  return result;
}

std::vector<RunResult> run_experiments_parallel(
    std::vector<ExperimentCell> cells, unsigned jobs,
    const CellDoneFn& on_cell_done) {
  std::vector<RunResult> results(cells.size());
  std::mutex done_mu;
  parallel_for(cells.size(), jobs, [&](std::size_t i) {
    const ExperimentCell& cell = cells[i];
    std::unique_ptr<Workload> workload = cell.make_workload();
    PIPETTE_ASSERT_MSG(workload != nullptr, "cell workload factory failed");
    results[i] = run_experiment(cell.config, *workload, cell.run);
    if (on_cell_done) {
      std::lock_guard<std::mutex> lock(done_mu);
      on_cell_done(i, results[i]);
    }
  });
  return results;
}

double normalized_throughput(const RunResult& result,
                             const RunResult& baseline) {
  PIPETTE_ASSERT(baseline.elapsed > 0 && result.elapsed > 0);
  return result.requests_per_sec() / baseline.requests_per_sec();
}

}  // namespace pipette
