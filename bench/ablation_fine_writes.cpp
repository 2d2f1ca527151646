// Ablation A5 (extension): the fine-grained write path (CoinPurse-style)
// against buffered block writes, under the LinkBench mix with writes.
// Measures write latency, read throughput (warm cache preserved by
// in-place updates vs invalidation), and both directions of device traffic.
#include "bench_common.h"
#include "workload/linkbench.h"

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {1'000'000, 2'000'000};
  print_header("Ablation A5 — fine-grained writes vs block writes", scale);

  Table t({"Variant", "ops/s", "mean write us", "FGRC hit %",
           "dev reads MiB", "dev writes MiB", "in-place updates"});
  std::vector<std::string> labels;
  std::vector<RunResult> results;
  for (bool fine_writes : {false, true}) {
    LinkBenchConfig lc;
    lc.seed = args.seed;
    LinkBenchWorkload w(lc);
    MachineConfig config = realapp_machine_for(args, PathKind::kPipette);
    config.pipette.fine_writes = fine_writes;
    Machine machine(config, w.files());

    // Measured-phase values a RunResult does not carry: write latency, and
    // host-to-device bytes from the first measured request on.
    std::uint64_t issued = 0;
    std::uint64_t writes = 0;
    std::uint64_t write_bytes0 = 0;
    SimDuration write_time = 0;
    RunHooks hooks;
    hooks.on_request = [&](const Request& rq, const RunHooks::IssueFn& issue) {
      if (issued++ == scale.warmup)
        write_bytes0 = machine.ssd().stats().bytes_from_host;
      if (issued <= scale.warmup || !rq.is_write) return false;
      const SimTime t0 = machine.sim().now();
      issue(rq);
      write_time += machine.sim().now() - t0;
      ++writes;
      return true;
    };
    const RunResult r = run_experiment_on(machine, w, scale.run(), hooks);
    t.add_row(
        {fine_writes ? "fine writes (extension)" : "block writes (paper)",
         Table::fmt(r.requests_per_sec(), 0),
         Table::fmt(to_us(write_time) / static_cast<double>(writes), 2),
         Table::fmt(r.fgrc_hit_ratio * 100.0, 1),
         Table::fmt(to_mib(r.traffic_bytes), 1),
         Table::fmt(
             to_mib(machine.ssd().stats().bytes_from_host - write_bytes0), 1),
         std::to_string(r.metrics.value("pipette.fgrc_inplace_updates"))});
    labels.push_back(fine_writes ? "fine_writes=on" : "fine_writes=off");
    results.push_back(r);
    std::fprintf(stderr, "  %s done\n", labels.back().c_str());
  }
  emit(t, args);
  write_json_summary(args, "ablation_fine_writes", labels, results);
  return 0;
}
