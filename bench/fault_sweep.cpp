// Fault sweep: the five systems under increasing device fault rates.
//
// Each column injects a per-sensing-pass NAND read error rate r, an HMB DMA
// fault rate r on the fine-grained engine, and a lost-completion rate r/10,
// over the mixed synthetic workload (Table 1 'C', uniform offsets).
//
// What to look for:
//  * Availability: the block path loses exactly the terminal-ECC-failure
//    fraction; Pipette additionally rides out every HMB fault by degrading
//    to the block route, so its availability matches block I/O while its
//    degraded-read column grows with r.
//  * Mean latency: retry backoff and degraded (double-trip) reads thicken
//    the tail well before availability visibly moves — the usual fleet
//    early-warning signal.
//  * The zero-rate column is the control: it must match the fault-free
//    benches bit for bit (the golden-trace test pins the same property).
//
// The whole matrix also asserts the allocation-free hot path: if any
// fault-path callback outgrows its InlineFunction inline buffer the bench
// exits nonzero, which `ctest` (fault_smoke) turns into a failure.
#include <cinttypes>
#include <vector>

#include "bench_common.h"
#include "common/inline_function.h"

using namespace pipette;
using namespace pipette::bench;

namespace {

constexpr double kRates[] = {0.0, 1e-4, 1e-3, 1e-2};

struct FaultCell {
  double rate;
  PathKind kind;
  RunResult result;
};

MachineConfig faulty_machine(const BenchArgs& args, PathKind kind,
                             double rate) {
  MachineConfig m = default_machine_for(args, kind);
  m.ssd.faults.nand.read_error_rate = rate;
  m.ssd.faults.hmb.dma_fault_rate = rate;
  m.ssd.faults.hmb.drop_rate = rate / 10.0;
  return m;
}

void write_fault_json(const BenchArgs& args,
                      const std::vector<FaultCell>& cells) {
  if (args.json_path.empty()) return;
  double total_seconds = 0.0;
  std::uint64_t total_events = 0;
  for (const FaultCell& c : cells) {
    total_seconds += c.result.host_seconds;
    total_events += c.result.events_executed;
  }
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "fault_sweep");
  w.kv("jobs", args.jobs);
  w.kv("total_host_seconds", total_seconds, 6);
  w.kv("total_events_executed", total_events);
  w.kv("events_per_sec",
       total_seconds > 0.0 ? static_cast<double>(total_events) / total_seconds
                           : 0.0,
       0);
  w.key("cells");
  w.begin_array();
  for (const FaultCell& c : cells) {
    w.begin_object();
    w.kv("rate", c.rate, 10);
    w.kv("system", to_string(c.kind));
    w.kv("availability", c.result.availability(), 6);
    w.kv("retries", c.result.retries);
    w.kv("failed_reads", c.result.failed_reads);
    w.kv("degraded_reads", c.result.degraded_reads);
    w.kv("mean_latency_us", c.result.mean_latency_us, 6);
    w.kv("p99_latency_us", c.result.p99_latency_us, 6);
    w.kv("host_seconds", c.result.host_seconds, 6);
    w.kv("events_executed", c.result.events_executed);
    json_metrics(w, "metrics", c.result.metrics);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(args.json_path);
}

std::string rate_label(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r=%g", rate);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Scale scale = Scale::from_args(args);
  print_header("Fault sweep — Table 1 'C', device fault rates", scale);
  std::printf(
      "(per cell: NAND read-error rate r, HMB DMA-fault rate r, "
      "completion-drop rate r/10)\n\n");

  const std::uint64_t heap0 = inline_function_heap_allocations();

  std::vector<ExperimentCell> cells;
  std::vector<FaultCell> fault_cells;
  std::vector<std::string> labels;
  for (double rate : kRates) {
    for (PathKind kind : kAllPaths) {
      cells.push_back({faulty_machine(args, kind, rate),
                       table1('C', Distribution::kUniform, args.seed),
                       scale.run()});
      fault_cells.push_back({rate, kind, {}});
      labels.push_back(rate_label(rate) + "/" + to_string(kind));
    }
  }

  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);
  for (std::size_t i = 0; i < results.size(); ++i)
    fault_cells[i].result = results[i];

  std::vector<std::string> headers{"System"};
  for (double rate : kRates) headers.push_back(rate_label(rate));

  Table avail(headers);
  Table latency(headers);
  Table degraded(headers);
  for (PathKind kind : kAllPaths) {
    std::vector<std::string> avail_row{to_string(kind)};
    std::vector<std::string> lat_row{to_string(kind)};
    std::vector<std::string> deg_row{to_string(kind)};
    for (const FaultCell& c : fault_cells) {
      if (c.kind != kind) continue;
      avail_row.push_back(Table::fmt(c.result.availability() * 100.0, 4));
      lat_row.push_back(Table::fmt(c.result.mean_latency_us, 2));
      deg_row.push_back(std::to_string(c.result.degraded_reads));
    }
    avail.add_row(std::move(avail_row));
    latency.add_row(std::move(lat_row));
    degraded.add_row(std::move(deg_row));
  }

  std::printf("-- availability (%% of measured reads served) --\n");
  emit(avail, args);
  std::printf("\n-- mean read latency (us) --\n");
  std::fputs(latency.to_text().c_str(), stdout);
  std::printf("\n-- degraded reads (served via block-path fallback) --\n");
  std::fputs(degraded.to_text().c_str(), stdout);

  write_fault_json(args, fault_cells);

  const std::uint64_t heap_delta =
      inline_function_heap_allocations() - heap0;
  if (heap_delta != 0) {
    std::fprintf(stderr,
                 "fault_sweep: %" PRIu64
                 " InlineFunction heap fallbacks — a fault-path callback "
                 "outgrew its inline buffer\n",
                 heap_delta);
    return 1;
  }
  return 0;
}
