// Microbenchmark of the discrete-event core: raw events/sec through the
// Simulator, plus the host cost of one fixed fig6-style experiment cell.
//
// Measurements, all written to BENCH_des.json (override with --json) so the
// DES hot-loop's throughput is tracked across PRs:
//  1. "uniform_ticks": lanes of self-rescheduling tick events with co-prime
//     periods — the pure schedule/pop/dispatch loop with realistic queue
//     occupancy and small captures that must stay inside the callback's
//     inline buffer (the bench asserts zero heap fallbacks).
//  2. "clustered": lanes sharing a handful of fixed latency-like periods
//     (a few hundred ns .. tens of us), the shape the SSD model actually
//     produces — many events land on identical timestamps, so ties are
//     broken by seq on almost every pop.
//  3. "cell": one Pipette / workload-E / uniform cell at a fixed request
//     count — the end-to-end host_seconds and events_executed the paper
//     benches actually pay per matrix cell.
//
// Before any timing, an order selfcheck runs one pseudo-random event script
// (zero deltas, clustered deltas, far-future deltas, pushes from inside
// callbacks) through a Simulator and requires the executed (when, id) pairs
// to rise strictly — an event's id is its schedule order — with every
// scheduled event run. A violation — or any InlineFunction heap fallback —
// makes the bench exit nonzero, which the perf_smoke ctest turns into a
// failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/inline_function.h"

namespace {

using namespace pipette;

// One lane of the raw microbench: an event that re-arms itself until its
// budget runs out. Capturing [this] keeps the closure at pointer size.
struct Ticker {
  Simulator* sim;
  std::uint64_t remaining = 0;
  SimDuration period = 0;

  void arm() {
    if (remaining == 0) return;
    --remaining;
    sim->schedule(period, [this] { arm(); });
  }
};

struct RawResult {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t heap_fallbacks = 0;
  std::size_t peak_queue_size = 0;
};

// The two raw workload shapes. `clustered` uses a handful of shared
// latency-like periods, so each timestamp hosts a run of ~16 events: the
// densest tie pattern the core sees, denser than the SSD model's traffic.
constexpr SimDuration kClusteredPeriods[] = {480, 3'200, 20'000, 65'000};

RawResult measure_raw(bool clustered, std::uint64_t total_events) {
  constexpr std::uint32_t kLanes = 64;
  Simulator sim;
  std::vector<Ticker> lanes(kLanes);
  for (std::uint32_t i = 0; i < kLanes; ++i) {
    lanes[i].sim = &sim;
    lanes[i].remaining = total_events / kLanes;
    // Uniform: co-prime-ish periods give the queue a realistic mix of
    // orderings (with duplicate timestamps sprinkled in).
    lanes[i].period = clustered ? kClusteredPeriods[i % 4] : 1 + (i % 7);
  }
  const std::uint64_t heap0 = inline_function_heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  for (Ticker& lane : lanes) lane.arm();
  sim.run_all();
  RawResult r;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.events = sim.events_executed();
  r.events_per_sec =
      r.seconds > 0.0 ? static_cast<double>(r.events) / r.seconds : 0.0;
  r.heap_fallbacks = inline_function_heap_allocations() - heap0;
  r.peak_queue_size = sim.queue_peak_size();
  return r;
}

// Order check: one deterministic pseudo-random script of self-propagating
// events. Each executed event appends (now, id) to the trace; callbacks push
// 0..2 children with deltas spanning zero (same-timestamp runs), small
// clustered values, and far-future jumps. Ids are handed out in schedule
// order, so the drain contract says the trace must rise strictly.
struct ScriptState {
  Simulator* sim;
  std::vector<std::pair<SimTime, std::uint64_t>>* trace;
  std::uint64_t rng;
  std::uint64_t next_id = 0;
  std::uint64_t budget = 0;

  std::uint64_t rand() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  }

  void spawn() {
    const std::uint64_t id = next_id++;
    static constexpr SimDuration kDeltas[] = {0,      0,         1,
                                              480,    3'200,     65'000,
                                              99'999, 20'000'000, 40'000'000};
    const SimDuration delta = kDeltas[rand() % (sizeof kDeltas /
                                                sizeof kDeltas[0])];
    sim->schedule(delta, [this, id] {
      trace->emplace_back(sim->now(), id);
      if (budget == 0) return;
      const std::uint64_t kids = rand() % 3;
      for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
        --budget;
        spawn();
      }
    });
  }
};

bool selfcheck_order(std::uint64_t events) {
  std::vector<std::pair<SimTime, std::uint64_t>> trace;
  Simulator sim;
  ScriptState s{&sim, &trace, /*rng=*/0x9e3779b97f4a7c15ull, 0, events};
  for (int seedlings = 0; seedlings < 64 && s.budget > 0; ++seedlings) {
    --s.budget;
    s.spawn();
  }
  sim.run_all();
  if (trace.size() != s.next_id) {
    std::fprintf(stderr, "pipette: %zu of %llu scheduled events ran\n",
                 trace.size(), static_cast<unsigned long long>(s.next_id));
    return false;
  }
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i - 1] < trace[i]) continue;
    std::fprintf(stderr,
                 "pipette: drain order VIOLATED at %zu: t=%llu id=%llu ran "
                 "after t=%llu id=%llu\n",
                 i, static_cast<unsigned long long>(trace[i].first),
                 static_cast<unsigned long long>(trace[i].second),
                 static_cast<unsigned long long>(trace[i - 1].first),
                 static_cast<unsigned long long>(trace[i - 1].second));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);

  std::uint64_t raw_events = 2'000'000;
  if (args.quick) raw_events = 200'000;
  if (args.requests != 0) raw_events = args.requests;

  std::printf("=== DES microbench — event core throughput ===\n");

  const bool order_ok = selfcheck_order(std::min<std::uint64_t>(
      raw_events, 200'000));
  std::printf("order selfcheck: %s (randomized script)\n",
              order_ok ? "ok" : "FAILED");

  struct Variant {
    const char* workload;
    RawResult result;
  };
  std::vector<Variant> variants;
  std::uint64_t total_fallbacks = 0;
  for (bool clustered : {false, true}) {
    const char* workload = clustered ? "clustered" : "uniform_ticks";
    RawResult r = measure_raw(clustered, raw_events);
    total_fallbacks += r.heap_fallbacks;
    std::printf(
        "raw            : %-13s %llu events in %.3fs -> %.0f events/sec "
        "(peak queue %zu, %llu heap-fallback cbs)\n",
        workload, static_cast<unsigned long long>(r.events), r.seconds,
        r.events_per_sec, r.peak_queue_size,
        static_cast<unsigned long long>(r.heap_fallbacks));
    variants.push_back({workload, r});
  }
  if (total_fallbacks != 0) {
    std::fprintf(stderr,
                 "pipette: WARNING — raw loop callbacks fell back to the "
                 "heap; the SBO regressed\n");
  }

  // Fixed cell (never rescaled by --quick/--requests: the point is a number
  // comparable across PRs).
  SyntheticConfig sc = table1_workload('E', Distribution::kUniform, 42);
  sc.file_size = 8 * kMiB;
  SyntheticWorkload workload(sc);
  const RunConfig run{20'000, 10'000};
  const RunResult cell = run_experiment(
      default_machine_for(args, PathKind::kPipette), workload, run);
  const double cell_events_per_sec =
      cell.host_seconds > 0.0
          ? static_cast<double>(cell.events_executed) / cell.host_seconds
          : 0.0;
  std::printf(
      "fixed cell     : Pipette/E/uniform, %llu+%llu requests -> "
      "%.3fs host, %llu events (%.0f events/sec)\n",
      static_cast<unsigned long long>(run.requests),
      static_cast<unsigned long long>(run.warmup), cell.host_seconds,
      static_cast<unsigned long long>(cell.events_executed),
      cell_events_per_sec);

  const std::string json_path =
      args.json_path.empty() ? "BENCH_des.json" : args.json_path;
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "des_microbench");
  w.kv("raw_events", raw_events);
  w.kv("order_selfcheck_ok", order_ok);
  w.key("variants");
  w.begin_array();
  for (const Variant& v : variants) {
    w.begin_object();
    w.kv("workload", v.workload);
    w.kv("events", v.result.events);
    w.kv("host_seconds", v.result.seconds, 6);
    w.kv("events_per_sec", v.result.events_per_sec, 0);
    w.kv("peak_queue_size", v.result.peak_queue_size);
    w.kv("heap_fallback_callbacks", v.result.heap_fallbacks);
    w.end_object();
  }
  w.end_array();
  w.key("cell");
  w.begin_object();
  w.kv("system", "Pipette");
  w.kv("workload", "E");
  w.kv("requests", run.requests);
  w.kv("warmup", run.warmup);
  w.kv("host_seconds", cell.host_seconds, 6);
  w.kv("events_executed", cell.events_executed);
  w.kv("events_per_sec", cell_events_per_sec, 0);
  json_metrics(w, "metrics", cell.metrics);
  w.end_object();
  w.end_object();
  if (!w.write_file(json_path)) return 1;
  std::printf("summary        : %s\n", json_path.c_str());
  return (total_fallbacks == 0 && order_ok) ? 0 : 1;
}
