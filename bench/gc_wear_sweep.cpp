// GC x wear sweep (extension): sub-page FTL mapping units under a
// write-heavy fine-grained mix.
//
// Runs the Pipette path (fine writes on) over the MU {4096, 2048, 1024,
// 512} x write-ratio {0.05, 0.2, 0.5} matrix on a small drive at 50%
// utilisation, so garbage collection runs inside the bench budget.
//
// Every write is a 512 B rewrite of a Zipf(0.9)-popular slot whose rank is
// hashed onto the file, scattering the hot slots across pages and blocks.
// Each cell also runs spp x the base request count, so every cell programs
// the same page volume (see the per-cell scaling below). This is the shape
// that isolates the mapping-unit trade:
//
//  * At MU = page a 512 B write is a device read-modify-write that
//    replaces — and so fully invalidates — the old page. Hot pages churn
//    whole, victim blocks decay toward empty, and greedy GC stays cheap.
//  * At sub-page MUs the write invalidates only its own MU. The skewed
//    mix leaves every hot MU's page carrying cooler sibling MUs that die
//    far more slowly, so steady-state victim liveness is higher and GC
//    must drag the stranded siblings along. write_amplification
//    (programmed MUs per host MU, see FtlStats) therefore rises as the
//    mapping unit shrinks — the cost the sweep quantifies against the
//    fine-read benefit of small units.
//
// Two shapes that would NOT show this, and that the hashing avoids:
// a uniform all-slots mix (every sibling then dies at the same rate, and
// greedy-GC amplification under uniform unit writes is a function of
// over-provisioning alone, flat in MU) and an unhashed Zipf mix (rank ==
// slot clusters the hot MUs into a few pure-hot blocks that greedy GC
// collects cheaply, while MU=page pays the full RMW space inflation).
//
// One extra cell re-runs the most write-heavy MU=512 cell with the
// erase-correlated read-error model enabled, reporting per-die erase
// spread and the retries the wear window injects.
//
// Extra flags on top of the common set:
//   --selfcheck   assert the acceptance properties (GC ran on the
//                 write-heavy column, write_amplification strictly
//                 increases as the MU shrinks there, the wear cell
//                 retries and zero-wear cells do not) and exit nonzero
//                 on violation (used by the gc_smoke ctest).
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "workload/zipf_slot.h"

using namespace pipette;
using namespace pipette::bench;

namespace {

struct CellSpec {
  std::uint32_t mu;
  double write_ratio;
  bool wear;
};

// Small drive: 8 dies x 16 blocks x 32 pages (16 MiB) at 50% utilisation.
// The moderate utilisation keeps the page-churn baseline WA low so the
// cold-sibling pinning at sub-page MUs stands out, and the tiny geometry
// brings GC onset inside the smoke budget even at MU=512, where sub-page
// writes consume free space 8x slower than at MU=page. Host caches are
// sized well below the 8 MiB file so reads keep hitting the device and
// buffered full-page evictions flush promptly.
MachineConfig gc_machine(const BenchArgs& args, const CellSpec& spec) {
  MachineConfig c = default_machine_for(args, PathKind::kPipette);
  c.ssd.geometry.channels = 4;
  c.ssd.geometry.ways_per_channel = 2;
  c.ssd.geometry.planes_per_die = 1;
  c.ssd.geometry.blocks_per_plane = 16;
  c.ssd.geometry.pages_per_block = 32;
  c.ssd.lba_count = c.ssd.geometry.total_pages() / 2;
  c.ssd.read_buffer_bytes = 2 * kMiB;
  c.page_cache_bytes = 1 * kMiB;  // small host caches: reads hit the device
  c.ssd.hmb.data_bytes = 1 * kMiB;
  c.pipette.fine_writes = true;
  c.mapping_unit = spec.mu;  // per-cell; the sweep overrides --mu
  if (spec.wear) {
    // Erase-correlated read errors: retry probability grows with the die's
    // erase count and bursts right after each erase (see faults.h).
    c.ssd.faults.nand.wear_error_per_erase = 1e-4;
  }
  return c;
}

double wa_of(const RunResult& r) {
  return static_cast<double>(r.metrics.value("ftl.write_amp_x1000")) / 1000.0;
}

void write_gc_json(const BenchArgs& args, const std::vector<CellSpec>& specs,
                   const std::vector<RunResult>& results) {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "gc_wear_sweep");
  w.kv("jobs", args.jobs);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = results[i];
    w.begin_object();
    w.kv("mapping_unit", specs[i].mu);
    w.kv("write_ratio", specs[i].write_ratio, 2);
    w.kv("wear", specs[i].wear);
    w.kv("requests", r.requests);
    w.kv("p50_latency_us", r.p50_latency_us, 6);
    w.kv("p99_latency_us", r.p99_latency_us, 6);
    w.kv("mean_latency_us", r.mean_latency_us, 6);
    w.kv("write_amplification", wa_of(r), 3);
    w.kv("retries", r.retries);
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
      "  --selfcheck  assert GC ran, WA grows as the MU shrinks on the\n"
      "               write-heavy column, and only the wear cell retries\n");
  Scale scale = Scale::from_args(args);
  // Per-cell requests are further scaled by spp (see below), so the base
  // scale stays modest; --requests raises it for deeper steady state.
  if (args.requests == 0 && !args.quick) scale = {50'000, 25'000};
  print_header("GC x wear sweep — FTL mapping unit under fine writes", scale);

  constexpr std::uint32_t kMus[] = {4096, 2048, 1024, 512};
  constexpr double kWriteRatios[] = {0.05, 0.2, 0.5};
  constexpr double kHeavy = 0.5;
  std::vector<CellSpec> specs;
  for (std::uint32_t mu : kMus)
    for (double wr : kWriteRatios) specs.push_back({mu, wr, false});
  specs.push_back({512, kHeavy, true});  // wear-model demonstration cell

  // The file covers the whole allocatable LBA space (lba_count minus the
  // file system's 64 reserved metadata LBAs), so every block is
  // overwrite-hot and no cold region distorts victim selection.
  const ControllerConfig probe = gc_machine(args, specs[0]).ssd;
  const std::uint64_t file_size = (probe.lba_count - 64) * kBlockSize;

  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (const CellSpec& spec : specs) {
    const double wr = spec.write_ratio;
    const std::uint64_t seed = args.seed;
    // Equal device work per cell, not equal requests: a 512 B write
    // consumes a full page at MU=page (read-modify-write) but only
    // 1/spp of a page at sub-page MUs, so at a fixed request count the
    // small-MU cells would still be inside the GC warm-up transient
    // while MU=page is deep in steady state. Scaling requests by spp
    // programs the same page volume everywhere, and the WA column then
    // compares steady-state victim liveness directly.
    RunConfig run = scale.run();
    const std::uint64_t spp = kBlockSize / spec.mu;
    run.requests *= spp;
    run.warmup *= spp;
    cells.push_back({gc_machine(args, spec),
                     factory<ZipfSlotWorkload>(file_size, wr, seed), run});
    char label[48];
    std::snprintf(label, sizeof(label), "mu=%u wr=%.2f wear=%s", spec.mu,
                  spec.write_ratio, spec.wear ? "on" : "off");
    labels.push_back(label);
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  Table t({"MU", "write%", "wear", "p50 us", "p99 us", "WA", "GC runs",
           "reloc MUs", "erases", "die spread", "retries"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = results[i];
    const std::uint64_t max_e = r.metrics.value("ftl.wear_max_die_erases");
    const std::uint64_t min_e = r.metrics.value("ftl.wear_min_die_erases");
    t.add_row({std::to_string(specs[i].mu),
               Table::fmt(specs[i].write_ratio * 100.0, 0),
               specs[i].wear ? "on" : "off", Table::fmt(r.p50_latency_us, 2),
               Table::fmt(r.p99_latency_us, 2), Table::fmt(wa_of(r), 3),
               std::to_string(r.metrics.value("ftl.gc_collections")),
               std::to_string(r.metrics.value("ftl.gc_relocated_mus")),
               std::to_string(r.metrics.value("ftl.wear_blocks_erased")),
               std::to_string(max_e - min_e), std::to_string(r.retries)});
  }
  emit(t, args);
  if (!args.json_path.empty()) write_gc_json(args, specs, results);

  if (selfcheck) {
    bool ok = true;
    auto cell = [&](std::uint32_t mu, double wr, bool wear) -> const RunResult& {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].mu == mu && specs[i].write_ratio == wr &&
            specs[i].wear == wear)
          return results[i];
      }
      PIPETTE_ASSERT_MSG(false, "cell missing from matrix");
      return results[0];
    };
    // (a) The write-heavy column actually collected garbage at every MU.
    for (std::uint32_t mu : kMus) {
      if (cell(mu, kHeavy, false).metrics.value("ftl.gc_collections") == 0) {
        std::fprintf(stderr,
                     "pipette: selfcheck: no GC at mu=%u on the write-heavy "
                     "column\n",
                     mu);
        ok = false;
      }
    }
    // (b) Write amplification strictly increases as the MU shrinks there.
    for (std::size_t i = 1; i < std::size(kMus); ++i) {
      const std::uint64_t coarse = cell(kMus[i - 1], kHeavy, false)
                                       .metrics.value("ftl.write_amp_x1000");
      const std::uint64_t fine =
          cell(kMus[i], kHeavy, false).metrics.value("ftl.write_amp_x1000");
      if (fine <= coarse) {
        std::fprintf(stderr,
                     "pipette: selfcheck: WA not strictly increasing as MU "
                     "shrinks (mu=%u WA=%.3f vs mu=%u WA=%.3f)\n",
                     kMus[i], fine / 1000.0, kMus[i - 1], coarse / 1000.0);
        ok = false;
      }
    }
    // (c) Only the wear cell injects retries.
    const RunResult& wear = cell(512, kHeavy, true);
    if (wear.retries == 0) {
      std::fprintf(stderr,
                   "pipette: selfcheck: wear cell produced no retries "
                   "(erases max=%llu)\n",
                   static_cast<unsigned long long>(
                       wear.metrics.value("ftl.wear_max_die_erases")));
      ok = false;
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!specs[i].wear && results[i].retries != 0) {
        std::fprintf(stderr,
                     "pipette: selfcheck: zero-wear cell mu=%u wr=%.2f "
                     "retried %llu times\n",
                     specs[i].mu, specs[i].write_ratio,
                     static_cast<unsigned long long>(results[i].retries));
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("selfcheck      : ok\n");
  }
  return 0;
}
