// Bottleneck attribution report (extension): three cells engineered so a
// different resource tops the utilization ranking in each, demonstrating
// that the busy/queueing accounts (obs/util.h) attribute time where it
// actually goes as the workload shifts the constraint:
//
//  * die-bound   — Block I/O, uniform page-aligned 4 KiB reads over a file
//                  far larger than the page cache. Nearly every read pays
//                  the NAND sense (~65 us TLC) while the PCIe transfer is
//                  ~2 us, so nand_die dominates elapsed time.
//  * link-bound  — Pipette + prefetch on the CXL-linked buffer (LMB), a
//                  strided byte stream over a file small enough to stay
//                  resident in the device read buffer but a fine-grained
//                  cache too small to hold the stream host-side: after the
//                  first pass NAND is idle and every demanded byte crosses
//                  the dedicated link, so lmb_link tops the ranking.
//  * gc-bound    — the gc_wear drive at 85% logical occupancy under a 50%
//                  write mix of sub-page (MU=512) rewrites: write
//                  amplification ~3 makes the GC-attributed NAND time
//                  (relocation reads + re-pack programs) the largest
//                  account, ahead of the host's own die time.
//
// Each cell prints the full BottleneckReport table (busy share, per-unit
// utilization, mean depth/wait, Little's-law residual). The residual is a
// self-test of the accounting itself: busy+wait and the depth integral are
// the same quantity computed through independent code paths, so a nonzero
// residual means broken bookkeeping, not an interesting model effect.
//
// Extra flags on top of the common set:
//   --selfcheck   assert the expected top-ranked resource per cell and a
//                 Little's-law residual < 5% everywhere (bottleneck_smoke).
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/util.h"
#include "workload/pattern.h"
#include "workload/zipf_slot.h"

using namespace pipette;
using namespace pipette::bench;

namespace {

/// Uniform page-aligned 4 KiB reads: the block path's worst cache case.
class UniformPageWorkload : public Workload {
 public:
  UniformPageWorkload(std::uint64_t file_size, std::uint64_t seed)
      : rng_(seed), pages_(file_size / kBlockSize) {
    files_.push_back({"pages.dat", file_size});
  }

  const std::vector<FileSpec>& files() const override { return files_; }
  Request next() override {
    return {0, rng_.next_below(pages_) * kBlockSize,
            static_cast<std::uint32_t>(kBlockSize), false};
  }
  std::string name() const override { return "uniform-4k"; }

 private:
  std::vector<FileSpec> files_;
  Rng rng_;
  std::uint64_t pages_;
};

struct CellSpec {
  const char* label;
  const char* expected_top;  // --selfcheck: the resource that must rank #1
};

constexpr CellSpec kCells[] = {
    {"die-bound (uniform 4K, Block I/O)", "nand_die"},
    {"link-bound (strided, Pipette+prefetch, LMB)", "lmb_link"},
    {"gc-bound (50% sub-page writes, MU=512)", "gc"},
};

constexpr std::uint64_t kDieFileBytes = 64ull * kMiB;

// Die-bound: big file, small page cache — misses dominate and each miss
// senses NAND (block reads bypass the device DRAM buffer by default).
MachineConfig die_machine(const BenchArgs& args) {
  MachineConfig c = default_machine_for(args, PathKind::kBlockIo);
  c.page_cache_bytes = 4 * kMiB;
  return c;
}

// Link-bound: the whole 256 KiB stream stays in the device read buffer, so
// after the warm-up pass reads cost no NAND — but the fine-grained cache
// (64 KiB data area) cannot hold it host-side, so every demanded byte (and
// every speculative fill) crosses the dedicated LMB link each wrap.
MachineConfig link_machine(const BenchArgs& args) {
  MachineConfig c = default_machine_for(args, PathKind::kPipette);
  c.interconnect = InterconnectKind::kLmb;
  c.prefetch = true;
  c.page_cache_bytes = 1 * kMiB;
  c.ssd.hmb.data_bytes = 64 * kKiB;
  c.pipette.fgrc.slab.slab_size = 32 * kKiB;
  c.pipette.fgrc.slab.max_external_bytes = 1 * kMiB;
  return c;
}

StridedConfig link_workload(std::uint64_t seed) {
  StridedConfig c;
  c.file_size = 256 * kKiB;
  c.stride = 512;
  c.read_size = 256;
  c.sub_offset = 64;  // keep offset+len inside the 512 B stride slot
  c.run_length = 256;
  c.seed = seed;
  return c;
}

// GC-bound: the gc_wear_sweep drive pushed to 85% logical occupancy so
// greedy GC drags live sibling MUs on nearly every collection (WA ~3).
MachineConfig gc_machine(const BenchArgs& args) {
  MachineConfig c = default_machine_for(args, PathKind::kPipette);
  c.ssd.geometry.channels = 4;
  c.ssd.geometry.ways_per_channel = 2;
  c.ssd.geometry.planes_per_die = 1;
  c.ssd.geometry.blocks_per_plane = 16;
  c.ssd.geometry.pages_per_block = 32;
  c.ssd.lba_count = c.ssd.geometry.total_pages() * 85 / 100;
  c.ssd.read_buffer_bytes = 2 * kMiB;
  c.page_cache_bytes = 1 * kMiB;
  c.ssd.hmb.data_bytes = 1 * kMiB;
  c.pipette.fine_writes = true;
  c.mapping_unit = 512;
  return c;
}

void write_report_json(const BenchArgs& args,
                       const std::vector<RunResult>& results) {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "bottleneck_report");
  w.kv("jobs", args.jobs);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const BottleneckReport report = BottleneckReport::from_metrics(r.metrics);
    w.begin_object();
    w.kv("cell", kCells[i].label);
    w.kv("requests", r.requests);
    w.kv("mean_latency_us", r.mean_latency_us, 6);
    w.kv("p99_latency_us", r.p99_latency_us, 6);
    w.kv("elapsed_ns", report.elapsed_ns());
    w.kv("top_resource", report.top());
    w.kv("max_littles_residual", report.max_littles_residual(), 6);
    w.key("resources");
    w.begin_array();
    for (const ResourceReport& res : report.resources()) {
      w.begin_object();
      w.kv("name", res.name);
      w.kv("units", res.units);
      w.kv("ops", res.ops);
      w.kv("busy_ns", res.busy_ns);
      w.kv("busy_share", res.busy_share(report.elapsed_ns()), 6);
      w.kv("wait_ns", res.wait_ns);
      w.kv("depth_integral_ns", res.depth_integral_ns);
      w.kv("depth_peak", res.depth_peak);
      w.kv("mean_depth", res.mean_depth(report.elapsed_ns()), 6);
      if (res.has_waits)
        w.kv("littles_residual", res.littles_residual(), 9);
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
      "  --selfcheck  assert the expected top resource per cell and a\n"
      "               Little's-law residual < 5% everywhere\n");
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {200'000, 100'000};
  print_header("Bottleneck attribution — the constraint shifts with the "
               "workload",
               scale);

  const std::uint64_t seed = args.seed;
  std::vector<ExperimentCell> cells;
  cells.push_back({die_machine(args),
                   factory<UniformPageWorkload>(kDieFileBytes, seed),
                   scale.run()});
  cells.push_back({link_machine(args),
                   factory<StridedWorkload>(link_workload(seed)), scale.run()});
  {
    // Same spp request scaling as gc_wear_sweep: MU=512 writes consume
    // free space 8x slower than page-sized ones, so the cell runs 8x the
    // base requests to reach GC steady state.
    const MachineConfig gc = gc_machine(args);
    const std::uint64_t file_size =
        (gc.ssd.lba_count - 64) * kBlockSize;
    RunConfig run = scale.run();
    const std::uint64_t spp = kBlockSize / 512;
    run.requests *= spp;
    run.warmup *= spp;
    cells.push_back({gc,
                     factory<ZipfSlotWorkload>(file_size, /*write_ratio=*/0.5,
                                               seed),
                     run});
  }

  std::vector<std::string> labels;
  for (const CellSpec& c : kCells) labels.push_back(c.label);
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const BottleneckReport report =
        BottleneckReport::from_metrics(results[i].metrics);
    std::printf("\n-- %s --\n", kCells[i].label);
    std::fputs(report.to_table().to_text().c_str(), stdout);
    std::printf("top: %s   littles residual: %.4f%%\n",
                report.top().c_str(),
                report.max_littles_residual() * 100.0);
  }

  if (!args.json_path.empty()) write_report_json(args, results);

  if (selfcheck) {
    bool ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const BottleneckReport report =
          BottleneckReport::from_metrics(results[i].metrics);
      if (report.top() != kCells[i].expected_top) {
        std::fprintf(stderr,
                     "pipette: selfcheck: cell '%s' top resource is '%s', "
                     "expected '%s'\n",
                     kCells[i].label, report.top().c_str(),
                     kCells[i].expected_top);
        ok = false;
      }
      if (report.max_littles_residual() >= 0.05) {
        std::fprintf(stderr,
                     "pipette: selfcheck: cell '%s' Little's-law residual "
                     "%.4f%% >= 5%% — the busy/wait and depth-integral "
                     "accounts disagree\n",
                     kCells[i].label,
                     report.max_littles_residual() * 100.0);
        ok = false;
      }
      if (report.elapsed_ns() == 0 || report.resources().empty()) {
        std::fprintf(stderr,
                     "pipette: selfcheck: cell '%s' exported no utilization "
                     "accounts\n",
                     kCells[i].label);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("\nselfcheck      : ok\n");
  }
  return 0;
}
