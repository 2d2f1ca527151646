// Ablation A2: the adaptive reassignment strategy (§3.2.3) under a phase
// change. Phase 1 fills the cache with one object size; phase 2 switches to
// another size. With reassignment on, the maintenance pass notices the old
// class's eviction counts stagnating and migrates its slabs back to the
// free pool for the new class; with it off, the old class squats on the
// memory and the new class can only recycle its own items.
#include "bench_common.h"

namespace {

using namespace pipette;
using namespace pipette::bench;

// Two-phase workload: zipf-popular reads of `size_a` objects, then of
// `size_b` objects from a disjoint file region.
class PhaseChangeWorkload final : public Workload {
 public:
  PhaseChangeWorkload(std::uint64_t phase_requests, std::uint32_t size_a,
                      std::uint32_t size_b, std::uint64_t seed)
      : phase_requests_(phase_requests),
        size_a_(size_a),
        size_b_(size_b),
        rng_(seed),
        zipf_(64 * 1024, 0.8) {
    files_.push_back({"phase.dat", 512ull * kMiB});
  }

  const std::vector<FileSpec>& files() const override { return files_; }

  Request next() override {
    const bool phase_b = issued_++ >= phase_requests_;
    const std::uint32_t size = phase_b ? size_b_ : size_a_;
    const std::uint64_t base = phase_b ? files_[0].size / 2 : 0;
    const std::uint64_t slot = zipf_.sample(rng_);
    return {0, base + slot * size, size, false};
  }

  std::string name() const override { return "phase-change"; }

 private:
  std::uint64_t phase_requests_;
  std::uint32_t size_a_, size_b_;
  std::uint64_t issued_ = 0;
  std::vector<FileSpec> files_;
  Rng rng_;
  ZipfGenerator zipf_;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {1'000'000, 0};
  print_header("Ablation A2 — slab reassignment under a phase change",
               scale);

  // Phase 1 is the warmup; phase 2 is measured.
  const std::uint64_t phase = scale.requests / 2;
  const bool variants[] = {true, false};
  std::vector<ExperimentCell> cells;
  std::vector<std::string> labels;
  for (bool reassign : variants) {
    MachineConfig config = default_machine_for(args, PathKind::kPipette);
    config.ssd.hmb.data_bytes = 24ull * kMiB;  // tight: phases must share
    config.pipette.fgrc.reassign.enabled = reassign;
    config.pipette.fgrc.reassign.epoch_accesses = 8 * 1024;
    // Isolate the reassignment effect from the pressure-migration path.
    config.pipette.fgrc.policy = PressurePolicy::kAlwaysEvict;
    cells.push_back({std::move(config),
                     factory<PhaseChangeWorkload>(phase, 120u, 1000u,
                                                  args.seed),
                     RunConfig{phase, phase}});
    labels.push_back(reassign ? "reassign=on" : "reassign=off");
  }
  const std::vector<RunResult> results =
      run_cells(std::move(cells), labels, args);

  Table t({"Variant", "phase-2 FGRC hit %", "phase-2 thpt (req/s)",
           "reassigned slabs"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    t.add_row({variants[i] ? "reassignment on (paper)" : "reassignment off",
               Table::fmt(r.fgrc_hit_ratio * 100.0, 1),
               Table::fmt(r.requests_per_sec(), 0),
               std::to_string(r.metrics.value("fgrc.reassigned_slabs"))});
  }
  emit(t, args);
  write_json_summary(args, "ablation_reassignment", labels, results);
  return 0;
}
