// Ablation A7: on-disk fragmentation. Shorter extents defeat the generic
// block layer's request merging (sequential scans split into many
// commands), while Pipette's fine-grained path — which resolves byte
// ranges through the LBA Extractor page by page — is insensitive to it.
#include "bench_common.h"

namespace {

using namespace pipette;
using namespace pipette::bench;

// Sequential 64 KiB scan over a possibly fragmented file.
class ScanWorkload final : public Workload {
 public:
  explicit ScanWorkload(std::uint64_t max_extent_blocks) {
    // A 3-block hole between extents makes the fragmentation physical —
    // adjacent extents would otherwise still merge at the block layer.
    files_.push_back({"scan.dat", 512ull * kMiB, max_extent_blocks,
                      max_extent_blocks == 0 ? 0ull : 3ull});
  }
  const std::vector<FileSpec>& files() const override { return files_; }
  Request next() override {
    const std::uint64_t offset = pos_;
    pos_ = (pos_ + kChunk) % (files_[0].size - kChunk);
    return {0, offset, kChunk, false};
  }
  std::string name() const override { return "scan"; }

 private:
  static constexpr std::uint32_t kChunk = 64 * 1024;
  std::vector<FileSpec> files_;
  std::uint64_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  Scale scale = Scale::from_args(args);
  if (args.requests == 0 && !args.quick) scale = {20'000, 2'000};
  print_header("Ablation A7 — extent fragmentation vs block-layer merging",
               scale);

  Table t({"max extent", "scan MiB/s", "merged cmds per 16-page read"});
  std::vector<std::string> labels;
  std::vector<RunResult> results;
  for (std::uint64_t max_extent : {0ull, 16ull, 4ull, 1ull}) {
    ScanWorkload w(max_extent);
    MachineConfig config = default_machine_for(args, PathKind::kBlockIo);
    config.page_cache_bytes = 8 * kMiB;  // scan never fits: always fetch
    Machine machine(config, w.files());

    // Block-layer counters at the first measured request.
    const auto& bl = machine.block_path()->block_layer();
    std::uint64_t issued = 0;
    std::uint64_t pages0 = 0;
    std::uint64_t cmds0 = 0;
    RunHooks hooks;
    hooks.on_request = [&](const Request&, const RunHooks::IssueFn&) {
      if (issued++ == scale.warmup) {
        pages0 = bl.stats().page_requests;
        cmds0 = bl.stats().merged_requests;
      }
      return false;
    };
    const RunResult r = run_experiment_on(machine, w, scale.run(), hooks);
    const double secs = static_cast<double>(r.elapsed) / 1e9;
    const double mib_s = static_cast<double>(scale.requests) * 64.0 / 1024.0 /
                         secs;
    const double cmds_per_16 =
        16.0 * static_cast<double>(bl.stats().merged_requests - cmds0) /
        static_cast<double>(bl.stats().page_requests - pages0);
    labels.push_back(max_extent == 0 ? "contiguous"
                                     : std::to_string(max_extent) + " blocks");
    t.add_row(
        {labels.back(), Table::fmt(mib_s, 1), Table::fmt(cmds_per_16, 2)});
    results.push_back(r);
    std::fprintf(stderr, "  %s done\n", labels.back().c_str());
  }
  emit(t, args);
  write_json_summary(args, "ablation_fragmentation", labels, results);
  return 0;
}
