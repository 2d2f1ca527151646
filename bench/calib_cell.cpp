// Calibration utility: run one (system, workload, distribution) cell at a
// chosen scale and print every metric the experiment runner collects.
// Usage: calib_cell <A..E> <uniform|zipf> <block|mmio|dma|nocache|pipette>
//        [--requests N] [--seed S] [other common flags]
#include <cstdlib>
#include <cstring>

#include "bench_common.h"

namespace {

constexpr const char* kUsage =
    "usage: calib_cell <A..E> <uniform|zipf> "
    "<block|mmio|dma|nocache|pipette> [flags]";

// Index of `arg` in `names`; anything else exits 2 with the usage line.
template <std::size_t N>
std::size_t pick(const char* what, const char* arg,
                 const char* const (&names)[N]) {
  for (std::size_t i = 0; i < N; ++i)
    if (std::strcmp(arg, names[i]) == 0) return i;
  std::fprintf(stderr, "calib_cell: unknown %s '%s'\n%s\n", what, arg, kUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pipette;
  using namespace pipette::bench;
  if (argc == 2 && std::strcmp(argv[1], "--help") == 0) {
    std::puts(kUsage);
    BenchArgs::parse(argc, argv);  // prints the common flags and exits
  }
  // With no arguments (e.g. a blanket `for b in bench/*; do $b; done`),
  // probe the headline cell at smoke scale.
  const char* default_args[] = {argv[0], "E", "uniform", "pipette",
                                "--quick"};
  if (argc == 1) {
    argc = 5;
    argv = const_cast<char**>(default_args);
    std::puts("(no arguments: defaulting to `E uniform pipette --quick`;"
              " see --help)");
  }
  if (argc < 4) {
    std::fprintf(stderr, "calib_cell: three positionals come first\n%s\n",
                 kUsage);
    return 2;
  }
  const char* const workloads[] = {"A", "B", "C", "D", "E"};
  const char wl = "ABCDE"[pick("workload", argv[1], workloads)];
  const char* const dists[] = {"uniform", "zipf"};
  const Distribution dist = pick("distribution", argv[2], dists) == 0
                                ? Distribution::kUniform
                                : Distribution::kZipf;
  const char* const systems[] = {"mmio", "dma", "nocache", "pipette",
                                 "block"};  // kAllPaths order
  const PathKind kind = kAllPaths[pick("system", argv[3], systems)];

  const BenchArgs args = BenchArgs::parse(argc - 3, argv + 3);
  const Scale scale = Scale::from_args(args);

  SyntheticWorkload workload(table1_workload(wl, dist, args.seed));
  const RunResult r =
      run_experiment(default_machine_for(args, kind), workload, scale.run());

  std::printf("%s, workload %c, %s\n", to_string(kind), wl, argv[2]);
  std::printf("  mean latency   : %.2f us (p50 %.2f, p99 %.2f)\n",
              r.mean_latency_us, r.p50_latency_us, r.p99_latency_us);
  std::printf("  requests/sec   : %.0f\n", r.requests_per_sec());
  std::printf("  traffic        : %.1f MiB\n", to_mib(r.traffic_bytes));
  std::printf("  page cache hit : %.2f%% (%.1f MiB resident)\n",
              r.page_cache_hit_ratio * 100.0, to_mib(r.page_cache_bytes));
  std::printf("  FGRC hit       : %.2f%% (%.1f MiB used)\n",
              r.fgrc_hit_ratio * 100.0, to_mib(r.fgrc_bytes));
  write_json_summary(args, "calib_cell",
                     {std::string(1, wl) + "/" + argv[2] + "/" +
                      to_string(kind)},
                     {r});
  return 0;
}
