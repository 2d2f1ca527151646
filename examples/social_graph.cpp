// Social-graph store: a LinkBench-flavoured object server on top of the
// Pipette API, demonstrating the mixed read/write flow and the consistency
// rule (§3.1.3): a write deletes the overlapping fine-grained cache items,
// so readers never see stale bytes.
//
//   $ ./examples/social_graph [operations]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "sim/machine.h"
#include "workload/linkbench.h"

using namespace pipette;

int main(int argc, char** argv) {
  const std::uint64_t operations =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200'000;

  LinkBenchConfig lc;
  lc.node_count = 1 << 18;  // demo-sized graph
  LinkBenchWorkload workload(lc);

  MachineConfig config = realapp_machine(PathKind::kPipette);
  Machine machine(config, workload.files());
  std::vector<int> fds;
  for (const FileSpec& f : workload.files())
    fds.push_back(machine.vfs().open(f.name, machine.open_flags(true)));

  std::printf("Running %llu LinkBench-mix operations on a %llu-node graph...\n",
              static_cast<unsigned long long>(operations),
              static_cast<unsigned long long>(lc.node_count));

  std::vector<std::uint8_t> buf(8192);
  std::uint64_t reads = 0, writes = 0;
  SimDuration read_time = 0, write_time = 0;
  for (std::uint64_t i = 0; i < operations; ++i) {
    const Request r = workload.next();
    if (r.is_write) {
      std::memset(buf.data(), static_cast<int>(i & 0xff), r.len);
      write_time += machine.vfs().pwrite(fds[r.file_index], r.offset,
                                         {buf.data(), r.len});
      ++writes;
    } else {
      read_time += machine.vfs().pread(fds[r.file_index], r.offset,
                                       {buf.data(), r.len});
      ++reads;
    }
  }

  PipettePath& pipette = *machine.pipette_path();
  std::printf("\nreads : %llu (mean %.2f us)\n",
              static_cast<unsigned long long>(reads),
              to_us(read_time) / static_cast<double>(reads));
  std::printf("writes: %llu (mean %.2f us)\n",
              static_cast<unsigned long long>(writes),
              to_us(write_time) / static_cast<double>(writes));
  std::printf("FGRC hit ratio       : %.1f%%\n",
              pipette.fgrc().stats().lookups.ratio() * 100.0);
  std::printf("items invalidated by writes: %llu (consistency rule)\n",
              static_cast<unsigned long long>(
                  pipette.fgrc().stats().invalidations));
  std::printf("device bytes moved   : %.1f MiB for %.1f MiB requested\n",
              to_mib(machine.io_traffic_bytes()),
              to_mib(pipette.stats().bytes_requested));

  // Consistency spot check: update a node, then read it back fine-grained.
  const std::uint64_t node_off = 12345ull * lc.node_slot;
  std::vector<std::uint8_t> fresh(lc.node_payload, 0x5A);
  machine.vfs().pwrite(fds[0], node_off, {fresh.data(), fresh.size()});
  std::vector<std::uint8_t> check(lc.node_payload);
  machine.vfs().pread(fds[0], node_off, {check.data(), check.size()});
  std::printf("post-write readback  : %s\n",
              std::memcmp(check.data(), fresh.data(), fresh.size()) == 0
                  ? "fresh bytes (consistent)"
                  : "STALE BYTES (bug!)");
  return 0;
}
