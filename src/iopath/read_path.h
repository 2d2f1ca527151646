// Shared base for the read-path implementations under comparison.
//
// Each path is an IoBackend: a read()/write() call executes the whole
// simulated kernel + device flow for one request, advancing the simulation
// clock, and returns the request's latency. Subclasses: BlockIoPath
// (conventional stack), TwoBSsdPath (CMB byte interface, MMIO or DMA mode),
// PipettePath (the paper's framework; optionally with the fine-grained
// read cache disabled).
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "des/simulator.h"
#include "fs/vfs.h"
#include "hostmem/host_timing.h"
#include "ssd/controller.h"

namespace pipette {

struct PathStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t failed_reads = 0;    // device fault the path couldn't mask
  std::uint64_t degraded_reads = 0;  // served, but via a fallback route
  std::uint64_t failed_writes = 0;
  LatencyHistogram read_latency;
};

class ReadPathBase : public IoBackend {
 public:
  ReadPathBase(Simulator& sim, SsdController& ssd, FileSystem& fs,
               HostTiming timing)
      : sim_(sim), ssd_(ssd), fs_(fs), timing_(timing) {}

  const PathStats& stats() const { return stats_; }

  /// Mean read latency so far, in nanoseconds.
  double mean_read_latency_ns() const {
    return stats_.read_latency.mean_ns();
  }

  /// Refuse a read without touching the device (a fleet kReject when no
  /// copy can serve it): charges `latency` of host time and counts a failed
  /// read. Successful-read statistics are untouched.
  void reject_read(SimDuration latency) {
    sim_.advance(latency);
    ++stats_.failed_reads;
  }

 protected:
  void note_read(std::uint64_t bytes, SimDuration latency) {
    ++stats_.reads;
    stats_.bytes_requested += bytes;
    stats_.read_latency.record(latency);
  }

  Simulator& sim_;
  SsdController& ssd_;
  FileSystem& fs_;
  HostTiming timing_;
  PathStats stats_;
};

}  // namespace pipette
