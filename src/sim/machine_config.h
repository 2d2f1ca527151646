// Machine configuration and the calibrated defaults used by the benchmark
// harness.
//
// Calibration philosophy (see DESIGN.md §6 and EXPERIMENTS.md): the paper's
// absolute numbers come from a YS9203 hardware prototype; this simulation
// reproduces the *relative* behaviour. The constants below were chosen so
// that the single-component costs match datasheet/kernel magnitudes (TLC tR
// ~65us, PCIe Gen3 x4 ~3.2 GB/s, syscall ~0.5us, MMIO round trip ~0.3us)
// and the emergent end-to-end shapes match the paper's figures.
//
// Key sizing decisions for the synthetic experiments:
//  * 256 MiB file, 160 MiB page cache, 160 MiB FGRC data area: the two
//    host caches get comparable byte budgets, so Pipette's advantage comes
//    from its mechanisms (byte-granular misses, compact items, adaptive
//    promotion), not from extra memory.
//  * 512 MiB device read buffer for the fine-grained firmware: the staging
//    region covers the working set, mirroring the prototype's device DRAM
//    ("Max DDR size 4GB") against its 4.1 GB dataset. The block interface
//    does not data-cache in controller DRAM (standard NVMe behaviour).
#pragma once

#include <cstdint>

#include "des/event_queue.h"
#include "hostmem/host_timing.h"
#include "hostmem/page_cache.h"
#include "iopath/pipette_path.h"
#include "obs/trace.h"
#include "ssd/controller.h"

namespace pipette {

enum class PathKind {
  kBlockIo,
  kTwoBMmio,
  kTwoBDma,
  kPipetteNoCache,
  kPipette,
};

/// All five systems, in the paper's legend order.
inline constexpr PathKind kAllPaths[] = {
    PathKind::kTwoBMmio, PathKind::kTwoBDma, PathKind::kPipetteNoCache,
    PathKind::kPipette, PathKind::kBlockIo};

struct MachineConfig {
  PathKind kind = PathKind::kBlockIo;
  ControllerConfig ssd;
  HostTiming host;
  /// FTL mapping unit in bytes (512 <= MU <= page, must divide the page).
  /// 0 keeps the device's page-granular mapping — the golden-pinned
  /// default; shaped() forwards a nonzero value to ControllerConfig.
  std::uint32_t mapping_unit = 0;
  /// Link carrying fine-grained fills: PCIe DMA into host DRAM (kHmb, the
  /// paper's baseline) or a CXL-linked memory buffer (kLmb). With kLmb the
  /// buffer lives on the CXL device, so its data-area bytes stop stealing
  /// host DRAM — Machine returns that budget to the Pipette page cache.
  InterconnectKind interconnect = InterconnectKind::kHmb;
  /// Speculative readahead on the fine path (Pipette-with-cache only; the
  /// tuning constants live in pipette/prefetcher.h).
  bool prefetch = false;
  /// Page cache of the block path and of Pipette's block route.
  std::uint64_t page_cache_bytes = 160ull * 1024 * 1024;
  ReadaheadConfig readahead{/*initial_window=*/1, /*max_window=*/32,
                            /*enabled=*/true};
  PipettePathConfig pipette;  // used by the Pipette kinds
  TraceConfig trace;          // per-stage tracing (off by default)
  /// Only for `Simulator sim(config.queue)` in benchmark/pipette_bench.cpp.
  QueueKind queue = QueueKind::kHeap;
};

/// Defaults matching the synthetic-workload experiments (§4.2).
MachineConfig default_machine(PathKind kind);

/// Defaults for the real-application experiments (§4.3): bigger dataset,
/// host caches sized so the block baseline lands near the paper's reported
/// 64.5% page-cache hit ratio.
MachineConfig realapp_machine(PathKind kind);

}  // namespace pipette
