// SSD controller: NVMe command processing, device DRAM read buffer, and the
// device-side Fine-Grained Read Engine (paper §3.1.2, Fig. 4).
//
// Commands arrive through submit(): a submission cost models the driver/SQ
// doorbell/fetch path, a firmware cost models the controller's 2-core FTL
// work, then the opcode-specific flow runs on the discrete-event simulator:
//
//  kRead       block read of nlb pages -> NAND (parallel across dies) ->
//              one DMA of nlb*4KiB to the host buffer.
//  kWrite      block write -> content overlay update -> NAND programs.
//  kFgRead     the Fine-Grained Read Engine: (1) load each distinct NAND
//              page into the read buffer, (2) consume the matching Info Area
//              records to learn destination addresses, (3) extract the
//              demanded ranges and DMA each to its HMB destination, then
//              bump the Info Area head.
//  kReadToCmb  2B-SSD support: load one page into a CMB slot; the host then
//              pulls bytes out via MMIO or DMA (host-side cost).
//
// The device DRAM read buffer is an LRU page cache in controller memory
// (Fig. 5's "Max DDR size 4GB"); all read flows consult it, which is what
// lets repeated fine-grained reads skip the NAND tR.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/inline_function.h"
#include "common/lru.h"
#include "common/stats.h"
#include "des/simulator.h"
#include "faults/faults.h"
#include "nand/nand.h"
#include "ssd/cmb.h"
#include "ssd/disk_content.h"
#include "ssd/ftl.h"
#include "ssd/hmb.h"
#include "ssd/pcie.h"
#include "ssd/types.h"

namespace pipette {

enum class Opcode { kRead, kWrite, kFgRead, kFgWrite, kReadToCmb };

/// One fine-grained range of a kFgRead command. `info_index` is the
/// monotonic Info Area index the host pushed for this range.
struct FgRange {
  Lba lba = kInvalidLba;
  std::uint32_t offset = 0;  // byte offset within the 4 KiB block
  std::uint32_t len = 0;
  std::uint64_t info_index = 0;
};

struct Command {
  Opcode op = Opcode::kRead;
  Lba lba = 0;
  std::uint32_t nlb = 1;
  std::span<std::uint8_t> host_dest;       // kRead: where data lands
  std::vector<std::uint8_t> write_data;    // kWrite/kFgWrite: payload
  std::vector<FgRange> ranges;             // kFgRead/kFgWrite: byte ranges;
                                           // for kFgWrite the payload bytes
                                           // of range i are consecutive in
                                           // write_data (info_index unused)
};

/// Terminal status of a command. kMediaError: a NAND page exhausted its
/// read-retry budget (the payload never materialised). kHmbFault: the
/// fine-grained engine could not reach its HMB destinations; the host should
/// fall back to the block path.
enum class CmdStatus : std::uint8_t { kOk, kMediaError, kHmbFault };

const char* to_string(CmdStatus s);

struct CommandResult {
  SimTime completed_at = 0;
  std::uint32_t cmb_slot = 0;  // kReadToCmb: slot holding the page
  CmdStatus status = CmdStatus::kOk;  // fits the existing padding: still 16B
};

struct ControllerTiming {
  SimDuration submission = 700;        // driver + doorbell + fetch
  SimDuration completion = 500;        // CQ entry + interrupt/poll
  SimDuration firmware_per_cmd = 1200; // FTL lookup + scheduling
  SimDuration firmware_per_range = 250;  // range extraction in the engine
};

struct ControllerConfig {
  NandGeometry geometry;
  NandTiming nand_timing;
  FaultPlan faults;
  PcieTiming pcie;
  ControllerTiming timing;
  std::uint64_t lba_count = 0;             // 0 = max addressable
  /// FTL mapping unit in bytes (512 <= MU <= page, must divide the page);
  /// 0 = page-granular mapping (the legacy, golden-pinned behaviour).
  std::uint32_t mapping_unit = 0;
  std::uint64_t read_buffer_bytes = 1 * kGiB;  // device DRAM page buffer
  // Whether the block-read flow consults the device DRAM buffer. A standard
  // NVMe data path does not cache payload in controller DRAM (it holds FTL
  // state), while the fine-grained firmware keeps its mapping region of
  // recently loaded pages resident — the asymmetry 2B-SSD and Pipette rely
  // on. Enable to ablate.
  bool block_reads_use_buffer = false;
  std::uint32_t cmb_slots = 64;
  Hmb::Layout hmb;
  // Which link carries fine-grained fills. kHmb: PCIe DMA into host DRAM
  // (the paper's baseline). kLmb: a CXL-linked memory buffer with its own
  // timing (`lmb`) and a dedicated link — the Hmb object then models the
  // LMB's Info/TempBuf/Data layout, living on the CXL device instead of in
  // host DRAM. Block reads/writes stay on PCIe either way.
  InterconnectKind interconnect = InterconnectKind::kHmb;
  LmbTiming lmb;
  std::uint64_t content_seed = 0xd15c;
};

struct ControllerStats {
  std::uint64_t commands = 0;
  std::uint64_t block_reads = 0;
  std::uint64_t block_writes = 0;
  std::uint64_t fg_reads = 0;
  std::uint64_t fg_ranges = 0;
  std::uint64_t fg_writes = 0;
  std::uint64_t cmb_reads = 0;
  std::uint64_t bytes_to_host = 0;    // read I/O traffic, the paper's metric
  std::uint64_t bytes_from_host = 0;  // write payload traffic
  std::uint64_t media_errors = 0;     // terminal NAND ECC failures
  std::uint64_t hmb_dma_faults = 0;   // injected HMB/DMA engine faults
  std::uint64_t dropped_completions = 0;  // injected lost CQ entries
  RatioCounter read_buffer;         // device DRAM buffer hit ratio
};

class SsdController {
 public:
  using Completion = std::function<void(const CommandResult&)>;

  SsdController(Simulator& sim, const ControllerConfig& config);
  ~SsdController();  // out-of-line: job pool types are private/incomplete

  /// Submit a command; `done` runs at completion time on the simulator.
  void submit(Command cmd, Completion done);

  /// Host-side pull of `out.size()` bytes from a CMB slot starting at
  /// `offset` (2B-SSD). Copies the bytes and returns the host-synchronous
  /// cost (MMIO transactions, or DMA setup+transfer when `via_dma`).
  SimDuration read_from_cmb(std::uint32_t slot, std::uint32_t offset,
                            std::span<std::uint8_t> out, bool via_dma);

  Hmb& hmb() { return hmb_; }
  DiskContent& content() { return content_; }
  const NandArray& nand() const { return nand_; }
  /// Mutable access for the utilization exporters (depth sweeps drain
  /// lazily, so reading the accounts advances observer-only state).
  NandArray& nand() { return nand_; }
  const Ftl& ftl() const { return ftl_; }
  PcieLink& pcie() { return pcie_; }
  const ControllerStats& stats() const { return stats_; }
  const ControllerConfig& config() const { return config_; }
  const FaultInjector& hmb_fault_injector() const { return hmb_faults_; }

  /// Account device->host bytes moved outside submit() flows (CMB pulls).
  void add_host_traffic(std::uint64_t bytes) { stats_.bytes_to_host += bytes; }

  /// Recycled FgRange buffer (empty, capacity retained): hosts building
  /// fine-grained commands take one here instead of allocating per request;
  /// the controller reclaims the vector when the command retires.
  std::vector<FgRange> take_fg_ranges();

  /// Time-weighted occupancy of the GC page buffer: victim-page reads GC
  /// has issued whose data has not yet landed in controller DRAM (passive
  /// account; obs/util.h).
  OccupancyIntegrator& gc_buffer_occupancy() { return gc_buffer_occ_; }

 private:
  // Every lambda the controller schedules on the simulator must stay under
  // the Simulator::Callback small-buffer limit, or each event heap-allocates
  // again. Per-command state (the Command itself, the host completion,
  // fan-in counters, the by-page range grouping) therefore lives in pooled
  // job records, and the scheduled closures capture only {this, job pointer}
  // or {this, small index} — a few machine words. Note Completion stays a
  // std::function on purpose: at 32 bytes it nests inside a Callback capture
  // together with a CommandResult (48 bytes total, exactly the SBO limit),
  // which an SBO'd completion type could not.
  struct FgJob;
  struct BlockJob;

  /// Staging continuation: receives whether the page actually landed in the
  /// buffer (false after a terminal NAND media error). Same SBO budget as
  /// the simulator's event callbacks.
  using StageCallback = InlineFunction<void(bool), 48>;

  /// Ensure the page of `lba` is in the device read buffer; `ready` runs
  /// (possibly immediately) once it is. When `use_buffer` is false the page
  /// is always sensed from NAND and not retained.
  void stage_page(Lba lba, StageCallback ready, bool use_buffer = true);

  /// Execute any relocations the FTL's GC queued (background NAND work)
  /// and forward its erases to the NAND wear model. With MU < page the
  /// relocations arrive decoupled: per-page buffer reads (live MUs only)
  /// fan into a batch that then issues the merged GC programs.
  void perform_gc_moves();

  /// Drain the FTL's sealed host pages into NAND programs. `on_program`
  /// runs at each program's completion (fire-and-forget paths pass {}).
  template <typename Fn>
  void issue_host_programs(Fn&& on_program);

  /// Fine-grained fill transfer on the configured interconnect: PCIe DMA
  /// into the HMB, or the dedicated CXL link into the LMB.
  void fine_dma(std::uint64_t bytes, Simulator::Callback on_done);

  void do_block_read(Command cmd, Completion done);
  void do_block_write(Command cmd, Completion done);
  void do_fg_read(Command cmd, Completion done);
  void do_fg_write(Command cmd, Completion done);
  void do_read_to_cmb(Command cmd, Completion done);

  void complete(Completion& done, CommandResult result);

  /// Group job->cmd.ranges by page into job->by_page (sorted by Lba, ranges
  /// in submission order within a page — the legacy std::map iteration
  /// order). With `with_offsets`, each entry also records the byte offset
  /// of its payload within cmd.write_data (kFgWrite).
  void group_ranges_by_page(FgJob& job, bool with_offsets);

  FgJob* acquire_fg_job(Command cmd, Completion done);
  void release_fg_job(FgJob* job);
  void fg_range_done(FgJob* job);

  BlockJob* acquire_block_job(Command cmd, Completion done);
  void finish_block_job(BlockJob* job, CmdStatus status);

  std::uint32_t acquire_stage_slot(StageCallback ready);

  Simulator& sim_;
  ControllerConfig config_;
  DiskContent content_;
  NandArray nand_;
  Ftl ftl_;
  PcieLink pcie_;
  Hmb hmb_;
  Cmb cmb_;
  FaultInjector hmb_faults_;  // kHmbDma sub-stream of config.faults.seed
  void recycle_fg_ranges(std::vector<FgRange>&& ranges);

  LruMap<Lba, char> read_buffer_;  // presence set over device DRAM pages
  ControllerStats stats_;
  std::vector<std::vector<FgRange>> fg_range_pool_;

  // Command submissions parked between submit() and the firmware event.
  struct PendingCmd {
    Command cmd;
    Completion done;
  };
  std::vector<PendingCmd> pending_cmds_;
  std::vector<std::uint32_t> pending_free_;

  // In-flight job pools (unique_ptr slabs keep job pointers stable while
  // the free lists make the steady state allocation-free).
  std::vector<std::unique_ptr<FgJob>> fg_job_pool_;
  std::vector<FgJob*> fg_job_free_;
  std::vector<std::unique_ptr<BlockJob>> block_job_pool_;
  std::vector<BlockJob*> block_job_free_;

  // Parked `ready` continuations of stage_page() NAND reads. The slot also
  // carries the read's verdict: read_page() decides success at submission,
  // the parked continuation observes it at completion. With MU < page an
  // LBA's mapping units may sit on several physical pages, so the slot
  // fans in `pending` NAND reads before running `ready`.
  struct StageSlot {
    StageCallback ready;
    bool ok = true;
    std::uint32_t pending = 1;
  };
  std::vector<StageSlot> stage_slots_;
  std::vector<std::uint32_t> stage_free_;

  // One in-flight decoupled GC episode (MU < page): the page-buffer reads
  // fan in, then the merged programs issue. Pooled like the job records.
  struct GcBatch {
    std::uint32_t reads_pending = 0;
    std::vector<PageProgram> programs;
  };
  std::vector<GcBatch> gc_batches_;
  std::vector<std::uint32_t> gc_batch_free_;
  OccupancyIntegrator gc_buffer_occ_;
  std::uint32_t gc_buffer_level_ = 0;

  // Drain scratch (capacity retained across calls; never held across a
  // re-entrant controller call).
  std::vector<PageProgram> program_scratch_;
  std::vector<MuPageRead> gc_read_scratch_;
  std::vector<std::uint32_t> erase_scratch_;
  std::vector<MuPageRead> stage_pages_scratch_;
};

template <typename Fn>
void SsdController::issue_host_programs(Fn&& on_program) {
  ftl_.drain_host_programs(program_scratch_);
  for (const PageProgram& p : program_scratch_) on_program(p);
}

}  // namespace pipette
