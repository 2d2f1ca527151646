// The Pipette read framework (paper §3, Fig. 2): the traditional block path
// kept unchanged next to a fine-grained path made of the Detector, the Read
// Dispatcher, the Fine-Grained Read Cache, the Constructor + LBA Extractor
// + Requester on the host, and the Fine-Grained Read Engine on the device.
//
// Request flow for a fine-grained read:
//   VFS -> page cache probe -> Detector (permission + access ranges)
//       -> FGRC lookup  --hit--> copy to user
//       -> miss: adaptive plan (cache item or TempBuf), Constructor asks the
//          LBA Extractor for the pages holding the range (bypassing the
//          generic block layer), pushes Info Area records with destination
//          addresses, and the Requester submits one FG_READ command; the
//          device engine loads the NAND pages, consumes the records, and
//          DMAs only the demanded bytes into the HMB.
//
// With `use_cache == false` this models the paper's "Pipette w/o cache"
// baseline: every read (any size) takes the byte path and nothing is ever
// promoted, so I/O traffic equals exactly the requested bytes.
#pragma once

#include <memory>
#include <vector>

#include "iopath/block_io_path.h"
#include "pipette/detector.h"
#include "pipette/fgrc.h"
#include "pipette/prefetcher.h"

namespace pipette {

/// Fine-path settings; the page cache and the cache/prefetch switches are
/// constructor arguments, read from MachineConfig like BlockIoPath's.
struct PipettePathConfig {
  FgrcConfig fgrc;
  DispatchConfig dispatch;
  // Extension beyond the DAC'22 paper (CoinPurse-style, cited as the
  // complementary fine-grained *write* design): route small writes down
  // the byte path too. The device performs the read-modify-write
  // internally and the host sends only the new bytes; an exact-match FGRC
  // item is updated in place instead of invalidated.
  bool fine_writes = false;
};

struct PipettePathStats {
  std::uint64_t fine_reads = 0;
  std::uint64_t block_reads = 0;
  std::uint64_t page_cache_served_fine = 0;  // fine reads served by dirty/
                                             // resident page-cache pages
  std::uint64_t fine_writes = 0;
  std::uint64_t block_writes = 0;
  std::uint64_t fgrc_inplace_updates = 0;
  std::uint64_t hmb_fault_fallbacks = 0;  // FG_READ hit an HMB fault and the
                                          // request degraded to the block path
  std::uint64_t lost_completions = 0;     // timeout guard fired on a dropped
                                          // FG_READ completion
};

class PipettePath : public ReadPathBase {
 public:
  /// `page_cache_bytes` and `readahead` shape the block route's page cache.
  /// `prefetch` turns on speculative readahead; it places through the
  /// FGRC's adaptive machinery, so it is ignored when `use_cache` is false.
  PipettePath(Simulator& sim, SsdController& ssd, FileSystem& fs,
              HostTiming timing, std::uint64_t page_cache_bytes,
              ReadaheadConfig readahead, PipettePathConfig config,
              bool use_cache, bool prefetch);

  SimDuration read(FileId file, int open_flags, std::uint64_t offset,
                   std::span<std::uint8_t> out) override;
  SimDuration write(FileId file, int open_flags, std::uint64_t offset,
                    std::span<const std::uint8_t> data) override;

  FineGrainedReadCache& fgrc() { return *fgrc_; }
  const FineGrainedAccessDetector& detector() const { return detector_; }
  /// Null when prefetching is disabled (or the cache is off).
  const Prefetcher* prefetcher() const { return prefetcher_.get(); }
  Prefetcher* prefetcher() { return prefetcher_.get(); }
  BlockIoPath& block_route() { return block_; }
  const PipettePathStats& pipette_stats() const { return pstats_; }

  /// Cold-restart support: rebuild the FGRC, dropping every cached item
  /// (the slab store re-carves the HMB Data Area from scratch) while
  /// preserving cumulative statistics.
  void reset_fgrc();

 private:
  enum class FineOutcome {
    kOk,        // request served through the intended route
    kDegraded,  // served, but only via the block-path fallback
    kFailed,    // device fault no route could mask
  };

  FineOutcome fine_read(FileId file, std::uint64_t offset,
                        std::span<std::uint8_t> out);

  enum class FineWriteOutcome { kNotTaken, kOk, kFailed };
  /// kNotTaken if the fine write path cannot take this request (routing +
  /// page cache dirtiness checks); otherwise performs it.
  FineWriteOutcome try_fine_write(FileId file, int open_flags,
                                  std::uint64_t offset,
                                  std::span<const std::uint8_t> data);

  /// Closed-loop wait for the submitted command, honouring the HMB timeout
  /// guard. Returns false if the guard expired with no completion (the
  /// completion's ticket is then stale and will be ignored on arrival).
  bool await_completion();

  /// Host cost of reading `bytes` out of the fine-grained buffer region: a
  /// plain memcpy when it lives in host DRAM (HMB), a far-memory load over
  /// the dedicated link when it lives on a CXL device (LMB).
  SimDuration buffer_read_cost(std::uint64_t bytes) const;

  PipettePathConfig config_;
  bool use_cache_;
  BlockIoPath block_;  // the unchanged traditional path
  FineGrainedAccessDetector detector_;
  std::unique_ptr<FineGrainedReadCache> fgrc_;
  std::unique_ptr<Prefetcher> prefetcher_;
  // Classifier verdict of the current request, issued (as speculative
  // commands) only after the demand latency has been captured.
  StreamPrediction pending_pred_;
  PipettePathStats pstats_;
  // Scratch for the LBA Extractor, reused across requests so the per-read
  // hot path performs no heap allocation in steady state (Command::ranges
  // is likewise recycled through the controller's FgRange pool).
  std::vector<LbaRange> lba_scratch_;
  // Submit-and-wait state for closed-loop commands. The ticket
  // distinguishes the current wait from one that timed out: a completion
  // arriving after its wait was abandoned carries a stale ticket and is
  // dropped instead of scribbling on long-gone state.
  std::uint64_t wait_ticket_ = 0;
  bool wait_done_ = false;
  CommandResult wait_result_{};
};

}  // namespace pipette
