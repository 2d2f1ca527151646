// Speculative readahead for the fine-grained read path (ROADMAP
// "alternative interconnect backends + smarter host-side prefetch";
// pattern taxonomy after arXiv 2109.05366).
//
// The detector's stream classifier labels each file's fine-grained access
// stream; on a sequential/strided/clustered-hot verdict the prefetcher
// generates grid-exact future keys (base + k*stride, or the ±k*len
// neighbourhood for clusters), filters out anything already cached, in
// flight, resident in the page cache, or beyond the file, and batches the
// survivors into speculative FG_READ commands: Info-ring records plus
// ranges, exactly like a demand miss, but with
//  * a budget of outstanding speculative commands (demand keeps priority),
//  * an Info-ring headroom reservation so demand pushes can never hit
//    backpressure because of speculation,
//  * placement via FineGrainedReadCache::plan_speculative — the adaptive
//    threshold decides FGRC item vs (split) TempBuf staging,
//  * a generation-stamped completion so timed-out commands are abandoned
//    without stuck ticketed waits (mirrors PipettePath's wait_ticket_).
//
// Demand integration: before its FGRC lookup, a fine read asks
// on_demand(key). A completed fill is claimed (promoted fills then hit in
// the FGRC; TempBuf fills warmed the device read buffer, so the re-fetch
// skips NAND); an in-flight fill is waited out under the same HMB timeout
// guard as demand commands.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/lru.h"
#include "des/simulator.h"
#include "fs/filesystem.h"
#include "pipette/detector.h"
#include "pipette/fgrc.h"
#include "ssd/controller.h"

namespace pipette {

struct PrefetchStats {
  std::uint64_t issued = 0;         // speculative keys issued
  std::uint64_t commands = 0;       // speculative FG_READ commands
  std::uint64_t hits = 0;           // demand claims of a completed fill
  std::uint64_t hits_promoted = 0;  // ... of those, FGRC-promoted fills
  std::uint64_t late = 0;           // demand arrived while fill in flight
  std::uint64_t wasted = 0;         // fills aged out unclaimed
  std::uint64_t lost = 0;           // commands abandoned on timeout
  std::uint64_t faulted = 0;        // fills lost to HMB/media faults
  std::uint64_t throttled = 0;      // budget / ring-headroom suppressions
  std::uint64_t filtered = 0;       // candidates already covered elsewhere
  std::uint64_t promoted = 0;       // fills planned into the FGRC
  std::uint64_t tempbuf = 0;        // fills staged through TempBuf
};

class Prefetcher {
 public:
  /// Answers "is (file, page) resident in the host page cache?" — supplied
  /// by PipettePath so this library needs no hostmem dependency.
  using PageResidentFn = std::function<bool(FileId, std::uint64_t)>;

  // Tuning constants.
  static constexpr std::uint32_t kDegree = 32;         // keys per trigger
  static constexpr std::uint32_t kMaxBatch = 16;       // keys per FG_READ
  static constexpr std::uint32_t kMaxOutstanding = 8;  // commands in flight
  static constexpr std::uint32_t kMinRun = 3;  // classifier confidence gate
  /// Clustered-hot streams only: page-stride probes at base ± k pages, on
  /// top of the record-exact neighbourhood walk. One probe per page is
  /// enough to pull the whole page into the device read buffer, so the
  /// burst's later misses on that page skip NAND even when the exact
  /// record was never speculated. 32 pages ≈ the classifier's cluster
  /// radius (128 KiB) on 4 KiB pages.
  static constexpr std::uint32_t kClusterProbePages = 32;
  static constexpr std::uint32_t kInfoHeadroom = 64;  // ring slots for demand
  static constexpr std::uint32_t kTrackCapacity = 65536;  // unclaimed fills
  static constexpr SimDuration kIssueCost = 400;     // host CPU per command
  static constexpr SimDuration kPerRangeCost = 120;  // host CPU per record

  Prefetcher(Simulator& sim, SsdController& ssd, FileSystem& fs,
             FineGrainedReadCache& fgrc, PageResidentFn page_resident);

  /// Demand-side claim. True if `key`'s speculative fill has completed
  /// (after waiting out an in-flight one under the HMB timeout guard);
  /// false if nothing useful was speculated or the fill faulted/timed out.
  bool on_demand(const FgKey& key);

  /// Trigger: fold the classifier verdict of a just-served fine read into
  /// zero or more speculative commands. Host CPU cost is charged inline
  /// (after the demand request's latency was taken, like kernel readahead
  /// work riding the tail of a syscall).
  void maybe_issue(const StreamPrediction& pred);

  /// Cold restart: the FGRC was rebuilt; in-flight commands are abandoned
  /// (their late completions become stale) and claimable fills dropped.
  void on_cache_reset(FineGrainedReadCache& fresh);

  const PrefetchStats& stats() const { return stats_; }
  /// Completed fills not (yet) claimed by demand — the live waste pool.
  std::uint64_t unclaimed() const { return filled_.size(); }
  std::uint32_t outstanding() const { return outstanding_; }

  /// Time-weighted occupancy of the speculative budget (outstanding
  /// commands; passive account, obs/util.h).
  OccupancyIntegrator& outstanding_occupancy() { return outstanding_occ_; }

 private:
  struct SpecJob {
    std::uint64_t gen = 0;  // bumped on abandon; stale completions no-op
    SimTime issued_at = 0;
    bool in_use = false;
    std::vector<std::pair<FgKey, MissPlan>> keys;
  };

  /// Abandon every job whose guard interval elapsed without completion
  /// (dropped CQ entries must not pin the speculative budget forever).
  void reap_stale();
  void abandon(std::uint32_t slot);
  void on_complete(std::uint64_t token, const CommandResult& result);
  bool claim_filled(const FgKey& key);

  Simulator& sim_;
  SsdController& ssd_;
  FileSystem& fs_;
  FineGrainedReadCache* fgrc_;
  PageResidentFn page_resident_;
  PrefetchStats stats_;

  std::vector<SpecJob> jobs_;            // ≤ kMaxOutstanding, slot-stable
  std::vector<std::uint32_t> free_jobs_;
  std::uint32_t outstanding_ = 0;
  OccupancyIntegrator outstanding_occ_;
  std::unordered_map<FgKey, std::uint32_t, FgKeyHash> inflight_;  // -> slot
  LruMap<FgKey, bool, FgKeyHash> filled_;  // value: promoted into FGRC
  std::vector<std::uint64_t> cand_scratch_;  // candidate offsets, reused
  std::vector<LbaRange> lba_scratch_;
};

}  // namespace pipette
