// Generic block layer: request merging and dispatch to the NVMe device.
//
// The kernel's block layer takes the page-granular reads the page cache
// wants, merges physically contiguous ones into larger requests (plug/merge)
// and dispatches each merged request to the driver, paying per-request CPU
// cost. The simulation is closed-loop: read_pages() runs the simulator
// until every merged request completes, and leaves the clock at completion
// time.
//
// Reads move no bytes on the host. Before submitting, the layer takes one
// page-cache frame per page from the caller's FramePool and hands the
// device the run's frames as its PRP list (Command::host_pages); the device
// synthesizes each block straight into its frame, and the layer passes the
// filled frame to the caller's sink, which adopts it. Frames of a run that
// failed go back to the pool. The synchronous path keeps its merge scratch
// in members and the asynchronous one in pooled per-call records, so a warm
// layer allocates nothing per request.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/inline_function.h"
#include "des/simulator.h"
#include "hostmem/host_timing.h"
#include "hostmem/page_cache.h"
#include "ssd/controller.h"

namespace pipette {

struct BlockLayerStats {
  std::uint64_t page_requests = 0;    // pages callers asked for
  std::uint64_t merged_requests = 0;  // commands actually dispatched
};

/// One page of a block read: its LBA, and a caller tag (the block I/O path
/// passes the file page index) handed back with the page's frame.
struct PageRead {
  Lba lba = 0;
  std::uint64_t tag = 0;
};

/// One merged device command: LBAs [start, start + count), whose pages are
/// entries [first, first + count) of the merged, LBA-sorted page list.
struct ReadRun {
  Lba start = 0;
  std::uint32_t count = 0;
  std::uint32_t first = 0;

  bool operator==(const ReadRun&) const = default;
};

class BlockLayer {
 public:
  /// Receives each page of an asynchronous read at its run's completion:
  /// the page and its filled frame (the sink adopts it), or nullptr when
  /// the run failed (its frames are already back in the pool).
  using AsyncSink = InlineFunction<void(const PageRead&, std::uint8_t*)>;

  BlockLayer(Simulator& sim, SsdController& ssd, HostTiming timing)
      : sim_(sim), ssd_(ssd), timing_(timing) {}

  /// Merge `pages` into contiguous runs (repeated LBAs collapsed), take a
  /// frame per page from `frames`, issue one device read per run, and once
  /// all runs complete call `sink(page, frame)` for every page in LBA
  /// order; the sink adopts the frame. Returns only after completion (clock
  /// advanced). Pages of a run that failed with a media error are not
  /// delivered and their frames go back to `frames`; the return value is
  /// false if any run failed. Not re-entrant: a sink must not start
  /// another synchronous read.
  template <typename Sink>
  bool read_pages(std::span<const PageRead> pages, FramePool& frames,
                  Sink&& sink);

  /// Asynchronous variant (read-ahead): submits the merged runs and returns
  /// immediately; `sink` runs for each page at its run's completion, while
  /// the caller is doing something else. The kernel's async read-ahead
  /// works this way — only the demanded pages block the reader. A failed
  /// run still reaches the sink — once per page, with a null frame — so
  /// callers can retire in-flight bookkeeping.
  void read_pages_async(std::span<const PageRead> pages, FramePool& frames,
                        AsyncSink sink);

  /// Write one page synchronously (used by writeback and flush).
  void write_page(Lba lba, const std::uint8_t* data);

  /// Sort `pages` by LBA, drop repeated LBAs (the entry with the lowest tag
  /// stays) and write the contiguous runs to `runs`. Exposed for unit tests.
  static void merge(std::vector<PageRead>& pages, std::vector<ReadRun>& runs);

  const BlockLayerStats& stats() const { return stats_; }

 private:
  // The merged pages of one read call and the frames they land in.
  struct Batch {
    std::vector<PageRead> pages;        // merged: LBA-sorted, unique
    std::vector<ReadRun> runs;
    std::vector<std::uint8_t*> frames;  // frames[i] receives pages[i]
    std::vector<bool> run_ok;           // synchronous batch only
    std::size_t runs_left = 0;
    // Asynchronous batches only.
    BlockLayer* layer = nullptr;
    FramePool* pool = nullptr;
    AsyncSink sink;
  };

  /// Merge `pages` into `batch`, take its frames and charge the block
  /// layer's per-request CPU cost.
  void prepare(Batch& batch, std::span<const PageRead> pages,
               FramePool& frames);
  /// Submit run `r` of `batch` with `done` as its completion.
  void submit_run(const Batch& batch, std::size_t r,
                  SsdController::Completion done);
  /// Prepare and submit sync_, and run the simulator until it completes.
  void issue_sync(std::span<const PageRead> pages, FramePool& frames);
  /// Deliver run `r` of an asynchronous batch and recycle the batch after
  /// its last run.
  static void finish_async_run(Batch* batch, std::uint32_t r, bool ok);

  Simulator& sim_;
  SsdController& ssd_;
  HostTiming timing_;
  BlockLayerStats stats_;
  Batch sync_;  // scratch of read_pages(), capacity kept across calls
  std::vector<std::unique_ptr<Batch>> async_pool_;
  std::vector<Batch*> async_free_;
};

template <typename Sink>
bool BlockLayer::read_pages(std::span<const PageRead> pages,
                            FramePool& frames, Sink&& sink) {
  if (pages.empty()) return true;
  issue_sync(pages, frames);
  bool all_ok = true;
  for (std::size_t r = 0; r < sync_.runs.size(); ++r) {
    const ReadRun& run = sync_.runs[r];
    const bool ok = sync_.run_ok[r];
    all_ok = all_ok && ok;
    for (std::uint32_t i = run.first; i < run.first + run.count; ++i) {
      if (ok) {
        sink(sync_.pages[i], sync_.frames[i]);
      } else {
        frames.give_back(sync_.frames[i]);  // the payload never arrived
      }
    }
  }
  return all_ok;
}

}  // namespace pipette
