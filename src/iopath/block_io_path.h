// The conventional block-based read path (paper §2.1, the dotted box of
// Fig. 2): VFS -> page cache (with read-ahead) -> generic block layer ->
// NVMe driver -> device. Serves as the baseline every figure normalises to,
// and as the block route inside PipettePath.
#pragma once

#include <span>
#include <unordered_set>
#include <vector>

#include "blockio/block_layer.h"
#include "hostmem/page_cache.h"
#include "iopath/read_path.h"

namespace pipette {

class BlockIoPath : public ReadPathBase {
 public:
  BlockIoPath(Simulator& sim, SsdController& ssd, FileSystem& fs,
              HostTiming timing, std::uint64_t page_cache_bytes,
              ReadaheadConfig ra = {});

  SimDuration read(FileId file, int open_flags, std::uint64_t offset,
                   std::span<std::uint8_t> out) override;
  SimDuration write(FileId file, int open_flags, std::uint64_t offset,
                    std::span<const std::uint8_t> data) override;

  /// Write all dirty pages back to the device (fsync-like).
  void sync();

  PageCache& page_cache() { return cache_; }
  BlockLayer& block_layer() { return block_layer_; }

  /// The data-path work shared with PipettePath's block route: page-cache
  /// consult, read-ahead, fetch, and copy-out. Excludes syscall/VFS entry
  /// costs (the caller charges those). Returns false when a device media
  /// error left part of the request unreadable (`out` is then incomplete).
  bool buffered_read(FileId file, std::uint64_t offset,
                     std::span<std::uint8_t> out);
  bool buffered_write(FileId file, std::uint64_t offset,
                      std::span<const std::uint8_t> data);

 private:
  /// Fetch the given logical pages of `file` (plus nothing else) into the
  /// page cache; pages already resident are skipped. `demand_until` marks
  /// pages <= that index as demand-fetched (the rest are read-ahead).
  /// Returns false if any page failed with a media error (it stays absent).
  bool fetch_pages(FileId file, std::span<const std::uint64_t> pages,
                   std::uint64_t last_demand_page);

  /// Asynchronous read-ahead fetch: submits and returns; pages land in the
  /// cache when the device completes (unless superseded meanwhile).
  void fetch_pages_async(FileId file, std::span<const std::uint64_t> pages);

  /// Charge the extent walk and fill reads_ with the (LBA, page) pair of
  /// every page in `pages`.
  void map_pages(FileId file, std::span<const std::uint64_t> pages);

  /// The single LBA backing page `page` of `file` (writeback and sync).
  Lba page_lba(FileId file, std::uint64_t page);

  PageCache cache_;
  BlockLayer block_layer_;
  /// Pages with an async read in flight. A demand read of such a page
  /// waits for the in-flight I/O (the kernel's lock_page) instead of
  /// issuing a duplicate device read.
  std::unordered_set<PageKey, PageKeyHash> inflight_;

  // Per-request scratch; capacity is kept, so a warm synchronous read
  // allocates nothing.
  std::vector<std::uint64_t> missing_;    // pages to fetch on demand
  std::vector<std::uint64_t> wait_for_;   // pages with read-ahead in flight
  std::vector<std::uint64_t> readahead_;  // read-ahead window to fetch
  std::vector<PageRead> reads_;           // (LBA, page) of a fetch
  std::vector<LbaRange> ranges_;          // extent walk output
};

}  // namespace pipette
