#include "iopath/block_io_path.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "obs/trace.h"

namespace pipette {

BlockIoPath::BlockIoPath(Simulator& sim, SsdController& ssd, FileSystem& fs,
                         HostTiming timing, std::uint64_t page_cache_bytes,
                         ReadaheadConfig ra)
    : ReadPathBase(sim, ssd, fs, timing),
      cache_(page_cache_bytes, ra),
      block_layer_(sim, ssd, timing) {
  // Dirty evictions write back through the block layer (reclaim stall is
  // charged to whoever triggered the eviction, as in the kernel).
  cache_.set_writeback([this](const PageKey& key, const std::uint8_t* data) {
    block_layer_.write_page(page_lba(key.file_id, key.page), data);
  });
}

Lba BlockIoPath::page_lba(FileId file, std::uint64_t page) {
  ranges_.clear();
  fs_.extract_lbas(file, page * kBlockSize, kBlockSize, ranges_);
  PIPETTE_ASSERT(ranges_.size() == 1);
  return ranges_[0].lba;
}

void BlockIoPath::map_pages(FileId file,
                            std::span<const std::uint64_t> pages) {
  // LBA extraction for the fetch set (one mapping pass, ext4 extent walk).
  {
    TraceScope extent_scope(sim_, Stage::kExtentLookup);
    sim_.advance(timing_.fs_extent_lookup);
  }
  reads_.clear();
  for (std::uint64_t page : pages)
    reads_.push_back({page_lba(file, page), page});
}

bool BlockIoPath::fetch_pages(FileId file,
                              std::span<const std::uint64_t> pages,
                              std::uint64_t last_demand_page) {
  if (pages.empty()) return true;
  map_pages(file, pages);
  // Page allocation for everything about to enter the cache.
  sim_.advance(timing_.page_alloc * pages.size());
  return block_layer_.read_pages(
      reads_, cache_.frames(),
      [this, file, last_demand_page](const PageRead& read,
                                     std::uint8_t* frame) {
        cache_.insert({file, read.tag}, frame,
                      /*demand=*/read.tag <= last_demand_page);
      });
}

void BlockIoPath::fetch_pages_async(FileId file,
                                    std::span<const std::uint64_t> pages) {
  // The kernel allocates read-ahead pages and builds the requests in the
  // reader's context (synchronous CPU cost), but does not wait for the I/O.
  map_pages(file, pages);
  sim_.advance(timing_.page_alloc * pages.size());
  for (std::uint64_t page : pages) inflight_.insert({file, page});
  block_layer_.read_pages_async(
      reads_, cache_.frames(),
      [this, file](const PageRead& read, std::uint8_t* frame) {
        const PageKey key{file, read.tag};
        // A page written or demand-fetched while this read-ahead was in
        // flight must not be clobbered with stale bytes: its frame goes
        // back to the pool. A null frame marks a failed run: retire the
        // in-flight entry without inserting, so a later demand read
        // re-issues the I/O instead of hanging.
        if (frame != nullptr) {
          if (cache_.contains(key)) {
            cache_.frames().give_back(frame);
          } else {
            cache_.insert(key, frame, /*demand=*/false);
          }
        }
        inflight_.erase(key);
      });
}

bool BlockIoPath::buffered_read(FileId file, std::uint64_t offset,
                                std::span<std::uint8_t> out) {
  const std::uint64_t first_page = offset / kBlockSize;
  const std::uint64_t last_page = (offset + out.size() - 1) / kBlockSize;
  const auto demand_pages =
      static_cast<std::uint32_t>(last_page - first_page + 1);

  // Consult the page cache for every page the request spans. Pages with a
  // read-ahead already in flight are waited on (lock_page), not re-read.
  missing_.clear();
  wait_for_.clear();
  {
    TraceScope probe(sim_, Stage::kPageCache);
    for (std::uint64_t p = first_page; p <= last_page; ++p) {
      sim_.advance(timing_.page_cache_lookup);
      if (cache_.lookup({file, p}) != nullptr) continue;
      if (inflight_.contains({file, p})) {
        wait_for_.push_back(p);
      } else {
        missing_.push_back(p);
      }
    }
  }
  for (std::uint64_t p : wait_for_) {
    const PageKey key{file, p};
    const bool landed = sim_.run_until_condition(
        [&] { return !inflight_.contains(key); });
    PIPETTE_ASSERT_MSG(landed, "in-flight read-ahead never completed");
    // Rare: completed but instantly evicted (tiny cache) — fetch normally.
    if (!cache_.contains(key)) missing_.push_back(p);
  }

  bool fetched_ok = true;
  if (!missing_.empty()) {
    // Read-ahead planning keys off the first missing page. The demanded
    // pages block this read; the read-ahead window is fetched
    // asynchronously, like the kernel's async readahead.
    const std::uint32_t extra =
        cache_.plan_readahead({file, missing_.front()}, demand_pages);
    const std::uint64_t file_pages =
        (fs_.inode(file).size + kBlockSize - 1) / kBlockSize;
    readahead_.clear();
    for (std::uint32_t i = 1; i <= extra; ++i) {
      const std::uint64_t p = last_page + i;
      if (p >= file_pages) break;
      if (!cache_.contains({file, p})) readahead_.push_back(p);
    }
    fetched_ok = fetch_pages(file, missing_, last_page);
    if (!readahead_.empty()) fetch_pages_async(file, readahead_);
  }

  // Copy out of the page cache. Pages were just inserted, so they are
  // resident (MRU) unless capacity is smaller than the request span — or a
  // media error kept one from ever arriving.
  // Destructor records the partial span even on the unreadable-page return.
  TraceScope copy_scope(sim_, Stage::kHostCopy);
  std::uint64_t pos = offset;
  std::size_t copied = 0;
  while (copied < out.size()) {
    const std::uint64_t page = pos / kBlockSize;
    const std::uint32_t in_page = static_cast<std::uint32_t>(pos % kBlockSize);
    const std::uint32_t take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockSize - in_page, out.size() - copied));
    const CachedPage* cp = cache_.get({file, page});
    if (cp == nullptr && !fetched_ok) return false;  // unreadable page
    PIPETTE_ASSERT_MSG(cp != nullptr,
                       "page evicted before copy-out; page cache smaller "
                       "than a single request span");
    std::memcpy(out.data() + copied, cp->data + in_page, take);
    sim_.advance(timing_.copy_cost(take));
    copied += take;
    pos += take;
  }
  return true;
}

SimDuration BlockIoPath::read(FileId file, int /*open_flags*/,
                              std::uint64_t offset,
                              std::span<std::uint8_t> out) {
  const SimTime t0 = sim_.now();
  PIPETTE_TRACE_REQUEST(sim_);
  {
    TraceScope submit_scope(sim_, Stage::kHostSubmit);
    sim_.advance(timing_.syscall + timing_.vfs_lookup);
  }
  const bool ok = buffered_read(file, offset, out);
  const SimDuration latency = sim_.now() - t0;
  if (!ok) {
    ++stats_.failed_reads;
    return latency;
  }
  note_read(out.size(), latency);
  return latency;
}

bool BlockIoPath::buffered_write(FileId file, std::uint64_t offset,
                                 std::span<const std::uint8_t> data) {
  // Buffered write: read-modify-write partial pages, overwrite full ones,
  // mark everything dirty. Writeback happens on eviction or sync().
  std::uint64_t pos = offset;
  std::size_t written = 0;
  while (written < data.size()) {
    const std::uint64_t page = pos / kBlockSize;
    const std::uint32_t in_page = static_cast<std::uint32_t>(pos % kBlockSize);
    const std::uint32_t take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockSize - in_page, data.size() - written));
    sim_.advance(timing_.page_cache_lookup);
    CachedPage* cp = cache_.lookup({file, page});
    if (cp == nullptr) {
      if (take == kBlockSize) {
        // Full overwrite: no need to read the old contents.
        std::uint8_t* frame = cache_.frames().take();
        std::memset(frame, 0, kBlockSize);
        sim_.advance(timing_.page_alloc);
        cache_.insert({file, page}, frame, /*demand=*/true);
      } else {
        // Read-modify-write: an unreadable source page fails the write.
        if (!fetch_pages(file, {&page, 1}, page)) return false;
      }
      cp = cache_.get({file, page});
      PIPETTE_ASSERT(cp != nullptr);
    }
    std::memcpy(cp->data + in_page, data.data() + written, take);
    sim_.advance(timing_.copy_cost(take));
    cache_.mark_dirty({file, page});
    written += take;
    pos += take;
  }
  return true;
}

SimDuration BlockIoPath::write(FileId file, int /*open_flags*/,
                               std::uint64_t offset,
                               std::span<const std::uint8_t> data) {
  const SimTime t0 = sim_.now();
  PIPETTE_TRACE_REQUEST(sim_);
  {
    TraceScope submit_scope(sim_, Stage::kHostSubmit);
    sim_.advance(timing_.syscall + timing_.vfs_lookup);
  }
  if (buffered_write(file, offset, data)) {
    ++stats_.writes;
  } else {
    ++stats_.failed_writes;
  }
  return sim_.now() - t0;
}

void BlockIoPath::sync() {
  cache_.flush([this](const PageKey& key, const std::uint8_t* data) {
    block_layer_.write_page(page_lba(key.file_id, key.page), data);
  });
}

}  // namespace pipette
