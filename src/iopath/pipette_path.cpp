#include "iopath/pipette_path.h"

#include <cstring>
#include <vector>

#include "common/assert.h"
#include "obs/trace.h"

namespace pipette {

PipettePath::PipettePath(Simulator& sim, SsdController& ssd, FileSystem& fs,
                         HostTiming timing, PipettePathConfig config)
    : ReadPathBase(sim, ssd, fs, timing),
      config_(std::move(config)),
      block_(sim, ssd, fs, timing, config_.page_cache_bytes,
             config_.readahead) {
  // Config contract: anything the dispatcher sends down the fine path must
  // fit the TempBuf (the non-promoted staging area).
  PIPETTE_ASSERT_MSG(
      config_.dispatch.fine_max_len <= ssd_.hmb().tempbuf().size(),
      "dispatcher fine_max_len exceeds the HMB TempBuf");
  fgrc_ = std::make_unique<FineGrainedReadCache>(
      ssd_.hmb(), config_.fgrc, &block_.page_cache().hit_counter());
  if (config_.prefetch.enabled && config_.use_cache) {
    // Speculation splits the TempBuf in half; demand staging must still fit
    // its (lower) half.
    PIPETTE_ASSERT_MSG(
        config_.dispatch.fine_max_len <= ssd_.hmb().tempbuf().size() / 2,
        "dispatcher fine_max_len exceeds the demand half of the TempBuf");
    fgrc_->enable_speculative_staging();
    prefetcher_ = std::make_unique<Prefetcher>(
        sim_, ssd_, fs_, *fgrc_, config_.prefetch,
        [this](FileId f, std::uint64_t page) {
          return block_.page_cache().contains({f, page});
        });
  }
}

void PipettePath::reset_fgrc() {
  const FgrcStats saved = fgrc_->stats();
  fgrc_ = std::make_unique<FineGrainedReadCache>(
      ssd_.hmb(), config_.fgrc, &block_.page_cache().hit_counter());
  fgrc_->restore_stats(saved);
  if (prefetcher_ != nullptr) {
    fgrc_->enable_speculative_staging();
    prefetcher_->on_cache_reset(*fgrc_);
  }
}

bool PipettePath::await_completion() {
  const SimDuration guard = ssd_.config().faults.hmb.timeout;
  if (guard == 0) {
    const bool completed =
        sim_.run_until_condition([this] { return wait_done_; });
    PIPETTE_ASSERT_MSG(completed,
                       "fine-grained command never completed (set the HMB "
                       "fault timeout to fail the request instead)");
    return true;
  }
  const SimTime deadline = sim_.now() + guard;
  if (sim_.run_until_condition_before([this] { return wait_done_; },
                                      deadline)) {
    return true;
  }
  // Lost completion: charge the full guard interval, then invalidate the
  // outstanding ticket so a late completion cannot touch this wait's state.
  if (sim_.now() < deadline) sim_.advance(deadline - sim_.now());
  ++wait_ticket_;
  ++pstats_.lost_completions;
  return false;
}

SimDuration PipettePath::buffer_read_cost(std::uint64_t bytes) const {
  if (ssd_.config().interconnect == InterconnectKind::kLmb) {
    return ssd_.config().lmb.host_read_cost(bytes);
  }
  return timing_.copy_cost(bytes);
}

PipettePath::FineOutcome PipettePath::fine_read(FileId file,
                                                std::uint64_t offset,
                                                std::span<std::uint8_t> out) {
  ++pstats_.fine_reads;
  pending_pred_ = StreamPrediction{};  // kRandom: no speculation by default
  const std::uint64_t first_page = offset / kBlockSize;
  const std::uint64_t last_page = (offset + out.size() - 1) / kBlockSize;

  // §3.1.2: the request "goes through the VFS layer and is first performed
  // by the page cache". If any spanned page is resident (possibly dirty
  // from a recent write), serve through the block route, which guarantees
  // the freshest bytes. Probes use contains() so the page cache hit ratio
  // keeps describing the block-routed traffic only.
  bool any_resident = false;
  {
    TraceScope probe(sim_, Stage::kPageCache);
    for (std::uint64_t p = first_page; p <= last_page; ++p) {
      sim_.advance(timing_.page_cache_lookup);
      if (block_.page_cache().contains({file, p})) {
        any_resident = true;
        break;
      }
    }
  }
  if (any_resident) {
    ++pstats_.page_cache_served_fine;
    return block_.buffered_read(file, offset, out) ? FineOutcome::kOk
                                                   : FineOutcome::kFailed;
  }

  // Page-cache miss: the Detector verifies permission (already routed) and
  // tracks which part of each page is demanded.
  {
    TraceScope detector_scope(sim_, Stage::kDetector);
    sim_.advance(timing_.detector_check);
    std::uint64_t pos = offset;
    std::size_t left = out.size();
    while (left > 0) {
      const std::uint64_t page = pos / kBlockSize;
      const std::uint32_t in_page =
          static_cast<std::uint32_t>(pos % kBlockSize);
      const std::uint32_t take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBlockSize - in_page, left));
      detector_.record(file, page, in_page, take);
      pos += take;
      left -= take;
    }
    if (prefetcher_ != nullptr) {
      pending_pred_ = detector_.observe(
          file, offset, static_cast<std::uint32_t>(out.size()));
    }
  }

  const FgKey key{file, offset, static_cast<std::uint32_t>(out.size())};

  // Claim any speculative fill for this key (waiting out an in-flight one
  // under the timeout guard). A promoted fill then hits in the FGRC below;
  // a TempBuf fill warmed the device read buffer, so the re-fetch skips
  // NAND. Claiming before the lookup keeps hit attribution exact.
  if (prefetcher_ != nullptr) prefetcher_->on_demand(key);

  if (config_.use_cache) {
    // Dispatch to the per-file hash lookup table.
    std::optional<std::span<const std::uint8_t>> hit;
    {
      TraceScope lookup_scope(sim_, Stage::kFgrcLookup);
      sim_.advance(timing_.fgrc_lookup);
      hit = fgrc_->lookup(key);
    }
    if (hit) {
      PIPETTE_ASSERT(hit->size() == out.size());
      TraceScope copy_scope(sim_, Stage::kHostCopy);
      std::memcpy(out.data(), hit->data(), out.size());
      sim_.advance(buffer_read_cost(out.size()));
      return FineOutcome::kOk;
    }
  }

  // Miss: decide placement. Without the cache everything stages through
  // the TempBuf region.
  MissPlan plan;
  if (config_.use_cache) {
    plan = fgrc_->plan_miss(key);
    if (plan.promoted) {
      TraceScope fill_scope(sim_, Stage::kFgrcFill);
      sim_.advance(timing_.fgrc_insert);
    }
  } else {
    plan.dest = fgrc_->tempbuf_addr(key.len);
    plan.promoted = false;
  }

  // Constructor: the LBA Extractor resolves the range, bypassing the
  // generic block layer; the Requester pushes Info Area records (one per
  // page-range, each carrying its destination address) and submits the
  // reconstructed FG_READ.
  {
    TraceScope extent_scope(sim_, Stage::kExtentLookup);
    sim_.advance(timing_.fs_extent_lookup);
    lba_scratch_.clear();
    fs_.extract_lbas(file, offset, out.size(), lba_scratch_);
  }

  InfoArea& info = ssd_.hmb().info();
  Command cmd;
  cmd.op = Opcode::kFgRead;
  cmd.ranges = ssd_.take_fg_ranges();
  HmbAddr dest = plan.dest;
  for (const LbaRange& r : lba_scratch_) {
    PIPETTE_ASSERT_MSG(!info.full(), "Info Area backpressure");
    const std::uint64_t idx =
        info.push({dest, r.lba, r.offset, r.len}, sim_.now());
    cmd.ranges.push_back({r.lba, r.offset, r.len, idx});
    dest += r.len;
  }
  // Ring enqueue costs no modelled time; the zero-length span still counts
  // pushes in the info_ring histogram row.
  PIPETTE_TRACE_SPAN(sim_, Stage::kInfoRing, sim_.now(), sim_.now());
  wait_done_ = false;
  const std::uint64_t ticket = ++wait_ticket_;
  ssd_.submit(std::move(cmd), [this, ticket](const CommandResult& r) {
    if (ticket != wait_ticket_) return;  // stale: that wait timed out
    wait_result_ = r;
    wait_done_ = true;
  });
  if (!await_completion()) {
    // Dropped completion: the reserved FGRC slot never got its bytes.
    fgrc_->abort_fill(key, plan);
    return FineOutcome::kFailed;
  }
  if (wait_result_.status == CmdStatus::kHmbFault) {
    // The engine could not reach its HMB destinations. Degrade gracefully:
    // evict the poisoned reservation and serve through the block path.
    ++pstats_.hmb_fault_fallbacks;
    fgrc_->abort_fill(key, plan);
    return block_.buffered_read(file, offset, out) ? FineOutcome::kDegraded
                                                   : FineOutcome::kFailed;
  }
  if (wait_result_.status == CmdStatus::kMediaError) {
    fgrc_->abort_fill(key, plan);
    return FineOutcome::kFailed;
  }

  // The demanded bytes are in the HMB (cache item or TempBuf); hand them
  // to the user.
  TraceScope copy_scope(sim_, Stage::kHostCopy);
  ssd_.hmb().read(plan.dest, out);
  sim_.advance(buffer_read_cost(out.size()));
  return FineOutcome::kOk;
}

SimDuration PipettePath::read(FileId file, int open_flags,
                              std::uint64_t offset,
                              std::span<std::uint8_t> out) {
  const SimTime t0 = sim_.now();
  PIPETTE_TRACE_REQUEST(sim_);
  {
    TraceScope submit_scope(sim_, Stage::kHostSubmit);
    sim_.advance(timing_.syscall + timing_.vfs_lookup);
  }

  // Pipette w/o cache routes everything down the byte path (its I/O
  // traffic is exactly the requested bytes at every size, Table 2/3) —
  // bounded by the TempBuf staging capacity, beyond which only the block
  // interface can carry the request.
  Route route = Route::kFine;
  if (config_.use_cache) {
    route = dispatch_read(config_.dispatch, open_flags, offset, out.size());
  } else if (!FineGrainedAccessDetector::permitted(open_flags) ||
             out.size() > ssd_.hmb().tempbuf().size()) {
    route = Route::kBlock;
  }

  FineOutcome outcome;
  if (route == Route::kBlock) {
    ++pstats_.block_reads;
    outcome = block_.buffered_read(file, offset, out) ? FineOutcome::kOk
                                                      : FineOutcome::kFailed;
  } else {
    outcome = fine_read(file, offset, out);
  }
  const SimDuration latency = sim_.now() - t0;
  if (outcome == FineOutcome::kFailed) {
    ++stats_.failed_reads;
    return latency;
  }
  if (outcome == FineOutcome::kDegraded) ++stats_.degraded_reads;
  note_read(out.size(), latency);
  // Speculation rides the tail of the syscall, after the demand latency was
  // captured — like kernel readahead kicked off on the way out of read().
  if (prefetcher_ != nullptr && route == Route::kFine &&
      outcome == FineOutcome::kOk) {
    prefetcher_->maybe_issue(pending_pred_);
  }
  return latency;
}

PipettePath::FineWriteOutcome PipettePath::try_fine_write(
    FileId file, int open_flags, std::uint64_t offset,
    std::span<const std::uint8_t> data) {
  using Out = FineWriteOutcome;
  if (!config_.fine_writes || !config_.use_cache) return Out::kNotTaken;
  if (!FineGrainedAccessDetector::permitted(open_flags)) return Out::kNotTaken;
  if (data.size() >= kBlockSize) return Out::kNotTaken;
  if (data.size() > ssd_.hmb().tempbuf().size()) return Out::kNotTaken;

  // Any spanned page that is dirty in the page cache holds newer bytes than
  // flash; a device-side RMW would resurrect stale data. Fall back to the
  // buffered block write, which merges correctly.
  const std::uint64_t first_page = offset / kBlockSize;
  const std::uint64_t last_page = (offset + data.size() - 1) / kBlockSize;
  for (std::uint64_t p = first_page; p <= last_page; ++p) {
    sim_.advance(timing_.page_cache_lookup);
    const CachedPage* cp = block_.page_cache().get({file, p});
    if (cp != nullptr && cp->dirty) return Out::kNotTaken;
  }
  // Clean resident copies become stale the moment the device writes; drop
  // them.
  for (std::uint64_t p = first_page; p <= last_page; ++p) {
    block_.page_cache().invalidate({file, p});
  }

  // FGRC: update an exact-match item in place (cache stays warm); any other
  // overlapping item is deleted, as in the read path's consistency rule.
  const FgKey key{file, offset, static_cast<std::uint32_t>(data.size())};
  sim_.advance(timing_.fgrc_lookup);
  if (fgrc_->update_in_place(key, data)) {
    ++pstats_.fgrc_inplace_updates;
    // Items overlapping but not equal must still go.
    fgrc_->invalidate_range(file, offset, data.size(), &key);
  } else {
    fgrc_->invalidate_range(file, offset, data.size());
  }

  // Constructor + Requester, write flavour: resolve the pages, ship only
  // the new bytes, let the device RMW internally.
  sim_.advance(timing_.fs_extent_lookup);
  lba_scratch_.clear();
  fs_.extract_lbas(file, offset, data.size(), lba_scratch_);
  Command cmd;
  cmd.op = Opcode::kFgWrite;
  cmd.write_data.assign(data.begin(), data.end());
  cmd.ranges = ssd_.take_fg_ranges();
  for (const LbaRange& r : lba_scratch_) {
    cmd.ranges.push_back({r.lba, r.offset, r.len, 0});
  }
  wait_done_ = false;
  const std::uint64_t ticket = ++wait_ticket_;
  ssd_.submit(std::move(cmd), [this, ticket](const CommandResult& r) {
    if (ticket != wait_ticket_) return;
    wait_result_ = r;
    wait_done_ = true;
  });
  if (!await_completion() || wait_result_.status != CmdStatus::kOk) {
    // The device-side RMW did not (fully) persist. Drop anything the cache
    // holds for this range — including the in-place update above — so later
    // reads cannot see bytes that never reached flash.
    fgrc_->invalidate_range(file, offset, data.size());
    return Out::kFailed;
  }
  ++pstats_.fine_writes;
  return Out::kOk;
}

SimDuration PipettePath::write(FileId file, int open_flags,
                               std::uint64_t offset,
                               std::span<const std::uint8_t> data) {
  const SimTime t0 = sim_.now();
  PIPETTE_TRACE_REQUEST(sim_);
  {
    TraceScope submit_scope(sim_, Stage::kHostSubmit);
    sim_.advance(timing_.syscall + timing_.vfs_lookup);
  }

  switch (try_fine_write(file, open_flags, offset, data)) {
    case FineWriteOutcome::kOk:
      ++stats_.writes;
      return sim_.now() - t0;
    case FineWriteOutcome::kFailed:
      ++stats_.failed_writes;
      return sim_.now() - t0;
    case FineWriteOutcome::kNotTaken:
      break;
  }

  // §3.1.3: every write checks the fine-grained read cache and deletes the
  // found items, so later fine reads see either the page cache's fresh
  // copy or the post-flush flash state — never the stale cached bytes.
  sim_.advance(timing_.fgrc_lookup);
  fgrc_->invalidate_range(file, offset, data.size());
  if (block_.buffered_write(file, offset, data)) {
    ++pstats_.block_writes;
    ++stats_.writes;
  } else {
    ++stats_.failed_writes;
  }
  return sim_.now() - t0;
}

}  // namespace pipette
