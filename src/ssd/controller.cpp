#include "ssd/controller.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace pipette {

namespace {
std::uint64_t resolve_lba_count(const ControllerConfig& config) {
  if (config.lba_count != 0) return config.lba_count;
  const std::uint64_t total = config.geometry.total_pages();
  return total - total / 8;
}
}  // namespace

const char* to_string(CmdStatus s) {
  switch (s) {
    case CmdStatus::kOk:
      return "ok";
    case CmdStatus::kMediaError:
      return "media-error";
    case CmdStatus::kHmbFault:
      return "hmb-fault";
  }
  return "?";
}

// Shared state of one in-flight fine-grained command. Pooled: the record is
// reused across commands, so the by-page grouping keeps its vector
// capacities and the steady state allocates nothing.
struct SsdController::FgJob {
  Command cmd;
  Completion done;
  std::uint32_t pages_pending = 0;
  std::uint32_t ranges_pending = 0;
  bool media_failed = false;      // some page exhausted its retry budget
  bool drop_completion = false;   // injected lost CQ entry for this command

  struct PageGroup {
    Lba lba = kInvalidLba;
    // Range pointer into cmd.ranges (stable: the vector is not resized
    // after grouping) + byte offset of its payload within cmd.write_data
    // (kFgWrite only; 0 for reads).
    std::vector<std::pair<const FgRange*, std::uint64_t>> ranges;
  };
  std::vector<PageGroup> by_page;
  std::size_t pages_used = 0;  // by_page[0..pages_used) are this command's
};

// Shared state of one in-flight block read/write: the command, the host
// completion and the pages-outstanding fan-in counter.
struct SsdController::BlockJob {
  Command cmd;
  Completion done;
  std::uint32_t remaining = 0;
  bool failed = false;  // some page exhausted its retry budget
};

SsdController::SsdController(Simulator& sim, const ControllerConfig& config)
    : sim_(sim),
      config_(config),
      content_(config.content_seed),
      nand_(sim, config.geometry, config.nand_timing, config.faults.nand,
            config.faults.seed),
      ftl_(config.geometry, resolve_lba_count(config), config.mapping_unit),
      pcie_(sim, config.pcie, config.lmb),
      hmb_(config.hmb),
      cmb_(config.cmb_slots),
      hmb_faults_(config.faults.seed, FaultDomain::kHmbDma),
      read_buffer_(std::max<std::uint64_t>(
          1, config.read_buffer_bytes / kBlockSize)) {}

SsdController::~SsdController() = default;

void SsdController::submit(Command cmd, Completion done) {
  ++stats_.commands;
  // Submission path: host driver builds the SQE, rings the doorbell, the
  // controller fetches the command; firmware then begins processing. The
  // command parks in a pooled slot so the scheduled closure captures only
  // {this, slot} and stays within the callback's inline buffer.
  const SimDuration entry =
      config_.timing.submission + config_.timing.firmware_per_cmd;
  PIPETTE_TRACE_SPAN(sim_, Stage::kQueue, sim_.now(),
                     sim_.now() + config_.timing.submission);
  PIPETTE_TRACE_SPAN(sim_, Stage::kFtl,
                     sim_.now() + config_.timing.submission,
                     sim_.now() + entry);
  std::uint32_t slot;
  if (!pending_free_.empty()) {
    slot = pending_free_.back();
    pending_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pending_cmds_.size());
    pending_cmds_.emplace_back();
  }
  pending_cmds_[slot].cmd = std::move(cmd);
  pending_cmds_[slot].done = std::move(done);
  sim_.schedule(entry, [this, slot]() {
    PendingCmd& parked = pending_cmds_[slot];
    Command cmd = std::move(parked.cmd);
    Completion done = std::move(parked.done);
    pending_free_.push_back(slot);
    switch (cmd.op) {
      case Opcode::kRead:
        do_block_read(std::move(cmd), std::move(done));
        break;
      case Opcode::kWrite:
        do_block_write(std::move(cmd), std::move(done));
        break;
      case Opcode::kFgRead:
        do_fg_read(std::move(cmd), std::move(done));
        break;
      case Opcode::kFgWrite:
        do_fg_write(std::move(cmd), std::move(done));
        break;
      case Opcode::kReadToCmb:
        do_read_to_cmb(std::move(cmd), std::move(done));
        break;
    }
  });
}

std::vector<FgRange> SsdController::take_fg_ranges() {
  if (fg_range_pool_.empty()) return {};
  std::vector<FgRange> out = std::move(fg_range_pool_.back());
  fg_range_pool_.pop_back();
  return out;
}

void SsdController::recycle_fg_ranges(std::vector<FgRange>&& ranges) {
  if (ranges.capacity() == 0) return;
  ranges.clear();
  // A handful of buffers covers every in-flight fine-grained command; the
  // cap only guards against a pathological burst pinning memory.
  if (fg_range_pool_.size() < 64) fg_range_pool_.push_back(std::move(ranges));
}

void SsdController::fine_dma(std::uint64_t bytes,
                             Simulator::Callback on_done) {
  if (config_.interconnect == InterconnectKind::kLmb) {
    pcie_.dma_lmb(bytes, std::move(on_done));
  } else {
    pcie_.dma(bytes, std::move(on_done), Stage::kHmbDma);
  }
}

void SsdController::complete(Completion& done, CommandResult result) {
  PIPETTE_TRACE_SPAN(sim_, Stage::kComplete, sim_.now(),
                     sim_.now() + config_.timing.completion);
  sim_.schedule(config_.timing.completion,
                [done = std::move(done), result]() { done(result); });
}

std::uint32_t SsdController::acquire_stage_slot(StageCallback ready) {
  std::uint32_t slot;
  if (!stage_free_.empty()) {
    slot = stage_free_.back();
    stage_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(stage_slots_.size());
    stage_slots_.emplace_back();
  }
  stage_slots_[slot].ready = std::move(ready);
  stage_slots_[slot].ok = true;
  stage_slots_[slot].pending = 1;
  return slot;
}

void SsdController::stage_page(Lba lba, StageCallback ready,
                               bool use_buffer) {
  PIPETTE_ASSERT(lba < ftl_.lba_count());
  if (use_buffer) {
    if (read_buffer_.find(lba) != nullptr) {
      stats_.read_buffer.record(true);
      ready(true);
      return;
    }
    stats_.read_buffer.record(false);
  }
  ftl_.note_read();
  if (ftl_.slots_per_page() == 1) {
    const PhysPageAddr addr = ftl_.lookup(lba);
    // Park `ready` (itself a full-size callback) in a pooled slot so the
    // NAND completion closure does not nest one callback inside another.
    const std::uint32_t slot = acquire_stage_slot(std::move(ready));
    const NandReadOutcome outcome =
        nand_.read_page(addr, [this, lba, slot, use_buffer]() {
          StageSlot& parked = stage_slots_[slot];
          const bool ok = parked.ok;
          if (ok && use_buffer) read_buffer_.insert(lba, 0);
          StageCallback ready = std::move(parked.ready);
          stage_free_.push_back(slot);
          ready(ok);
        });
    if (outcome.failed) {
      stage_slots_[slot].ok = false;
      ++stats_.media_errors;
    }
    return;
  }
  // MU-mapped device: partial writes may have scattered the LBA's MUs over
  // several physical pages. Sense every holder (each transferring only its
  // MUs' bytes) and fan the reads into the parked slot; the page counts as
  // staged when the last one lands.
  ftl_.lookup_pages(lba, stage_pages_scratch_);
  const std::uint32_t slot = acquire_stage_slot(std::move(ready));
  stage_slots_[slot].pending =
      static_cast<std::uint32_t>(stage_pages_scratch_.size());
  for (const MuPageRead& r : stage_pages_scratch_) {
    const NandReadOutcome outcome =
        nand_.read_page(r.addr, [this, lba, slot, use_buffer]() {
          StageSlot& parked = stage_slots_[slot];
          if (--parked.pending > 0) return;
          const bool ok = parked.ok;
          if (ok && use_buffer) read_buffer_.insert(lba, 0);
          StageCallback ready = std::move(parked.ready);
          stage_free_.push_back(slot);
          ready(ok);
        }, r.bytes);
    if (outcome.failed) {
      stage_slots_[slot].ok = false;
      ++stats_.media_errors;
    }
  }
}

SsdController::BlockJob* SsdController::acquire_block_job(Command cmd,
                                                          Completion done) {
  BlockJob* job;
  if (!block_job_free_.empty()) {
    job = block_job_free_.back();
    block_job_free_.pop_back();
  } else {
    block_job_pool_.push_back(std::make_unique<BlockJob>());
    job = block_job_pool_.back().get();
  }
  job->cmd = std::move(cmd);
  job->done = std::move(done);
  job->remaining = 0;
  job->failed = false;
  return job;
}

void SsdController::finish_block_job(BlockJob* job, CmdStatus status) {
  Completion done = std::move(job->done);
  job->cmd = Command{};
  block_job_free_.push_back(job);
  complete(done, CommandResult{sim_.now(), 0, status});
}

void SsdController::do_block_read(Command cmd, Completion done) {
  ++stats_.block_reads;
  PIPETTE_ASSERT(cmd.nlb >= 1);
  PIPETTE_ASSERT(cmd.host_dest.size() >=
                 static_cast<std::size_t>(cmd.nlb) * kBlockSize);

  // Stage every page into the device buffer (NAND reads run in parallel
  // across dies), then move the whole payload to the host in one DMA.
  BlockJob* job = acquire_block_job(std::move(cmd), std::move(done));
  job->remaining = job->cmd.nlb;
  for (std::uint32_t i = 0; i < job->cmd.nlb; ++i) {
    stage_page(
        job->cmd.lba + i,
        [this, job](bool ok) {
          if (!ok) job->failed = true;
          if (--job->remaining > 0) return;
          if (job->failed) {
            // A page never materialised: fail the whole command without
            // moving any payload to the host.
            finish_block_job(job, CmdStatus::kMediaError);
            return;
          }
          const std::uint64_t bytes =
              static_cast<std::uint64_t>(job->cmd.nlb) * kBlockSize;
          pcie_.dma(bytes, [this, job, bytes]() {
            for (std::uint32_t p = 0; p < job->cmd.nlb; ++p) {
              content_.read(job->cmd.lba + p, 0,
                            job->cmd.host_dest.subspan(
                                static_cast<std::size_t>(p) * kBlockSize,
                                kBlockSize));
            }
            stats_.bytes_to_host += bytes;
            finish_block_job(job, CmdStatus::kOk);
          });
        },
        config_.block_reads_use_buffer);
  }
}

void SsdController::do_block_write(Command cmd, Completion done) {
  ++stats_.block_writes;
  PIPETTE_ASSERT(cmd.write_data.size() ==
                 static_cast<std::size_t>(cmd.nlb) * kBlockSize);
  // Content lands in the overlay at firmware time; programs then persist it.
  for (std::uint32_t i = 0; i < cmd.nlb; ++i) {
    content_.write(cmd.lba + i, 0,
                   std::span<const std::uint8_t>(
                       cmd.write_data.data() +
                           static_cast<std::size_t>(i) * kBlockSize,
                       kBlockSize));
    // The freshly written page supersedes any stale copy in device DRAM;
    // keep the buffer coherent by dropping it (next read re-stages).
    read_buffer_.erase(cmd.lba + i);
  }
  BlockJob* job = acquire_block_job(std::move(cmd), std::move(done));
  // With MU < page a write seals 0..2 pages (the rest of its MUs wait in
  // the controller write cache for later merges), so the fan-in counts
  // issued programs plus an issuance guard; the command completes when the
  // last program lands — or immediately at the write-cache ack if nothing
  // sealed. With MU = page every write seals exactly one page and this is
  // the classic one-program-per-LBA flow.
  job->remaining = 1;
  for (std::uint32_t i = 0; i < job->cmd.nlb; ++i) {
    ftl_.update(job->cmd.lba + i);
    perform_gc_moves();
    issue_host_programs([this, job](const PageProgram& p) {
      ++job->remaining;
      nand_.program_page(p.addr, [this, job]() {
        if (--job->remaining == 0) finish_block_job(job, CmdStatus::kOk);
      });
    });
  }
  if (--job->remaining == 0) finish_block_job(job, CmdStatus::kOk);
}

void SsdController::perform_gc_moves() {
  // GC relocations occupy dies and channels in the background; the host
  // command does not wait for them, but subsequent operations queue behind
  // the busy hardware — write amplification becomes visible as time.
  for (const GcMove& move : ftl_.take_gc_moves()) {
    gc_buffer_occ_.update(sim_.now(), ++gc_buffer_level_);
    nand_.read_page(
        move.from,
        [this, move]() {
          nand_.program_page(move.to, [] {}, NandOpClass::kGc);
          gc_buffer_occ_.update(sim_.now(), --gc_buffer_level_);
        },
        0, NandOpClass::kGc);
  }
  if (!ftl_.has_pending_gc_work()) return;
  // Erases take no simulated time, but they advance the per-die wear
  // counters that drive the erase-correlated NAND fault window.
  ftl_.drain_erased_dies(erase_scratch_);
  for (const std::uint32_t die : erase_scratch_) nand_.note_erase(die);
  // Decoupled GC episode (MU < page): fill the GC page buffer with each
  // victim page's live MUs (only those bytes cross the channel), and once
  // every read has landed issue the merged re-pack programs. Sealed GC
  // pages can only exist alongside at least one buffer read, so programs
  // never wait here with an empty read set.
  ftl_.drain_gc_page_reads(gc_read_scratch_);
  if (gc_read_scratch_.empty()) return;
  std::uint32_t bi;
  if (!gc_batch_free_.empty()) {
    bi = gc_batch_free_.back();
    gc_batch_free_.pop_back();
  } else {
    bi = static_cast<std::uint32_t>(gc_batches_.size());
    gc_batches_.emplace_back();
  }
  GcBatch& batch = gc_batches_[bi];
  ftl_.drain_gc_page_programs(batch.programs);
  batch.reads_pending = static_cast<std::uint32_t>(gc_read_scratch_.size());
  gc_buffer_occ_.update(sim_.now(), gc_buffer_level_ += batch.reads_pending);
  for (const MuPageRead& r : gc_read_scratch_) {
    nand_.read_page(r.addr, [this, bi]() {
      gc_buffer_occ_.update(sim_.now(), --gc_buffer_level_);
      GcBatch& b = gc_batches_[bi];
      if (--b.reads_pending > 0) return;
      for (const PageProgram& p : b.programs)
        nand_.program_page(p.addr, [] {}, NandOpClass::kGc);
      b.programs.clear();
      gc_batch_free_.push_back(bi);
    }, r.bytes, NandOpClass::kGc);
  }
}

SsdController::FgJob* SsdController::acquire_fg_job(Command cmd,
                                                    Completion done) {
  FgJob* job;
  if (!fg_job_free_.empty()) {
    job = fg_job_free_.back();
    fg_job_free_.pop_back();
  } else {
    fg_job_pool_.push_back(std::make_unique<FgJob>());
    job = fg_job_pool_.back().get();
  }
  job->cmd = std::move(cmd);
  job->done = std::move(done);
  job->pages_pending = 0;
  job->ranges_pending = 0;
  job->media_failed = false;
  job->drop_completion = false;
  job->pages_used = 0;
  return job;
}

void SsdController::release_fg_job(FgJob* job) {
  job->cmd = Command{};
  fg_job_free_.push_back(job);
}

void SsdController::group_ranges_by_page(FgJob& job, bool with_offsets) {
  job.pages_used = 0;
  std::uint64_t consumed = 0;
  for (const FgRange& r : job.cmd.ranges) {
    PIPETTE_ASSERT(r.len > 0 && r.offset + r.len <= kBlockSize);
    FgJob::PageGroup* group = nullptr;
    // Linear scan: fine-grained commands span a handful of pages at most.
    for (std::size_t i = 0; i < job.pages_used; ++i) {
      if (job.by_page[i].lba == r.lba) {
        group = &job.by_page[i];
        break;
      }
    }
    if (group == nullptr) {
      if (job.pages_used == job.by_page.size()) job.by_page.emplace_back();
      group = &job.by_page[job.pages_used++];
      group->lba = r.lba;
      group->ranges.clear();
    }
    group->ranges.emplace_back(&r, with_offsets ? consumed : 0);
    consumed += r.len;
  }
  // Ascending-Lba page order (unique keys, so the sort is deterministic).
  std::sort(job.by_page.begin(),
            job.by_page.begin() + static_cast<std::ptrdiff_t>(job.pages_used),
            [](const FgJob::PageGroup& a, const FgJob::PageGroup& b) {
              return a.lba < b.lba;
            });
}

// Once every range of every page has been DMAed, retire the command and
// advance the Info Area head past all of this command's records.
void SsdController::fg_range_done(FgJob* job) {
  if (--job->ranges_pending > 0) return;
  // Device "digests items in Info Area and increases the head's value":
  // retire this command's records — even for failed commands, so the ring
  // never leaks. release() keeps the head correct when concurrent commands
  // (demand + speculative prefetch) retire out of push order.
  for (const FgRange& r : job->cmd.ranges)
    hmb_.info().release(r.info_index, sim_.now());
  recycle_fg_ranges(std::move(job->cmd.ranges));
  const CmdStatus status =
      job->media_failed ? CmdStatus::kMediaError : CmdStatus::kOk;
  const bool drop = job->drop_completion;
  Completion done = std::move(job->done);
  release_fg_job(job);
  if (drop) {
    // Injected lost completion: the work happened but the CQ entry never
    // arrives. The host's timeout guard is responsible for recovery.
    ++stats_.dropped_completions;
    return;
  }
  complete(done, CommandResult{sim_.now(), 0, status});
}

void SsdController::do_fg_read(Command cmd, Completion done) {
  ++stats_.fg_reads;
  stats_.fg_ranges += cmd.ranges.size();
  PIPETTE_ASSERT(!cmd.ranges.empty());

  FgJob* job = acquire_fg_job(std::move(cmd), std::move(done));
  job->ranges_pending = static_cast<std::uint32_t>(job->cmd.ranges.size());

  // Injected HMB/DMA faults are decided up front — one fixed-order pair of
  // draws per command — so the fault stream replays identically regardless
  // of completion interleaving.
  const HmbFaultPlan& hf = config_.faults.hmb;
  const bool hmb_fault = hmb_faults_.fire(hf.dma_fault_rate);
  job->drop_completion = hmb_faults_.fire(hf.drop_rate);

  if (hmb_fault) {
    // The engine cannot reach its HMB destinations (mapping/translation
    // fault). Abort before touching NAND, but still consume this command's
    // Info Area records so the ring stays in sync; kHmbFault tells the host
    // to fall back to the block path.
    ++stats_.hmb_dma_faults;
    sim_.schedule(hf.fault_latency, [this, job]() {
      for (const FgRange& r : job->cmd.ranges)
        hmb_.info().release(r.info_index, sim_.now());
      recycle_fg_ranges(std::move(job->cmd.ranges));
      const bool drop = job->drop_completion;
      Completion done = std::move(job->done);
      release_fg_job(job);
      if (drop) {
        ++stats_.dropped_completions;
        return;
      }
      complete(done, CommandResult{sim_.now(), 0, CmdStatus::kHmbFault});
    });
    return;
  }

  // Phase 1: group ranges by page and load each distinct page once.
  group_ranges_by_page(*job, /*with_offsets=*/false);
  job->pages_pending = static_cast<std::uint32_t>(job->pages_used);

  // Snapshot the page count: a buffer hit runs the staging callback
  // synchronously, and the last one may retire (and recycle) the job.
  const std::size_t pages = job->pages_used;
  for (std::size_t gi = 0; gi < pages; ++gi) {
    stage_page(job->by_page[gi].lba, [this, job, gi](bool ok) {
      if (!ok) {
        // The page never reached the buffer; its ranges cannot be
        // extracted. Retire them anyway so the fan-in completes (with
        // kMediaError) and the Info Area head still advances.
        job->media_failed = true;
        const std::size_t n = job->by_page[gi].ranges.size();
        for (std::size_t i = 0; i < n; ++i) fg_range_done(job);
        return;
      }
      // Phase 2+3: consume Info records for destination addresses, extract
      // each range from the buffered page, DMA it home.
      for (const auto& [r, unused] : job->by_page[gi].ranges) {
        const InfoRecord& rec = hmb_.info().at(r->info_index);
        PIPETTE_ASSERT(rec.lba == r->lba);
        PIPETTE_ASSERT(rec.byte_offset == r->offset);
        PIPETTE_ASSERT(rec.byte_len == r->len);
        PIPETTE_TRACE_SPAN(sim_, Stage::kFtl, sim_.now(),
                           sim_.now() + config_.timing.firmware_per_range);
        sim_.schedule(config_.timing.firmware_per_range, [this, job, rec]() {
          fine_dma(rec.byte_len, [this, job, rec]() {
            std::vector<std::uint8_t> tmp(rec.byte_len);
            content_.read(rec.lba, rec.byte_offset, {tmp.data(), tmp.size()});
            hmb_.dma_write(rec.dest, {tmp.data(), tmp.size()});
            stats_.bytes_to_host += rec.byte_len;
            fg_range_done(job);
          });
        });
      }
    });
  }
}

// Fine-grained write engine (CoinPurse-style extension, not in the DAC'22
// evaluation): the host DMAs only the new bytes; the device performs the
// read-modify-write internally — load the page into the read buffer, patch
// the ranges, allocate a fresh physical page and program it. The host never
// moves the untouched remainder of the page.
void SsdController::do_fg_write(Command cmd, Completion done) {
  ++stats_.fg_writes;
  stats_.fg_ranges += cmd.ranges.size();
  PIPETTE_ASSERT(!cmd.ranges.empty());
  std::uint64_t payload = 0;
  for (const FgRange& r : cmd.ranges) payload += r.len;
  PIPETTE_ASSERT(cmd.write_data.size() == payload);
  stats_.bytes_from_host += payload;

  FgJob* job = acquire_fg_job(std::move(cmd), std::move(done));

  // Host -> device payload DMA first, then per-page RMW.
  pcie_.dma(payload, [this, job]() {
    // Group ranges by page, remembering where each range's payload bytes
    // sit within write_data.
    group_ranges_by_page(*job, /*with_offsets=*/true);
    job->pages_pending = static_cast<std::uint32_t>(job->pages_used);

    // Snapshot as in do_fg_read: the last synchronous buffer hit may
    // retire the job before this loop finishes.
    const std::size_t pages = job->pages_used;
    for (std::size_t gi = 0; gi < pages; ++gi) {
      stage_page(job->by_page[gi].lba, [this, job, gi](bool ok) {
        if (!ok) {
          // RMW source page unreadable: skip the patch/program; the write
          // fails as a whole once the fan-in drains.
          job->media_failed = true;
        } else {
          // Patch the buffered page and persist to a fresh physical page.
          for (const auto& [r, data_off] : job->by_page[gi].ranges) {
            sim_.advance(0);  // patching happens in controller SRAM
            content_.write(r->lba, r->offset,
                           std::span<const std::uint8_t>(
                               job->cmd.write_data.data() + data_off,
                               r->len));
          }
          // Only the MU slots the ranges touch are rewritten; the LBA's
          // other MUs keep their current locations (with MU = page the
          // mask is always the full page).
          const std::uint32_t mu = ftl_.mapping_unit();
          std::uint32_t slot_mask = 0;
          for (const auto& [r, unused] : job->by_page[gi].ranges) {
            const std::uint32_t first = r->offset / mu;
            const std::uint32_t last = (r->offset + r->len - 1) / mu;
            for (std::uint32_t s = first; s <= last; ++s)
              slot_mask |= 1u << s;
          }
          ftl_.write_slots(job->by_page[gi].lba, slot_mask);
          perform_gc_moves();
          // Modern SSDs acknowledge writes once the data sits in the
          // capacitor-backed controller write cache; sealed pages program
          // in the background (they still occupy the die/channel).
          issue_host_programs([this](const PageProgram& p) {
            nand_.program_page(p.addr, [] {});
          });
        }
        if (--job->pages_pending == 0) {
          recycle_fg_ranges(std::move(job->cmd.ranges));
          const CmdStatus status = job->media_failed
                                       ? CmdStatus::kMediaError
                                       : CmdStatus::kOk;
          Completion done = std::move(job->done);
          release_fg_job(job);
          complete(done, CommandResult{sim_.now(), 0, status});
        }
      });
    }
  });
}

void SsdController::do_read_to_cmb(Command cmd, Completion done) {
  ++stats_.cmb_reads;
  PIPETTE_ASSERT(cmd.nlb == 1);
  const Lba lba = cmd.lba;
  stage_page(lba, [this, lba, done = std::move(done)](bool ok) mutable {
    if (!ok) {
      complete(done, CommandResult{sim_.now(), 0, CmdStatus::kMediaError});
      return;
    }
    const std::uint32_t slot = cmb_.claim_slot();
    std::vector<std::uint8_t> page(kBlockSize);
    content_.read(lba, 0, {page.data(), page.size()});
    cmb_.fill(slot, {page.data(), page.size()});
    complete(done, CommandResult{sim_.now(), slot});
  });
}

SimDuration SsdController::read_from_cmb(std::uint32_t slot,
                                         std::uint32_t offset,
                                         std::span<std::uint8_t> out,
                                         bool via_dma) {
  PIPETTE_ASSERT(offset + out.size() <= kBlockSize);
  auto src = cmb_.slot(slot).subspan(offset, out.size());
  std::copy(src.begin(), src.end(), out.begin());
  stats_.bytes_to_host += out.size();
  if (via_dma) {
    // 2B-SSD DMA mode: per-access mapping on the critical path + transfer.
    return pcie_.timing().dma_map_cost + pcie_.dma_cost(out.size());
  }
  return pcie_.mmio_read_cost(out.size());
}

}  // namespace pipette
