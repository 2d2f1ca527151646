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

// One in-flight command, from submit() to retire(). Pooled: the record is
// reused across commands, so the by-page grouping keeps its vector
// capacities and the steady state allocates nothing.
struct SsdController::Job {
  Command cmd;
  Completion done;
  // Fan-in: pages outstanding (block commands, fine writes) or ranges
  // outstanding (fine reads).
  std::uint32_t pending = 0;
  bool failed = false;           // some page exhausted its retry budget
  bool drop_completion = false;  // injected lost CQ entry for this command

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

SsdController::SsdController(Simulator& sim, const ControllerConfig& config)
    : sim_(sim),
      config_(config),
      content_(kContentSeed),
      nand_(sim, config.geometry, config.nand_timing, config.faults.nand,
            config.faults.seed),
      ftl_(config.geometry, resolve_lba_count(config), config.mapping_unit),
      pcie_(sim, config.pcie, config.lmb),
      hmb_(config.hmb),
      cmb_(kCmbSlots),
      hmb_faults_(config.faults.seed, FaultDomain::kHmbDma),
      read_buffer_(std::max<std::uint64_t>(
          1, config.read_buffer_bytes / kBlockSize)) {}

SsdController::~SsdController() = default;

void SsdController::submit(Command cmd, Completion done) {
  ++stats_.commands;
  // Submission path: host driver builds the SQE, rings the doorbell, the
  // controller fetches the command; firmware then begins processing. The
  // command parks in a pooled Job so the scheduled closure captures only
  // {this, job} and stays within the callback's inline buffer.
  const SimDuration entry =
      config_.timing.submission + config_.timing.firmware_per_cmd;
  PIPETTE_TRACE_SPAN(sim_, Stage::kQueue, sim_.now(),
                     sim_.now() + config_.timing.submission);
  PIPETTE_TRACE_SPAN(sim_, Stage::kFtl,
                     sim_.now() + config_.timing.submission,
                     sim_.now() + entry);
  Job* job;
  if (!job_free_.empty()) {
    job = job_free_.back();
    job_free_.pop_back();
  } else {
    job_pool_.push_back(std::make_unique<Job>());
    job = job_pool_.back().get();
  }
  job->cmd = std::move(cmd);
  job->done = std::move(done);
  job->pending = 0;
  job->failed = false;
  job->drop_completion = false;
  job->pages_used = 0;
  sim_.schedule(entry, [this, job]() {
    switch (job->cmd.op) {
      case Opcode::kRead:
        do_block_read(job);
        break;
      case Opcode::kWrite:
        do_block_write(job);
        break;
      case Opcode::kFgRead:
        do_fg_read(job);
        break;
      case Opcode::kFgWrite:
        do_fg_write(job);
        break;
      case Opcode::kReadToCmb:
        do_read_to_cmb(job);
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

void SsdController::fine_dma(std::uint64_t bytes,
                             Simulator::Callback on_done) {
  if (config_.interconnect == InterconnectKind::kLmb) {
    pcie_.dma_lmb(bytes, std::move(on_done));
  } else {
    pcie_.dma(bytes, std::move(on_done), Stage::kHmbDma);
  }
}

void SsdController::retire(Job* job, CmdStatus status,
                           std::uint32_t cmb_slot) {
  if (job->cmd.op == Opcode::kFgRead) {
    // Device "digests items in Info Area and increases the head's value":
    // retire this command's records — even for failed commands, so the ring
    // never leaks. release() keeps the head correct when concurrent
    // commands (demand + speculative prefetch) retire out of push order.
    for (const FgRange& r : job->cmd.ranges)
      hmb_.info().release(r.info_index, sim_.now());
  }
  // Recycle the range buffer for take_fg_ranges(). A handful covers every
  // in-flight fine command; the cap only guards against a pathological
  // burst pinning memory.
  std::vector<FgRange>& ranges = job->cmd.ranges;
  if (ranges.capacity() > 0 && fg_range_pool_.size() < 64) {
    ranges.clear();
    fg_range_pool_.push_back(std::move(ranges));
  }
  const bool drop = job->drop_completion;
  Completion done = std::move(job->done);
  job->cmd = Command{};
  job_free_.push_back(job);
  if (drop) {
    // Injected lost completion: the work happened but the CQ entry never
    // arrives. The host's timeout guard is responsible for recovery.
    ++stats_.dropped_completions;
    return;
  }
  PIPETTE_TRACE_SPAN(sim_, Stage::kComplete, sim_.now(),
                     sim_.now() + config_.timing.completion);
  const CommandResult result{sim_.now(), cmb_slot, status};
  sim_.schedule(config_.timing.completion,
                [done = std::move(done), result]() { done(result); });
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
  // Sense every physical page holding the LBA's mapping units (one at
  // MU = page; with MU < page partial writes may have scattered them), each
  // transferring only its MUs' bytes, and fan the reads into a pooled slot
  // that parks `ready` (itself a full-size callback, so the NAND completion
  // closure does not nest one callback inside another). The page counts as
  // staged when the last read lands.
  ftl_.lookup_pages(lba, stage_pages_scratch_);
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

void SsdController::do_block_read(Job* job) {
  ++stats_.block_reads;
  PIPETTE_ASSERT(job->cmd.nlb >= 1);
  PIPETTE_ASSERT(job->cmd.host_pages.size() == job->cmd.nlb);

  // Stage every page into the device buffer (NAND reads run in parallel
  // across dies), then move the whole payload to the host in one DMA that
  // scatters each block into its own destination.
  job->pending = job->cmd.nlb;
  for (std::uint32_t i = 0; i < job->cmd.nlb; ++i) {
    stage_page(
        job->cmd.lba + i,
        [this, job](bool ok) {
          if (!ok) job->failed = true;
          if (--job->pending > 0) return;
          if (job->failed) {
            // A page never materialised: fail the whole command without
            // moving any payload to the host.
            retire(job, CmdStatus::kMediaError);
            return;
          }
          const std::uint64_t bytes =
              static_cast<std::uint64_t>(job->cmd.nlb) * kBlockSize;
          pcie_.dma(bytes, [this, job, bytes]() {
            for (std::uint32_t p = 0; p < job->cmd.nlb; ++p) {
              content_.read(job->cmd.lba + p, 0,
                            {job->cmd.host_pages[p], kBlockSize});
            }
            stats_.bytes_to_host += bytes;
            retire(job, CmdStatus::kOk);
          });
        },
        config_.block_reads_use_buffer);
  }
}

void SsdController::do_block_write(Job* job) {
  ++stats_.block_writes;
  const Command& cmd = job->cmd;
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
  // With MU < page a write seals 0..2 pages (the rest of its MUs wait in
  // the controller write cache for later merges), so the fan-in counts
  // issued programs plus an issuance guard; the command completes when the
  // last program lands — or immediately at the write-cache ack if nothing
  // sealed. With MU = page every write seals exactly one page and this is
  // the classic one-program-per-LBA flow.
  job->pending = 1;
  for (std::uint32_t i = 0; i < cmd.nlb; ++i) {
    ftl_.update(cmd.lba + i);
    perform_gc_moves();
    issue_host_programs([this, job](const PageProgram& p) {
      ++job->pending;
      nand_.program_page(p.addr, [this, job]() {
        if (--job->pending == 0) retire(job, CmdStatus::kOk);
      });
    });
  }
  if (--job->pending == 0) retire(job, CmdStatus::kOk);
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

void SsdController::group_ranges_by_page(Job& job, bool with_offsets) {
  job.pages_used = 0;
  std::uint64_t consumed = 0;
  for (const FgRange& r : job.cmd.ranges) {
    PIPETTE_ASSERT(r.len > 0 && r.offset + r.len <= kBlockSize);
    Job::PageGroup* group = nullptr;
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
            [](const Job::PageGroup& a, const Job::PageGroup& b) {
              return a.lba < b.lba;
            });
}

// Once every range of every page has been DMAed, retire the command (which
// advances the Info Area head past all of its records).
void SsdController::fg_range_done(Job* job) {
  if (--job->pending > 0) return;
  retire(job, job->failed ? CmdStatus::kMediaError : CmdStatus::kOk);
}

void SsdController::do_fg_read(Job* job) {
  ++stats_.fg_reads;
  stats_.fg_ranges += job->cmd.ranges.size();
  PIPETTE_ASSERT(!job->cmd.ranges.empty());
  job->pending = static_cast<std::uint32_t>(job->cmd.ranges.size());

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
    sim_.schedule(hf.fault_latency,
                  [this, job]() { retire(job, CmdStatus::kHmbFault); });
    return;
  }

  // Phase 1: group ranges by page and load each distinct page once.
  group_ranges_by_page(*job, /*with_offsets=*/false);

  // Snapshot the page count: a buffer hit runs the staging callback
  // synchronously, and the last one may retire (and recycle) the job.
  const std::size_t pages = job->pages_used;
  for (std::size_t gi = 0; gi < pages; ++gi) {
    stage_page(job->by_page[gi].lba, [this, job, gi](bool ok) {
      if (!ok) {
        // The page never reached the buffer; its ranges cannot be
        // extracted. Retire them anyway so the fan-in completes (with
        // kMediaError) and the Info Area head still advances.
        job->failed = true;
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
            content_.read(rec.lba, rec.byte_offset,
                          hmb_.dma_window(rec.dest, rec.byte_len));
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
void SsdController::do_fg_write(Job* job) {
  ++stats_.fg_writes;
  stats_.fg_ranges += job->cmd.ranges.size();
  PIPETTE_ASSERT(!job->cmd.ranges.empty());
  std::uint64_t payload = 0;
  for (const FgRange& r : job->cmd.ranges) payload += r.len;
  PIPETTE_ASSERT(job->cmd.write_data.size() == payload);
  stats_.bytes_from_host += payload;

  // Host -> device payload DMA first, then per-page RMW.
  pcie_.dma(payload, [this, job]() {
    // Group ranges by page, remembering where each range's payload bytes
    // sit within write_data.
    group_ranges_by_page(*job, /*with_offsets=*/true);
    job->pending = static_cast<std::uint32_t>(job->pages_used);

    // Snapshot as in do_fg_read: the last synchronous buffer hit may
    // retire the job before this loop finishes.
    const std::size_t pages = job->pages_used;
    for (std::size_t gi = 0; gi < pages; ++gi) {
      stage_page(job->by_page[gi].lba, [this, job, gi](bool ok) {
        if (!ok) {
          // RMW source page unreadable: skip the patch/program; the write
          // fails as a whole once the fan-in drains.
          job->failed = true;
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
        if (--job->pending == 0)
          retire(job, job->failed ? CmdStatus::kMediaError : CmdStatus::kOk);
      });
    }
  });
}

void SsdController::do_read_to_cmb(Job* job) {
  ++stats_.cmb_reads;
  PIPETTE_ASSERT(job->cmd.nlb == 1);
  stage_page(job->cmd.lba, [this, job](bool ok) {
    if (!ok) {
      retire(job, CmdStatus::kMediaError);
      return;
    }
    // The page is synthesized straight into the claimed slot.
    const std::uint32_t slot = cmb_.claim_slot();
    content_.read(job->cmd.lba, 0, cmb_.slot(slot));
    retire(job, CmdStatus::kOk, slot);
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
