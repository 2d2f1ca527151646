#include "pipette/prefetcher.h"

#include "common/assert.h"
#include "obs/trace.h"

namespace pipette {

namespace {
// Completion token: job slot in the top byte, job generation below. A
// packed token keeps the completion capture at {this, u64} — inside the
// std::function small-buffer, so speculative submissions allocate nothing.
constexpr std::uint64_t kGenMask = (std::uint64_t{1} << 56) - 1;
static_assert(Prefetcher::kMaxOutstanding >= 1 &&
              Prefetcher::kMaxOutstanding <= 255);  // slot packs in 8 bits
static_assert(Prefetcher::kDegree >= 1 && Prefetcher::kMaxBatch >= 1);
static_assert(Prefetcher::kTrackCapacity >= 1);

std::uint64_t pack_token(std::uint32_t slot, std::uint64_t gen) {
  return (static_cast<std::uint64_t>(slot) << 56) | (gen & kGenMask);
}
}  // namespace

Prefetcher::Prefetcher(Simulator& sim, SsdController& ssd, FileSystem& fs,
                       FineGrainedReadCache& fgrc, PageResidentFn page_resident)
    : sim_(sim),
      ssd_(ssd),
      fs_(fs),
      fgrc_(&fgrc),
      page_resident_(std::move(page_resident)),
      filled_(kTrackCapacity) {}

bool Prefetcher::claim_filled(const FgKey& key) {
  bool* promoted = filled_.find(key);
  if (promoted == nullptr) return false;
  ++stats_.hits;
  if (*promoted) ++stats_.hits_promoted;
  filled_.erase(key);
  return true;
}

bool Prefetcher::on_demand(const FgKey& key) {
  if (claim_filled(key)) return true;
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return false;

  // The fill is in flight: wait for it rather than duplicating the device
  // work, under the same timeout guard as demand commands.
  ++stats_.late;
  const std::uint32_t slot = it->second;
  const auto done = [this, &key] {
    return inflight_.find(key) == inflight_.end();
  };
  const SimDuration guard = ssd_.config().faults.hmb.timeout;
  if (guard == 0) {
    const bool completed = sim_.run_until_condition(done);
    PIPETTE_ASSERT_MSG(completed,
                       "speculative command never completed (set the HMB "
                       "fault timeout to recover instead)");
  } else {
    const SimTime deadline = sim_.now() + guard;
    if (!sim_.run_until_condition_before(done, deadline)) {
      // Lost completion: charge the guard, abandon the whole command (its
      // late completion becomes stale) and let demand proceed as a miss.
      if (sim_.now() < deadline) sim_.advance(deadline - sim_.now());
      abandon(slot);
      return false;
    }
  }
  return claim_filled(key);  // false if the fill faulted
}

void Prefetcher::maybe_issue(const StreamPrediction& pred) {
  if (pred.cls == StreamClass::kRandom || pred.confidence < kMinRun ||
      pred.len == 0) {
    return;
  }
  reap_stale();

  TraceScope scope(sim_, Stage::kSpecFill);

  // Candidate generation: grid-exact future keys. The FGRC is exact-match,
  // so speculative keys must land precisely on offsets demand will ask for
  // — multiples of the observed stride (or access-length grid for
  // clusters) from the triggering access.
  cand_scratch_.clear();
  const std::uint64_t file_size = fs_.inode(pred.file).size;
  const auto fits = [&](std::int64_t off) {
    return off >= 0 &&
           static_cast<std::uint64_t>(off) + pred.len <= file_size;
  };
  if (pred.cls == StreamClass::kClusteredHot) {
    // Outward neighbourhood walk: +1, -1, +2, -2, ... grid steps.
    for (std::uint32_t step = 1;
         step <= kDegree && cand_scratch_.size() < kDegree; ++step) {
      for (const int dir : {+1, -1}) {
        if (cand_scratch_.size() >= kDegree) break;
        const std::int64_t off =
            static_cast<std::int64_t>(pred.base) +
            dir * static_cast<std::int64_t>(step) *
                static_cast<std::int64_t>(pred.len);
        if (fits(off))
          cand_scratch_.push_back(static_cast<std::uint64_t>(off));
      }
    }
    // Page-stride probes across the predicted neighbourhood. The cluster's
    // demand offsets are unpredictable, but its *pages* are not: one
    // speculative record per page stages the page into the device read
    // buffer, so the burst's later misses on it cost a buffer hit instead
    // of a NAND sense. The probes sit on the page grid (which a
    // record-grid workload also lands on), so a lucky exact match is
    // claimable like any other fill; the rest age out as waste, which is
    // why only structured streams pay for them.
    const std::int64_t page_base =
        static_cast<std::int64_t>(pred.base / kBlockSize * kBlockSize);
    for (std::uint32_t j = 1; j <= kClusterProbePages; ++j) {
      for (const int dir : {+1, -1}) {
        const std::int64_t off =
            page_base + dir * static_cast<std::int64_t>(j) *
                            static_cast<std::int64_t>(kBlockSize);
        if (fits(off))
          cand_scratch_.push_back(static_cast<std::uint64_t>(off));
      }
    }
  } else {
    if (pred.stride == 0) return;
    for (std::uint32_t k = 1; k <= kDegree; ++k) {
      const std::int64_t off =
          static_cast<std::int64_t>(pred.base) +
          static_cast<std::int64_t>(k) * pred.stride;
      if (!fits(off)) break;  // the run is marching out of the file
      cand_scratch_.push_back(static_cast<std::uint64_t>(off));
    }
  }

  InfoArea& info = ssd_.hmb().info();
  std::size_t i = 0;
  while (i < cand_scratch_.size()) {
    if (outstanding_ >= kMaxOutstanding) {
      ++stats_.throttled;
      return;
    }
    std::uint32_t slot;
    if (!free_jobs_.empty()) {
      slot = free_jobs_.back();
      free_jobs_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(jobs_.size());
      jobs_.emplace_back();
    }
    SpecJob& job = jobs_[slot];
    job.keys.clear();

    Command cmd;
    cmd.op = Opcode::kFgRead;
    bool have_ranges = false;  // take the pooled vector only if needed
    std::uint32_t batched = 0;
    bool ring_full = false;
    for (; i < cand_scratch_.size() && batched < kMaxBatch; ++i) {
      const FgKey key{pred.file, cand_scratch_[i], pred.len};
      if (fgrc_->contains(key) || inflight_.count(key) != 0 ||
          filled_.peek(key) != nullptr) {
        ++stats_.filtered;
        continue;
      }
      const std::uint64_t first_page = key.offset / kBlockSize;
      const std::uint64_t last_page =
          (key.offset + key.len - 1) / kBlockSize;
      bool resident = false;
      for (std::uint64_t p = first_page; p <= last_page && !resident; ++p) {
        resident = page_resident_(key.file, p);
      }
      if (resident) {
        ++stats_.filtered;
        continue;
      }
      lba_scratch_.clear();
      fs_.extract_lbas(key.file, key.offset, key.len, lba_scratch_);
      // Demand priority: never take the ring within `kInfoHeadroom` slots
      // of full — demand pushes must not see backpressure from speculation.
      if (info.in_flight() + lba_scratch_.size() + kInfoHeadroom >
          info.capacity()) {
        ring_full = true;
        break;
      }
      if (!have_ranges) {
        cmd.ranges = ssd_.take_fg_ranges();
        have_ranges = true;
      }
      MissPlan plan = fgrc_->plan_speculative(key, pred.confidence);
      if (plan.promoted) {
        ++stats_.promoted;
      } else {
        ++stats_.tempbuf;
      }
      HmbAddr dest = plan.dest;
      for (const LbaRange& r : lba_scratch_) {
        const std::uint64_t idx =
            info.push({dest, r.lba, r.offset, r.len}, sim_.now());
        cmd.ranges.push_back({r.lba, r.offset, r.len, idx});
        dest += r.len;
      }
      job.keys.emplace_back(key, plan);
      inflight_.emplace(key, slot);
      ++batched;
    }

    if (batched == 0) {
      free_jobs_.push_back(slot);
      if (ring_full) {
        ++stats_.throttled;
        return;
      }
      continue;  // candidates exhausted; the while condition ends the loop
    }

    sim_.advance(kIssueCost +
                 static_cast<SimDuration>(cmd.ranges.size()) * kPerRangeCost);
    ++stats_.commands;
    stats_.issued += batched;
    job.in_use = true;
    job.issued_at = sim_.now();
    outstanding_occ_.update(sim_.now(), ++outstanding_);
    const std::uint64_t token = pack_token(slot, job.gen);
    ssd_.submit(std::move(cmd), [this, token](const CommandResult& r) {
      on_complete(token, r);
    });
    if (ring_full) {
      ++stats_.throttled;
      return;
    }
  }
}

void Prefetcher::on_complete(std::uint64_t token,
                             const CommandResult& result) {
  const auto slot = static_cast<std::uint32_t>(token >> 56);
  const std::uint64_t gen = token & kGenMask;
  SpecJob& job = jobs_[slot];
  if (!job.in_use || (job.gen & kGenMask) != gen) return;  // abandoned
  for (const auto& [key, plan] : job.keys) {
    inflight_.erase(key);
    if (result.status == CmdStatus::kOk) {
      if (filled_.insert(key, plan.promoted)) {
        // The tracking window aged out an unclaimed fill. A promoted one
        // stays servable through the normal FGRC lookup; only the
        // prefetch credit is lost.
        ++stats_.wasted;
      }
    } else {
      // HMB fault or media error: the bytes never landed. Evict any FGRC
      // reservation; availability accounting is untouched — only demand
      // outcomes feed PipettePathStats.
      if (plan.promoted) fgrc_->abort_fill(key, plan);
      ++stats_.faulted;
    }
  }
  job.keys.clear();
  job.in_use = false;
  ++job.gen;
  outstanding_occ_.update(sim_.now(), --outstanding_);
  free_jobs_.push_back(slot);
}

void Prefetcher::abandon(std::uint32_t slot) {
  SpecJob& job = jobs_[slot];
  PIPETTE_ASSERT(job.in_use);
  for (const auto& [key, plan] : job.keys) {
    inflight_.erase(key);
    if (plan.promoted) fgrc_->abort_fill(key, plan);
  }
  job.keys.clear();
  job.in_use = false;
  ++job.gen;
  outstanding_occ_.update(sim_.now(), --outstanding_);
  free_jobs_.push_back(slot);
  ++stats_.lost;
}

void Prefetcher::reap_stale() {
  const SimDuration guard = ssd_.config().faults.hmb.timeout;
  if (guard == 0) return;  // completions are guaranteed in this config
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(jobs_.size()); ++slot) {
    SpecJob& job = jobs_[slot];
    if (job.in_use && job.issued_at + guard <= sim_.now()) abandon(slot);
  }
}

void Prefetcher::on_cache_reset(FineGrainedReadCache& fresh) {
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(jobs_.size()); ++slot) {
    SpecJob& job = jobs_[slot];
    if (!job.in_use) continue;
    // The old cache is already gone — no reservations left to abort; just
    // invalidate the completion and free the budget.
    for (const auto& [key, plan] : job.keys) inflight_.erase(key);
    job.keys.clear();
    job.in_use = false;
    ++job.gen;
    outstanding_occ_.update(sim_.now(), --outstanding_);
    free_jobs_.push_back(slot);
    ++stats_.lost;
  }
  stats_.wasted += filled_.size();
  filled_.clear();
  fgrc_ = &fresh;
}

}  // namespace pipette
