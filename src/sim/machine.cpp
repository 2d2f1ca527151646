#include "sim/machine.h"

#include "common/assert.h"

namespace pipette {

const char* to_string(PathKind kind) {
  switch (kind) {
    case PathKind::kBlockIo:
      return "Block I/O";
    case PathKind::kTwoBMmio:
      return "2B-SSD MMIO";
    case PathKind::kTwoBDma:
      return "2B-SSD DMA";
    case PathKind::kPipetteNoCache:
      return "Pipette w/o cache";
    case PathKind::kPipette:
      return "Pipette";
  }
  return "?";
}

namespace {

MachineConfig shaped(const MachineConfig& in) {
  MachineConfig config = in;
  config.ssd.interconnect = config.interconnect;
  if (config.mapping_unit != 0)
    config.ssd.mapping_unit = config.mapping_unit;
  // Non-Pipette machines need no FGRC space in the HMB; shrink it so the
  // host-memory footprint comparison stays honest.
  if (config.kind != PathKind::kPipette &&
      config.kind != PathKind::kPipetteNoCache) {
    config.ssd.hmb.data_bytes = 1 * kMiB;
  } else {
    PIPETTE_ASSERT_MSG(
        config.ssd.hmb.data_bytes >= config.pipette.fgrc.slab.slab_size,
        "HMB data area smaller than one slab");
  }
  return config;
}

}  // namespace

Machine::Machine(const MachineConfig& config, std::span<const FileSpec> files)
    : config_(shaped(config)) {
  if (config_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(config_.trace);
    sim_.set_tracer(tracer_.get());
  }
  ssd_ = std::make_unique<SsdController>(sim_, config_.ssd);
  fs_ = std::make_unique<FileSystem>(ssd_->ftl().lba_count());
  for (const FileSpec& spec : files) {
    fs_->create(spec.name, spec.size, spec.max_extent_blocks,
                spec.gap_blocks);
  }
  switch (config_.kind) {
    case PathKind::kBlockIo:
      path_ = std::make_unique<BlockIoPath>(sim_, *ssd_, *fs_, config_.host,
                                            config_.page_cache_bytes,
                                            config_.readahead);
      break;
    case PathKind::kTwoBMmio:
      path_ = std::make_unique<TwoBSsdPath>(sim_, *ssd_, *fs_, config_.host,
                                            TwoBMode::kMmio);
      break;
    case PathKind::kTwoBDma:
      path_ = std::make_unique<TwoBSsdPath>(sim_, *ssd_, *fs_, config_.host,
                                            TwoBMode::kDma);
      break;
    case PathKind::kPipette:
    case PathKind::kPipetteNoCache: {
      std::uint64_t page_cache_bytes = config_.page_cache_bytes;
      if (config_.interconnect == InterconnectKind::kLmb) {
        // The buffer region lives on the CXL device: the host DRAM it used
        // to occupy goes back to the page cache (the memory-footprint story
        // of CXL-resident buffers — see DESIGN.md on LMB calibration).
        page_cache_bytes += config_.ssd.hmb.data_bytes;
      }
      path_ = std::make_unique<PipettePath>(
          sim_, *ssd_, *fs_, config_.host, page_cache_bytes,
          config_.readahead, config_.pipette,
          /*use_cache=*/config_.kind == PathKind::kPipette, config_.prefetch);
      break;
    }
  }
  vfs_ = std::make_unique<Vfs>(*fs_, *path_);
}

BlockIoPath* Machine::block_path() {
  return config_.kind == PathKind::kBlockIo
             ? static_cast<BlockIoPath*>(path_.get())
             : nullptr;
}

PipettePath* Machine::pipette_path() {
  return (config_.kind == PathKind::kPipette ||
          config_.kind == PathKind::kPipetteNoCache)
             ? static_cast<PipettePath*>(path_.get())
             : nullptr;
}

TwoBSsdPath* Machine::twob_path() {
  return (config_.kind == PathKind::kTwoBMmio ||
          config_.kind == PathKind::kTwoBDma)
             ? static_cast<TwoBSsdPath*>(path_.get())
             : nullptr;
}

PageCache* Machine::page_cache() {
  if (BlockIoPath* b = block_path()) return &b->page_cache();
  if (PipettePath* p = pipette_path()) return &p->block_route().page_cache();
  return nullptr;
}

void Machine::collect_metrics(MetricsRegistry& out) {
  out.set("sim.events_executed", sim_.events_executed());
  // High-water mark of pending events == the event-queue slab footprint.
  // A pure function of the event schedule, so it is Deterministic()-pinned.
  out.set("des.slab_peak", sim_.queue_peak_size());

  const ControllerStats& cs = ssd_->stats();
  out.set("ssd.commands", cs.commands);
  out.set("ssd.block_reads", cs.block_reads);
  out.set("ssd.block_writes", cs.block_writes);
  out.set("ssd.fg_reads", cs.fg_reads);
  out.set("ssd.fg_ranges", cs.fg_ranges);
  out.set("ssd.fg_writes", cs.fg_writes);
  out.set("ssd.cmb_reads", cs.cmb_reads);
  out.set("ssd.bytes_to_host", cs.bytes_to_host);
  out.set("ssd.bytes_from_host", cs.bytes_from_host);
  out.set("ssd.media_errors", cs.media_errors);
  out.set("ssd.hmb_dma_faults", cs.hmb_dma_faults);
  out.set("ssd.dropped_completions", cs.dropped_completions);
  out.set("ssd.read_buffer_hits", cs.read_buffer.hits());
  out.set("ssd.read_buffer_misses", cs.read_buffer.misses());

  const NandStats& ns = ssd_->nand().stats();
  out.set("nand.page_reads", ns.page_reads);
  out.set("nand.page_programs", ns.page_programs);
  out.set("nand.read_retries", ns.read_retries);
  out.set("nand.read_failures", ns.read_failures);
  out.set("nand.bytes_transferred", ns.bytes_transferred);

  // FTL write/GC/wear family. Gated on write activity so the registries of
  // read-only runs (the golden cells among them) stay bit-identical to
  // history — same pattern as the lmb.* gating below.
  const FtlStats& ftls = ssd_->ftl().stats();
  if (ftls.writes_mapped > 0 || ftls.gc_collections > 0) {
    out.set("ftl.mapping_unit", ssd_->ftl().mapping_unit());
    out.set("ftl.writes_mapped", ftls.writes_mapped);
    out.set("ftl.mus_written", ftls.mus_written);
    out.set("ftl.invalidated_mus", ftls.invalidated_mus);
    out.set("ftl.invalidated_pages", ftls.invalidated_pages);
    out.set("ftl.pages_programmed", ftls.pages_programmed);
    out.set("ftl.gc_collections", ftls.gc_collections);
    out.set("ftl.gc_page_reads", ftls.gc_relocated_pages);
    out.set("ftl.gc_relocated_mus", ftls.gc_relocated_mus);
    out.set("ftl.wear_blocks_erased", ftls.blocks_erased);
    out.set("ftl.wear_max_die_erases", ftls.max_die_erases);
    out.set("ftl.wear_min_die_erases", ftls.min_die_erases);
    // Fixed-point so the registry stays integral and exactly comparable.
    out.set("ftl.write_amp_x1000",
            static_cast<std::uint64_t>(ftls.write_amplification() * 1000.0));
  }

  out.set("pcie.dma_transfers", ssd_->pcie().dma_transfers());
  out.set("pcie.dma_bytes", ssd_->pcie().dma_bytes());
  // Gated so default (HMB) registries stay bit-identical to history.
  if (config_.ssd.interconnect == InterconnectKind::kLmb) {
    out.set("lmb.dma_transfers", ssd_->pcie().lmb_transfers());
    out.set("lmb.dma_bytes", ssd_->pcie().lmb_bytes());
  }

  const InfoArea& info = ssd_->hmb().info();
  out.set("hmb.info_peak_in_flight", info.peak_in_flight());
  out.set("hmb.info_capacity", info.capacity());

  out.set("faults.nand_draws", ssd_->nand().injector().draws());
  out.set("faults.nand_fired", ssd_->nand().injector().fired());
  out.set("faults.hmb_draws", ssd_->hmb_fault_injector().draws());
  out.set("faults.hmb_fired", ssd_->hmb_fault_injector().fired());

  const PathStats& ps = path_->stats();
  out.set("path.reads", ps.reads);
  out.set("path.writes", ps.writes);
  out.set("path.bytes_requested", ps.bytes_requested);
  out.set("path.failed_reads", ps.failed_reads);
  out.set("path.degraded_reads", ps.degraded_reads);
  out.set("path.failed_writes", ps.failed_writes);

  if (PageCache* pc = page_cache()) {
    const PageCacheStats& pcs = pc->stats();
    out.set("page_cache.hits", pcs.lookups.hits());
    out.set("page_cache.misses", pcs.lookups.misses());
    out.set("page_cache.fills", pcs.fills);
    out.set("page_cache.readahead_pages", pcs.readahead_pages);
    out.set("page_cache.evictions", pcs.evictions);
    out.set("page_cache.evicted_never_used", pcs.evicted_never_used);
    out.set("page_cache.peak_pages", pcs.peak_pages);
    out.set("page_cache.resident_bytes", pc->resident_bytes());
  }

  if (PipettePath* p = pipette_path()) {
    const PipettePathStats& pps = p->pipette_stats();
    out.set("pipette.fine_reads", pps.fine_reads);
    out.set("pipette.block_reads", pps.block_reads);
    out.set("pipette.page_cache_served_fine", pps.page_cache_served_fine);
    out.set("pipette.fine_writes", pps.fine_writes);
    out.set("pipette.block_writes", pps.block_writes);
    out.set("pipette.fgrc_inplace_updates", pps.fgrc_inplace_updates);
    out.set("pipette.hmb_fault_fallbacks", pps.hmb_fault_fallbacks);
    out.set("pipette.lost_completions", pps.lost_completions);

    const FineGrainedReadCache& fgrc = p->fgrc();
    const FgrcStats& fs = fgrc.stats();
    out.set("fgrc.hits", fs.lookups.hits());
    out.set("fgrc.misses", fs.lookups.misses());
    out.set("fgrc.promotions", fs.promotions);
    out.set("fgrc.tempbuf_fills", fs.tempbuf_fills);
    out.set("fgrc.invalidations", fs.invalidations);
    out.set("fgrc.pressure_evictions", fs.pressure_evictions);
    out.set("fgrc.pressure_migrations", fs.pressure_migrations);
    out.set("fgrc.reassigned_slabs", fs.reassigned_slabs);
    out.set("fgrc.aborted_fills", fs.aborted_fills);
    out.set("fgrc.tempbuf_peak_bytes", fs.tempbuf_peak_bytes);
    out.set("fgrc.memory_bytes", fgrc.memory_bytes());
    out.set("fgrc.adaptive_threshold", fgrc.adaptive().threshold());
    out.set("fgrc.adaptive_accesses", fgrc.adaptive().accesses());
    out.set("fgrc.adaptive_reuses", fgrc.adaptive().reuses());

    // Prefetch counters exist only when the prefetcher does, so
    // prefetch-off registries stay bit-identical to history.
    if (const Prefetcher* pf = p->prefetcher()) {
      const PrefetchStats& pfs = pf->stats();
      out.set("prefetch.issued", pfs.issued);
      out.set("prefetch.commands", pfs.commands);
      out.set("prefetch.hits", pfs.hits);
      out.set("prefetch.hits_promoted", pfs.hits_promoted);
      out.set("prefetch.late", pfs.late);
      // Aged-out fills plus fills still unclaimed at collection time.
      out.set("prefetch.wasted", pfs.wasted + pf->unclaimed());
      out.set("prefetch.lost", pfs.lost);
      out.set("prefetch.faulted", pfs.faulted);
      out.set("prefetch.throttled", pfs.throttled);
      out.set("prefetch.filtered", pfs.filtered);
      out.set("prefetch.promoted", pfs.promoted);
      out.set("prefetch.tempbuf", pfs.tempbuf);
      const auto& classes = p->detector().stream_class_counts();
      for (std::size_t i = 0; i < classes.size(); ++i) {
        out.set(std::string("detector.stream_") +
                    to_string(static_cast<StreamClass>(i)),
                classes[i]);
      }
    }

    const SlabStore& store = fgrc.store();
    const SlabStoreStats& ss = store.stats();
    out.set("fgrc.slab_resident_bytes", ss.resident_slab_bytes);
    out.set("fgrc.slab_external_bytes", ss.external_bytes);
    out.set("fgrc.slab_live_items", ss.live_items);
    out.set("fgrc.slab_evictions", ss.evictions);
    out.set("fgrc.slab_migrations", ss.migrations);
    for (std::uint32_t cls = 0; cls < store.classes(); ++cls) {
      const SlabClassStats scs = store.class_stats(cls);
      const std::uint64_t promotions =
          cls < fs.class_promotions.size() ? fs.class_promotions[cls] : 0;
      // A class the run never touched adds four zero rows and no news.
      if (scs.slabs == 0 && scs.live_items == 0 && scs.evictions == 0 &&
          promotions == 0) {
        continue;
      }
      const std::string prefix =
          "fgrc.class." + std::to_string(scs.item_size) + ".";
      out.set(prefix + "slabs", scs.slabs);
      out.set(prefix + "live_items", scs.live_items);
      out.set(prefix + "evictions", scs.evictions);
      out.set(prefix + "promotions", promotions);
    }
  }

  // Utilization & queueing accounts (obs/util.h). Strictly passive: the
  // exporters only drain observer-side depth sweeps up to now(). Resources
  // that exist conditionally are gated the same way as their counter
  // families above, so differential registries stay bit-identical.
  const SimTime now = sim_.now();
  out.set("util.sim_time_ns", now);
  NandArray& nand = ssd_->nand();
  export_usage(out, "nand_die", nand.die_usage(),
               config_.ssd.geometry.dies(), now);
  export_usage(out, "nand_channel", nand.channel_usage(),
               config_.ssd.geometry.channels, now);
  if (nand.gc_usage().ops() > 0) {
    // Die + channel legs of GC relocations, folded into one account so the
    // bottleneck table can rank "gc" against the host-attributed resources.
    export_usage(out, "gc", nand.gc_usage(), config_.ssd.geometry.dies(),
                 now);
    out.set("util.gc.foreground_blocked_ns", nand.gc_blocked_host_ns());
    export_occupancy(out, "gc_buffer", ssd_->gc_buffer_occupancy(), 1, now);
  }
  export_usage(out, "pcie_link", ssd_->pcie().pcie_usage(), 1, now);
  if (config_.ssd.interconnect == InterconnectKind::kLmb)
    export_usage(out, "lmb_link", ssd_->pcie().lmb_usage(), 1, now);
  export_occupancy(out, "info_ring", ssd_->hmb().info().occupancy(), 1, now);
  if (PipettePath* p = pipette_path()) {
    if (Prefetcher* pf = p->prefetcher())
      export_occupancy(out, "prefetch_outstanding",
                       pf->outstanding_occupancy(), 1, now);
  }
}

UtilSnapshot Machine::util_snapshot() {
  UtilSnapshot snap;
  const SimTime now = sim_.now();
  NandArray& nand = ssd_->nand();
  snap.nand_busy_ns = nand.die_usage().busy_ns();
  snap.interconnect_busy_ns = ssd_->pcie().pcie_usage().busy_ns() +
                              ssd_->pcie().lmb_usage().busy_ns();
  snap.gc_busy_ns = nand.gc_usage().busy_ns();
  snap.gc_moves = ssd_->ftl().stats().gc_relocated_pages;
  snap.info_ring_depth = ssd_->hmb().info().in_flight();
  snap.nand_queue_depth =
      static_cast<std::uint32_t>(nand.die_usage().depth(now));
  return snap;
}

void Machine::cold_restart() {
  // Persist dirty pages first — a page cache clear must not lose writes the
  // workload already considers durable after recovery.
  if (BlockIoPath* b = block_path()) {
    b->sync();
  } else if (PipettePath* p = pipette_path()) {
    p->block_route().sync();
  }
  if (PageCache* pc = page_cache()) pc->clear();
  if (PipettePath* p = pipette_path()) p->reset_fgrc();
}

MachineConfig default_machine(PathKind kind) {
  MachineConfig config;
  config.kind = kind;
  // SSD: the YS9203's architecture (Fig. 5) — 8 channels x 8 ways, TLC.
  config.ssd.geometry = NandGeometry{};  // 8x8, 4 KiB pages, 32 GiB
  config.ssd.nand_timing.cell = CellType::kTlc;
  config.ssd.read_buffer_bytes = 512ull * kMiB;
  config.ssd.block_reads_use_buffer = false;
  config.ssd.hmb.info_slots = 4096;
  config.ssd.hmb.tempbuf_bytes = 64 * kKiB;
  config.ssd.hmb.data_bytes = 160ull * kMiB;
  // Host caches: equal byte budgets for the two competing caches.
  config.page_cache_bytes = 160ull * kMiB;
  config.readahead = ReadaheadConfig{1, 32, true};
  config.pipette.fgrc.slab.slab_size = 256 * kKiB;
  config.pipette.fgrc.slab.max_external_bytes = 32ull * kMiB;
  return config;
}

MachineConfig realapp_machine(PathKind kind) {
  MachineConfig config = default_machine(kind);
  // Real applications (§4.3): the datasets (~1 GiB here, 4.1 GB in the
  // paper) dwarf the device's staging region (the prototype's 64 MB
  // mapping region), so byte-path misses usually pay the NAND read — the
  // regime where the no-cache approaches fall *below* block I/O and only
  // the fine-grained read cache recovers the locality.
  config.ssd.read_buffer_bytes = 64ull * kMiB;
  // The block baseline's page cache is large but still well under the
  // dataset (the paper's 2.3 GB against 4.1 GB tables); Pipette's FGRC
  // stores the demanded bytes compactly in half that budget.
  config.page_cache_bytes = 192ull * kMiB;
  config.ssd.hmb.data_bytes = 96ull * kMiB;
  return config;
}

int Machine::open_flags(bool writable) const {
  int flags = writable ? kOpenWrite : kOpenRead;
  if (config_.kind == PathKind::kPipette ||
      config_.kind == PathKind::kPipetteNoCache) {
    flags |= kOpenFineGrained;
  }
  return flags;
}

}  // namespace pipette
