// Request-scoped tracing: per-stage span timestamps for every read.
//
// Design rules (DESIGN.md §5b):
//  * The tracer is PASSIVE. It only reads sim.now() and timestamps the
//    instrumented code already computed; it never advances time, never
//    schedules events, never draws randomness. Tracing on/off therefore
//    yields bit-identical simulations — the golden trace and obs_test pin
//    this.
//  * Disabled cost is near zero: with no tracer installed, each site is a
//    single pointer test.
//  * Stages are attributed to the *current* request (the last
//    PIPETTE_TRACE_REQUEST). The request model is closed-loop — one
//    outstanding read per machine — so device-side spans land on the right
//    request; the only exception is asynchronous read-ahead, whose NAND/DMA
//    work is charged to the request that happens to be in flight when it
//    completes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "des/simulator.h"

namespace pipette {

/// Pipeline stage taxonomy. Order is presentation order in the
/// decomposition table: host-side stages first, then queue/firmware, then
/// media, then transfer, then completion.
enum class Stage : std::uint8_t {
  kHostSubmit = 0,  // syscall + VFS dispatch on the host CPU
  kPageCache,       // host page-cache probe + readahead bookkeeping
  kDetector,        // Pipette fine-grained-read detector check
  kFgrcLookup,      // FGRC index probe (hit copy cost charged to kHostCopy)
  kFgrcFill,        // FGRC promotion fill: HMB read + slab insert
  kExtentLookup,    // filesystem extent mapping
  kInfoRing,        // Info-ring slot enqueue (instant; occupancy in args)
  kSpecFill,        // speculative prefetch issue + fill bookkeeping
  kQueue,           // NVMe submission: doorbell to firmware pickup
  kFtl,             // firmware command parse + FTL lookup
  kNandSense,       // first NAND sensing pass (tR)
  kNandRetry,       // additional sensing passes + backoff on read retry
  kNandBus,         // NAND channel transfer die -> controller buffer
  kPcieDma,         // PCIe DMA device -> host (block data / CMB pull)
  kHmbDma,          // PCIe DMA into the host memory buffer (fine-grained)
  kLmbDma,          // CXL DMA into the linked memory buffer (fine-grained)
  kHostCopy,        // host-side copy-out to the user buffer
  kComplete,        // completion doorbell + interrupt path
  kStageCount,
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kStageCount);

/// Short stable identifier, e.g. "nand_sense". Used in tables and JSON.
const char* stage_name(Stage s);

/// Lane grouping for Chrome-trace tid rows: "host", "firmware", "media",
/// "transfer". Keeps Perfetto views readable with 16 stages.
const char* stage_track(Stage s);

struct TraceConfig {
  bool enabled = false;
  /// Span-window bound for Chrome-trace export. Aggregation (stage
  /// histograms) is unaffected; spans past the cap are counted as dropped.
  std::uint32_t max_spans = 65536;
};

/// One timestamped stage interval, attributed to a request ordinal.
struct TraceSpan {
  SimTime begin = 0;
  SimTime end = 0;
  std::uint64_t request = 0;
  Stage stage = Stage::kHostSubmit;

  bool operator==(const TraceSpan&) const = default;
};

/// Collects spans and per-stage latency histograms for one Machine.
/// Installed on the Simulator so device-layer code (nand, pcie,
/// controller) can reach it without plumbing a pointer through every
/// constructor.
class Tracer {
 public:
  explicit Tracer(const TraceConfig& config) : config_(config) {
    stage_latency_.resize(kStageCount);
  }

  /// Marks the start of a new request; subsequent spans attribute to it.
  void begin_request() { ++current_request_; }

  std::uint64_t current_request() const { return current_request_; }

  /// Records [begin, end] for `stage` on the current request. Zero-length
  /// spans are kept in the histogram (a real stage that cost 0 ns) but
  /// skipped in the span window to keep exports dense.
  void span(Stage stage, SimTime begin, SimTime end) {
    const auto idx = static_cast<std::size_t>(stage);
    stage_latency_[idx].record(end - begin);
    if (begin == end) return;
    if (spans_.size() < config_.max_spans) {
      spans_.push_back({begin, end, current_request_, stage});
    } else {
      ++spans_dropped_;
    }
  }

  const std::vector<LatencyHistogram>& stage_latency() const {
    return stage_latency_;
  }

  /// Moves the bounded span window out (tracer keeps aggregating after).
  std::vector<TraceSpan> take_spans() { return std::move(spans_); }

  std::uint64_t spans_dropped() const { return spans_dropped_; }

 private:
  TraceConfig config_;
  std::vector<LatencyHistogram> stage_latency_;
  std::vector<TraceSpan> spans_;
  std::uint64_t current_request_ = 0;
  std::uint64_t spans_dropped_ = 0;
};

/// Bucket-wise merge of per-stage histogram vectors (fleet shard merge).
/// Either side may be empty (tracing disabled on that shard).
void merge_stage_latency(std::vector<LatencyHistogram>& into,
                         const std::vector<LatencyHistogram>& from);

/// Records [begin_ns, end_ns] for `stage` if a tracer is installed.
#define PIPETTE_TRACE_SPAN(sim, stage, begin_ns, end_ns)         \
  do {                                                           \
    if (::pipette::Tracer* pipette_tracer_ = (sim).tracer())     \
      pipette_tracer_->span((stage), (begin_ns), (end_ns));      \
  } while (0)

/// Marks the start of a new request on the installed tracer.
#define PIPETTE_TRACE_REQUEST(sim)                               \
  do {                                                           \
    if (::pipette::Tracer* pipette_tracer_ = (sim).tracer())     \
      pipette_tracer_->begin_request();                          \
  } while (0)

/// RAII span over a host-side code region that advances sim time inline
/// (advance() calls between construction and destruction).
class TraceScope {
 public:
  TraceScope(Simulator& sim, Stage stage)
      : sim_(sim), tracer_(sim.tracer()), stage_(stage), begin_(sim.now()) {}
  ~TraceScope() {
    if (tracer_ != nullptr) tracer_->span(stage_, begin_, sim_.now());
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Simulator& sim_;
  Tracer* tracer_;
  Stage stage_;
  SimTime begin_;
};

}  // namespace pipette
