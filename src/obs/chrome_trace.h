// Chrome trace-event JSON export (the format Perfetto and chrome://tracing
// load). Each shard/system becomes a process row (pid), each stage lane a
// thread row (tid), each TraceSpan a complete ("ph":"X") event with µs
// timestamps. See EXPERIMENTS.md for how to load the output.
#pragma once

#include <string>
#include <vector>

#include "obs/timeline.h"
#include "obs/trace.h"

namespace pipette {

/// One process row in the trace: a shard or a system under comparison.
/// When `timeline` is non-empty, its samples additionally render as
/// Perfetto counter tracks ("ph":"C"): per-interval throughput, hit
/// ratios, per-resource utilization, and instantaneous queue depths,
/// drawn alongside the per-read spans.
struct ShardTrace {
  std::string label;
  std::vector<TraceSpan> spans;
  std::vector<TimeSample> timeline{};
};

/// Renders the full JSON document ({"traceEvents": [...]}).
std::string chrome_trace_json(const std::vector<ShardTrace>& shards);

/// chrome_trace_json + write to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<ShardTrace>& shards);

}  // namespace pipette
