#include "pipette/detector.h"

#include <algorithm>

#include "fs/vfs.h"

namespace pipette {

const char* to_string(StreamClass c) {
  switch (c) {
    case StreamClass::kRandom:
      return "random";
    case StreamClass::kSequential:
      return "sequential";
    case StreamClass::kStrided:
      return "strided";
    case StreamClass::kClusteredHot:
      return "clustered_hot";
  }
  return "?";
}

bool FineGrainedAccessDetector::permitted(int open_flags) {
  return (open_flags & kOpenFineGrained) != 0;
}

StreamPrediction FineGrainedAccessDetector::observe(FileId file,
                                                    std::uint64_t offset,
                                                    std::uint32_t len) {
  FileStream& s = streams_[file];
  StreamPrediction p;
  p.file = file;
  p.base = offset;
  p.len = len;
  if (s.valid) {
    const std::int64_t delta = static_cast<std::int64_t>(offset) -
                               static_cast<std::int64_t>(s.last_offset);
    if (delta != 0 && delta == s.stride) {
      ++s.run;
    } else if (delta != 0) {
      s.stride = delta;
      s.run = 1;
    }
    // Cluster density: how many of the recent accesses fall within the
    // radius of this one.
    std::uint32_t near = 0;
    const std::uint32_t window = std::min(s.recent_count, kClusterWindow);
    for (std::uint32_t i = 0; i < window; ++i) {
      const std::uint64_t other = s.recent[i];
      const std::uint64_t dist = other > offset ? other - offset
                                                : offset - other;
      if (dist <= kClusterRadius) ++near;
    }
    if (s.run >= kMinStrideRun) {
      p.cls = (s.stride == static_cast<std::int64_t>(s.last_len))
                  ? StreamClass::kSequential
                  : StreamClass::kStrided;
      p.stride = s.stride;
      p.confidence = s.run;
    } else if (window >= kClusterWindow && near >= kClusterMin) {
      p.cls = StreamClass::kClusteredHot;
      p.stride = static_cast<std::int64_t>(len);
      p.confidence = near;
    }
  }
  s.recent[s.recent_pos] = offset;
  s.recent_pos = (s.recent_pos + 1) % kClusterWindow;
  s.recent_count = std::min(s.recent_count + 1, kClusterWindow);
  s.last_offset = offset;
  s.last_len = len;
  s.valid = true;
  ++stream_class_counts_[static_cast<std::size_t>(p.cls)];
  return p;
}

}  // namespace pipette
