// Fine-Grained Access Detector (paper §3.1.2): triggered on a page-cache
// miss, it verifies that the file was opened with the byte-granular
// datapath enabled (O_FINE_GRAINED). The paper's per-page access-range
// tracking is represented by its cost alone: PipettePath charges
// `detector_check` per fine-grained read, and nothing downstream reads the
// ranges, so none are kept.
//
// The detector also hosts the per-file stream classifier feeding the
// speculative prefetcher (arXiv 2109.05366's access-pattern taxonomy):
// observe() folds each fine-grained access into a tiny per-file state —
// last offset, current stride run, a recency window of offsets — and
// labels the stream sequential / strided / clustered-hot / random. It is
// only called when prefetching is enabled, so the demand-only hot path is
// untouched.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "pipette/fg_key.h"
#include "ssd/types.h"

namespace pipette {

/// Stream label for one file's fine-grained access pattern.
enum class StreamClass : std::uint8_t {
  kRandom = 0,
  kSequential,   // constant stride equal to the access length
  kStrided,      // constant non-zero stride
  kClusteredHot, // most recent accesses fall inside a small byte radius
};

inline constexpr std::size_t kStreamClassCount = 4;

const char* to_string(StreamClass c);

/// One classifier verdict, consumed by the prefetcher to generate
/// speculative keys: `base + k*stride` for sequential/strided streams, the
/// `base ± k*len` neighbourhood grid for clustered-hot ones.
struct StreamPrediction {
  StreamClass cls = StreamClass::kRandom;
  FileId file = kInvalidFileId;
  std::uint64_t base = 0;    // offset of the access that produced the verdict
  std::int64_t stride = 0;   // signed predicted inter-access stride (bytes)
  std::uint32_t len = 0;     // access length (the fine-grained grid unit)
  std::uint32_t confidence = 0;  // stride run length / cluster density
};

class FineGrainedAccessDetector {
 public:
  /// Permission check: byte-granular path requires the open flag.
  static bool permitted(int open_flags);

  /// Count one fine-grained read that passed the detector check.
  void record_access() { ++fine_accesses_; }

  /// Stream classifier: fold one whole-request access (file-absolute offset)
  /// into the per-file stream state and return the updated verdict. Called
  /// by the prefetcher's trigger path only, so the demand path pays nothing
  /// for it when prefetching is off.
  StreamPrediction observe(FileId file, std::uint64_t offset,
                           std::uint32_t len);

  std::uint64_t fine_accesses() const { return fine_accesses_; }

  /// observe() verdict counts, indexed by StreamClass.
  const std::array<std::uint64_t, kStreamClassCount>& stream_class_counts()
      const {
    return stream_class_counts_;
  }

 private:
  // Classifier tuning. The cluster radius is a handful of pages: wide
  // enough to catch hot-key neighbourhoods, narrow enough that uniform
  // traffic over a big file almost never trips it.
  static constexpr std::uint32_t kClusterWindow = 8;
  // 4 near votes fire after ~5 accesses into a fresh neighbourhood — early
  // enough that a prefetcher can still cover most of a burst. False fires
  // on uniform traffic need 4 of 8 recent offsets within the radius of a
  // big file: P ~ (radius/file)^4, vanishingly rare.
  static constexpr std::uint32_t kClusterMin = 4;       // dense window votes
  static constexpr std::uint64_t kClusterRadius = 128 * 1024;
  static constexpr std::uint32_t kMinStrideRun = 2;

  struct FileStream {
    std::uint64_t last_offset = 0;
    std::uint32_t last_len = 0;
    std::int64_t stride = 0;
    std::uint32_t run = 0;  // consecutive accesses with this stride
    std::array<std::uint64_t, kClusterWindow> recent{};
    std::uint32_t recent_count = 0;
    std::uint32_t recent_pos = 0;
    bool valid = false;
  };

  std::unordered_map<FileId, FileStream> streams_;
  std::uint64_t fine_accesses_ = 0;
  std::array<std::uint64_t, kStreamClassCount> stream_class_counts_{};
};

/// Read Dispatcher (paper §3.1.2): sends each read down the byte-granular
/// or the block interface, "mainly based on the data size". Sub-page reads
/// take the fine path; page-sized-and-larger aligned reads take the block
/// path (where read-ahead and the page cache shine). A page-sized read at
/// an unaligned offset still spans two pages and is cheaper fine-grained.
struct DispatchConfig {
  std::uint32_t fine_max_len = kBlockSize;  // largest fine-grained request
};

enum class Route { kFine, kBlock };

inline Route dispatch_read(const DispatchConfig& config, int open_flags,
                           std::uint64_t offset, std::uint64_t len) {
  if (!FineGrainedAccessDetector::permitted(open_flags)) return Route::kBlock;
  if (len > config.fine_max_len) return Route::kBlock;
  if (len < kBlockSize) return Route::kFine;
  if (len == kBlockSize && (offset % kBlockSize) != 0) return Route::kFine;
  return Route::kBlock;
}

}  // namespace pipette
