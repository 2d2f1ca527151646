// pipette_bench: the repository benchmark program.
//
//   pipette_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--scale smoke|bench]
//
// One process runs one workload, so peak RSS is per workload. It repeats a
// fixed, seeded run ("rep") for about --seconds of host time: generate the
// requests, build the machine, warm up, measure, collect metrics, tear down.
// End-to-end host times are the fast decile of their samples (see
// fast_decile), per-layer ones medians over reps. Simulated results must be
// identical in every rep; the run is reported incorrect when they are not.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// reps with traced ones and reports the per-layer metrics. A traced rep
// times each call into the simulator's public API from outside: the
// Machine constructor and destructor, every Vfs::pread/pwrite, and
// Machine::collect_metrics. The fleet workload goes through
// FleetRunner::run instead, and its traced rep runs the shards on one
// thread.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. The exit status is 1
// when the run is incorrect and 2 on a usage error. README.md in this
// directory defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/table.h"
#include "fleet/fleet.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"
#include "zipf_slot_workload.h"

namespace pipette::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t nanos_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The end-to-end host-time estimator: the 10th percentile (nearest rank
/// below; the minimum for up to ten samples). Other tenants of a shared
/// machine only ever add time, in bursts that cover anywhere from none to
/// most of a run, so the samples are bimodal and their median flips
/// between the two modes from run to run. The fast tail tracks the
/// program's own cost, and moves with it.
double fast_decile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 10];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Options

/// Requests per rep. The bench scale is a fifth of §4.2's 1 M warmup +
/// 2.5 M measured reads, so several reps fit in one run; smoke (the
/// project's ctest) is 1/100 of §4.2.
struct Scale {
  std::uint64_t warmup = 0;
  std::uint64_t requests = 0;
  std::uint64_t total() const { return warmup + requests; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string scale_name = "bench";
  Scale scale{200'000, 500'000};
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr,
               "pipette_bench: %s\n"
               "usage: pipette_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale smoke|bench]\n"
               "workloads: block_uniform_4k pipette_zipf_128 "
               "pipette_write_gc fleet_zipf_4shard\n",
               what);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage_error("bad number");
  return v;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(value);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(value);
      if (t > 1) usage_error("--trace takes 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--scale") {
      opt.scale_name = value;
      if (opt.scale_name == "bench") {
        opt.scale = {200'000, 500'000};
      } else if (opt.scale_name == "smoke") {
        opt.scale = {10'000, 25'000};
      } else {
        usage_error("unknown scale");
      }
    } else {
      usage_error("unknown flag");
    }
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  return opt;
}

// ---------------------------------------------------------------------------
// Metric output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the metrics as a table, then the result line the benchmark
/// contract asks for as the last line of stdout.
void report(const std::vector<Metric>& metrics, bool correct,
            std::uint64_t attempted, std::uint64_t failed) {
  Table t({"metric", "value", "unit"});
  for (const Metric& m : metrics) {
    t.add_row({m.name, Table::fmt(m.value, 6), m.unit});
  }
  std::fputs(t.to_text().c_str(), stdout);
  std::printf("correct %s, %llu ops attempted, %llu failed\n",
              correct ? "yes" : "NO",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value, 9);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

/// Simulated end-to-end metrics, from the measured-phase read histogram.
void add_sim_metrics(std::vector<Metric>& out, const LatencyHistogram& reads,
                     double requests_per_sec, std::uint64_t traffic_bytes,
                     std::uint64_t requests) {
  out.push_back({"sim_p50_us", to_us(reads.percentile(50)), "sim_us"});
  out.push_back({"sim_p99_us", to_us(reads.percentile(99)), "sim_us"});
  out.push_back({"sim_p999_us", to_us(reads.percentile(99.9)), "sim_us"});
  out.push_back({"sim_kreq_per_s", requests_per_sec / 1e3, "kreq/sim_s"});
  out.push_back({"io_bytes_per_req",
                 ratio(static_cast<double>(traffic_bytes),
                       static_cast<double>(requests)),
                 "B/req"});
  std::printf("read latency samples: %llu (p99.9 has %llu beyond it)\n",
              static_cast<unsigned long long>(reads.count()),
              static_cast<unsigned long long>(reads.count() / 1000));
}

/// Per-layer counts from component metrics. `start` is the registry at
/// the start of the counted span (empty for a whole run), `end` the one at
/// its end; `machines` is how many machines' registries `end` merges.
void add_count_metrics(std::vector<Metric>& out, const MetricsRegistry& start,
                       const MetricsRegistry& end, std::uint64_t requests,
                       std::uint64_t reads, std::uint64_t machines) {
  auto d = [&](const char* name) {
    return static_cast<double>(end.value(name) - start.value(name));
  };
  const double req = static_cast<double>(requests);
  const double sim_ns = d("util.sim_time_ns");
  auto busy_share = [&](const char* resource) {
    const std::string prefix = std::string("util.") + resource;
    const double units =
        static_cast<double>(end.value(prefix + ".units")) /
        static_cast<double>(machines);
    return ratio(d((prefix + ".busy_ns").c_str()), sim_ns * units);
  };
  out.push_back({"hostmem.page_cache_hit_ratio",
                 ratio(d("page_cache.hits"),
                       d("page_cache.hits") + d("page_cache.misses")),
                 "ratio"});
  out.push_back({"hostmem.readahead_pages_per_req",
                 ratio(d("page_cache.readahead_pages"), req), "count"});
  out.push_back({"hostmem.evictions_per_req",
                 ratio(d("page_cache.evictions"), req), "count"});
  out.push_back({"pipette.fgrc_hit_ratio",
                 ratio(d("fgrc.hits"), d("fgrc.hits") + d("fgrc.misses")),
                 "ratio"});
  out.push_back({"pipette.fine_read_frac",
                 ratio(d("pipette.fine_reads"), static_cast<double>(reads)),
                 "ratio"});
  out.push_back({"pipette.fgrc_promotions_per_req",
                 ratio(d("fgrc.promotions"), req), "count"});
  out.push_back({"ssd.read_buffer_hit_ratio",
                 ratio(d("ssd.read_buffer_hits"),
                       d("ssd.read_buffer_hits") + d("ssd.read_buffer_misses")),
                 "ratio"});
  out.push_back(
      {"ssd.pcie_link_busy_share", busy_share("pcie_link"), "ratio"});
  // Cumulative since the drive was built: the FTL exports no per-phase WA.
  out.push_back({"ssd.ftl_write_amp",
                 static_cast<double>(end.value("ftl.write_amp_x1000")) / 1e3,
                 "ratio"});
  out.push_back({"ssd.gc_collections_per_kreq",
                 ratio(d("ftl.gc_collections"), req / 1e3), "count"});
  out.push_back({"nand.page_reads_per_req", ratio(d("nand.page_reads"), req),
                 "count"});
  out.push_back({"nand.die_busy_share", busy_share("nand_die"), "ratio"});
  out.push_back({"nand.die_wait_ns_per_op",
                 ratio(d("queue.nand_die.wait_ns"), d("util.nand_die.ops")),
                 "sim_ns"});
  out.push_back({"nand.gc_blocked_share",
                 ratio(d("util.gc.foreground_blocked_ns"),
                       d("queue.nand_die.wait_ns")),
                 "ratio"});
}

/// Host cost of the payload synthesis every read path runs, on 4 KiB
/// buffers. fill_pattern lives in another translation unit and writes
/// through its argument, so the calls cannot be optimised away.
double fill_pattern_ns_per_kib() {
  constexpr std::uint64_t kIters = 4096;
  std::vector<std::uint8_t> buf(4096);
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    fill_pattern(buf, i, i * buf.size());
  }
  const double ns = seconds_between(t0, Clock::now()) * 1e9;
  return ns / static_cast<double>(kIters * buf.size() / 1024);
}

/// Construction time of a lone SSD controller shaped as `config`'s machine
/// shapes it (see shaped() in sim/machine.cpp): the device-side share of
/// Machine construction.
double controller_ctor_seconds(const MachineConfig& config) {
  ControllerConfig ssd = config.ssd;
  ssd.interconnect = config.interconnect;
  if (config.mapping_unit != 0) ssd.mapping_unit = config.mapping_unit;
  if (config.kind != PathKind::kPipette &&
      config.kind != PathKind::kPipetteNoCache) {
    ssd.hmb.data_bytes = 1 * kMiB;
  }
  Simulator sim(config.queue);
  const Clock::time_point t0 = Clock::now();
  auto controller = std::make_unique<SsdController>(sim, ssd);
  return seconds_between(t0, Clock::now());
}

enum class RepKind { kWarmup, kUntraced, kTraced };

const char* to_string(RepKind kind) {
  switch (kind) {
    case RepKind::kWarmup:
      return "warmup";
    case RepKind::kUntraced:
      return "untraced";
    case RepKind::kTraced:
      return "traced";
  }
  return "?";
}

/// Rep schedule shared by both workload kinds. The first rep warms the
/// process (allocator arenas, caches) and is checked but not timed. The
/// timed reps are all untraced, or untraced and traced alternating in
/// pairs. At least three untraced reps or two pairs run; more run while
/// the next one is predicted to end within --seconds.
class RepSchedule {
 public:
  explicit RepSchedule(const Options& opt)
      : opt_(opt), start_(Clock::now()) {}

  /// Whether to run another rep, and of which kind.
  bool next(RepKind& kind) {
    const double elapsed = seconds_between(start_, Clock::now());
    const double per_rep = done_ == 0 ? 0.0 : elapsed / done_;
    const std::size_t timed = done_ == 0 ? 0 : done_ - 1;
    const bool pair_open = opt_.trace && timed % 2 == 1;
    const std::size_t min_timed = opt_.trace ? 4 : 3;
    const bool more = done_ == 0 || pair_open || timed < min_timed ||
                      (elapsed + per_rep <= opt_.seconds && done_ < kMaxReps);
    kind = done_ == 0  ? RepKind::kWarmup
           : pair_open ? RepKind::kTraced
                       : RepKind::kUntraced;
    if (more) ++done_;
    return more;
  }

 private:
  static constexpr std::size_t kMaxReps = 200;
  const Options& opt_;
  Clock::time_point start_;
  std::size_t done_ = 0;
};

/// `field(rep)` over the timed reps of one kind (untraced or traced): one
/// value per rep, or the reps' samples pooled when `field` returns a
/// vector.
template <typename Rep, typename Field>
std::vector<double> rep_samples(const std::vector<Rep>& reps, bool of_traced,
                                Field field) {
  const RepKind want = of_traced ? RepKind::kTraced : RepKind::kUntraced;
  std::vector<double> v;
  for (const Rep& r : reps) {
    if (r.kind != want) continue;
    if constexpr (std::is_same_v<decltype(field(r)), double>) {
      v.push_back(field(r));
    } else {
      const std::vector<double>& samples = field(r);
      v.insert(v.end(), samples.begin(), samples.end());
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Single-machine workloads

/// One machine and its request generator.
struct MachineWorkload {
  MachineConfig machine;
  std::function<std::unique_ptr<Workload>(std::uint64_t seed)> make;
};

/// bench/gc_wear_sweep's drive: 8 dies x 16 blocks x 32 pages (16 MiB) at
/// 50% logical use, host caches well below the file so reads reach the
/// device, fine writes on, 512 B mapping units.
MachineConfig gc_machine() {
  MachineConfig c = default_machine(PathKind::kPipette);
  c.ssd.geometry.channels = 4;
  c.ssd.geometry.ways_per_channel = 2;
  c.ssd.geometry.planes_per_die = 1;
  c.ssd.geometry.blocks_per_plane = 16;
  c.ssd.geometry.pages_per_block = 32;
  c.ssd.lba_count = c.ssd.geometry.total_pages() / 2;
  c.ssd.read_buffer_bytes = 2 * kMiB;
  c.page_cache_bytes = 1 * kMiB;
  c.ssd.hmb.data_bytes = 1 * kMiB;
  c.pipette.fine_writes = true;
  c.mapping_unit = 512;
  return c;
}

bool machine_workload(const std::string& name, MachineWorkload& out) {
  if (name == "block_uniform_4k") {
    out.machine = default_machine(PathKind::kBlockIo);
    out.make = [](std::uint64_t seed) -> std::unique_ptr<Workload> {
      return std::make_unique<SyntheticWorkload>(
          table1_workload('A', Distribution::kUniform, seed));
    };
    return true;
  }
  if (name == "pipette_zipf_128") {
    out.machine = default_machine(PathKind::kPipette);
    out.make = [](std::uint64_t seed) -> std::unique_ptr<Workload> {
      return std::make_unique<SyntheticWorkload>(
          table1_workload('E', Distribution::kZipf, seed));
    };
    return true;
  }
  if (name == "pipette_write_gc") {
    out.machine = gc_machine();
    // The file spans every allocatable LBA (the file system reserves 64),
    // so the whole drive is overwrite-hot.
    const std::uint64_t file_size =
        (out.machine.ssd.lba_count - 64) * kBlockSize;
    out.make = [file_size](std::uint64_t seed) -> std::unique_ptr<Workload> {
      return std::make_unique<ZipfSlotWorkload>(file_size, seed);
    };
    return true;
  }
  return false;
}

/// Serves a pre-generated request vector, so the program under test gets
/// only generated inputs and no generation work is timed with it.
class ReplayWorkload : public Workload {
 public:
  ReplayWorkload(std::vector<FileSpec> files, std::span<const Request> reqs)
      : files_(std::move(files)), reqs_(reqs) {}

  const std::vector<FileSpec>& files() const override { return files_; }
  Request next() override {
    PIPETTE_ASSERT(pos_ < reqs_.size());
    return reqs_[pos_++];
  }
  std::string name() const override { return "replay"; }

 private:
  std::vector<FileSpec> files_;
  std::span<const Request> reqs_;
  std::size_t pos_ = 0;
};

/// Checks read payloads outside the timed calls, as
/// tests/property_test.cpp does. A workload that writes keeps a shadow of
/// its file and checks every read against it; a read-only workload checks
/// every 16th read against the drive's logical content.
class PayloadOracle {
 public:
  static constexpr std::uint64_t kSampleEvery = 16;

  PayloadOracle(Machine& machine, const FileSpec& file, bool shadow)
      : file_(machine.fs().find(file.name)) {
    PIPETTE_ASSERT(file_ != kInvalidFileId);
    if (shadow) {
      shadow_.resize(file.size);
      load(machine, 0, file.size, shadow_.data());
    }
  }

  /// Before the call. Fills a write's buffer with bytes only the bench
  /// knows (one hash of request index and offset, then distinct words from
  /// it, so a stale or misplaced read cannot match) and records them in the
  /// shadow. For a read, returns whether check() should verify it; with a
  /// shadow, also starts loading the read's shadow bytes into cache, so
  /// they arrive while the call runs instead of stalling check() on a
  /// random 8 MiB access.
  bool prepare(std::uint64_t index, const Request& req, std::uint8_t* buf) {
    PIPETTE_ASSERT(shadow_.empty() || req.offset + req.len <= shadow_.size());
    if (req.is_write) {
      const std::uint64_t key = mix64((index << 32) ^ req.offset);
      const std::uint32_t words = req.len / 8;
      for (std::uint32_t w = 0; w < words; ++w) {
        const std::uint64_t word = key + w * 0x9e3779b97f4a7c15ULL;
        std::memcpy(buf + 8 * w, &word, 8);
      }
      for (std::uint32_t pos = words * 8; pos < req.len; ++pos) {
        buf[pos] = static_cast<std::uint8_t>(key >> (8 * (pos % 8)));
      }
      if (!shadow_.empty()) {
        std::memcpy(shadow_.data() + req.offset, buf, req.len);
      }
      return false;
    }
    if (shadow_.empty()) return index % kSampleEvery == 0;
    for (std::uint32_t pos = 0; pos < req.len; pos += 64) {
      __builtin_prefetch(shadow_.data() + req.offset + pos);
    }
    return true;
  }

  /// After the call: checks a read's bytes.
  void check(Machine& machine, const Request& req, const std::uint8_t* buf) {
    const std::uint8_t* want = nullptr;
    if (!shadow_.empty()) {
      want = shadow_.data() + req.offset;
    } else {
      expect_.resize(req.len);
      load(machine, req.offset, req.len, expect_.data());
      want = expect_.data();
    }
    ++checked_;
    if (std::memcmp(buf, want, req.len) != 0) ++mismatches_;
  }

  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  void load(Machine& machine, std::uint64_t offset, std::uint64_t len,
            std::uint8_t* out) {
    ranges_.clear();
    machine.fs().extract_lbas(file_, offset, len, ranges_);
    for (const LbaRange& r : ranges_) {
      machine.ssd().content().read(r.lba, r.offset, {out, r.len});
      out += r.len;
    }
  }

  FileId file_;
  std::vector<std::uint8_t> shadow_;
  std::vector<std::uint8_t> expect_;
  std::vector<LbaRange> ranges_;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// Per-call host time of the measured phase of a traced rep.
struct CallTimes {
  std::uint64_t hit_ns = 0;  // reads that executed no simulator event
  std::uint64_t hits = 0;
  std::uint64_t device_ns = 0;  // reads that executed at least one
  std::uint64_t device_reads = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t writes = 0;
  std::uint64_t oracle_ns = 0;  // PayloadOracle::check, the bench's own work
};

/// Requests per host-time sample. Host speed on a shared machine dips for a
/// few hundred milliseconds at a time; statistics over many ~25 ms chunks
/// read through those dips where a whole-phase mean would not. The warmup
/// is a whole number of chunks, so measuring starts on a chunk boundary.
constexpr std::uint64_t kChunkRequests = 10'000;

/// Setups of at least this much host time per rep are timed, by building
/// extra machines when one takes less (the GC drive builds in well under
/// a millisecond, too short for one sample per rep to be steady).
constexpr double kSetupSampleSeconds = 0.05;

struct MachineRep {
  RepKind kind = RepKind::kWarmup;
  RunResult result;
  MetricsRegistry at_measure;  // component metrics when measuring starts
  std::uint64_t events_at_measure = 0;
  double wall_s = 0.0;
  double gen_s = 0.0;
  double ctor_s = 0.0;
  double measured_s = 0.0;
  double collect_s = 0.0;  // traced reps only
  double dtor_s = 0.0;
  // The rep's wall time cut at fixed points: generation, construction, up
  // to the first request, each chunk, the end of the run to destruction,
  // destruction. Every rep has the same cuts.
  std::vector<double> segments_s;
  std::vector<double> chunk_ns_per_req;  // measured-phase chunks
  std::vector<double> setup_s;  // ctor_s plus any extra constructions
  CallTimes calls;
  std::uint64_t failed_ops = 0;  // path failures + payload mismatches
  std::uint64_t reads_checked = 0;
};

MachineRep run_machine_rep(const MachineWorkload& wl, const Options& opt,
                           RepKind kind, std::vector<Request>& reqs) {
  MachineRep rep;
  rep.kind = kind;
  const bool traced = kind == RepKind::kTraced;
  const Scale scale = opt.scale;
  const Clock::time_point t0 = Clock::now();

  const std::unique_ptr<Workload> gen = wl.make(opt.seed);
  PIPETTE_ASSERT(gen->files().size() == 1);
  reqs.clear();
  reqs.reserve(scale.total());
  for (std::uint64_t i = 0; i < scale.total(); ++i) reqs.push_back(gen->next());
  const Clock::time_point t_gen = Clock::now();

  auto machine = std::make_unique<Machine>(wl.machine, gen->files());
  const Clock::time_point t_ctor = Clock::now();

  bool writes = false;
  for (const Request& r : reqs) writes = writes || r.is_write;
  PayloadOracle oracle(*machine, gen->files()[0], writes);
  ReplayWorkload replay(gen->files(), reqs);
  RunArena arena;  // its io_buf is the request bounce buffer
  std::uint64_t index = 0;
  PIPETTE_ASSERT(scale.warmup % kChunkRequests == 0);
  // Chunk starts, then the end of the last request.
  std::vector<Clock::time_point> marks;
  marks.reserve(scale.total() / kChunkRequests + 2);
  // A traced rep reads the clock once after each call and once after each
  // payload check. Each call is timed from the stamp before it, so its time
  // also holds PayloadOracle::prepare and run_experiment_on's loop.
  Clock::time_point stamp = t_ctor;
  RunHooks hooks;
  hooks.on_request = [&](const Request& req, const RunHooks::IssueFn& issue) {
    const std::uint64_t i = index++;
    if (i == scale.warmup) {
      machine->collect_metrics(rep.at_measure);
      rep.events_at_measure = machine->sim().events_executed();
    }
    if (i % kChunkRequests == 0) {
      marks.push_back(Clock::now());
      stamp = marks.back();
    }
    std::uint8_t* buf = arena.io_buf.data();
    const bool check = oracle.prepare(i, req, buf);
    if (traced && i >= scale.warmup) {
      const std::uint64_t events0 = machine->sim().events_executed();
      issue(req);
      const Clock::time_point called = Clock::now();
      const std::uint64_t ns = nanos_between(stamp, called);
      stamp = called;
      CallTimes& c = rep.calls;
      if (req.is_write) {
        c.write_ns += ns;
        ++c.writes;
      } else if (machine->sim().events_executed() == events0) {
        c.hit_ns += ns;
        ++c.hits;
      } else {
        c.device_ns += ns;
        ++c.device_reads;
      }
      if (check) {
        oracle.check(*machine, req, buf);
        stamp = Clock::now();
        c.oracle_ns += nanos_between(called, stamp);
      }
    } else {
      issue(req);
      if (check) oracle.check(*machine, req, buf);
    }
    if (i + 1 == scale.total()) marks.push_back(Clock::now());
    return true;
  };
  rep.result = run_experiment_on(*machine, replay,
                                 RunConfig{scale.requests, scale.warmup, {}},
                                 hooks, &arena);
  PIPETTE_ASSERT(marks.size() == (scale.total() - 1) / kChunkRequests + 2);
  const std::size_t first_measured = scale.warmup / kChunkRequests;
  for (std::size_t k = first_measured; k + 1 < marks.size(); ++k) {
    const std::uint64_t n =
        std::min(kChunkRequests, scale.total() - k * kChunkRequests);
    rep.chunk_ns_per_req.push_back(
        static_cast<double>(nanos_between(marks[k], marks[k + 1])) /
        static_cast<double>(n));
  }
  rep.measured_s = seconds_between(marks[first_measured], marks.back());

  if (traced) {
    MetricsRegistry again;
    const Clock::time_point c0 = Clock::now();
    machine->collect_metrics(again);
    rep.collect_s = seconds_between(c0, Clock::now());
  }
  const PathStats& ps = machine->path().stats();
  rep.failed_ops = ps.failed_reads + ps.failed_writes + oracle.mismatches();
  rep.reads_checked = oracle.checked();

  const Clock::time_point t_dtor0 = Clock::now();
  machine.reset();
  const Clock::time_point t_end = Clock::now();
  rep.gen_s = seconds_between(t0, t_gen);
  rep.ctor_s = seconds_between(t_gen, t_ctor);
  rep.dtor_s = seconds_between(t_dtor0, t_end);
  rep.wall_s = seconds_between(t0, t_end);
  rep.segments_s = {rep.gen_s, rep.ctor_s, seconds_between(t_ctor, marks[0])};
  for (std::size_t k = 0; k + 1 < marks.size(); ++k) {
    rep.segments_s.push_back(seconds_between(marks[k], marks[k + 1]));
  }
  rep.segments_s.push_back(seconds_between(marks.back(), t_dtor0));
  rep.segments_s.push_back(rep.dtor_s);

  // Extra constructions come after the rep, outside its wall time.
  rep.setup_s.push_back(rep.ctor_s);
  double setup_total = rep.ctor_s;
  while (setup_total < kSetupSampleSeconds && rep.setup_s.size() < 64) {
    const Clock::time_point c0 = Clock::now();
    auto extra = std::make_unique<Machine>(wl.machine, gen->files());
    rep.setup_s.push_back(seconds_between(c0, Clock::now()));
    setup_total += rep.setup_s.back();
  }
  return rep;
}

int run_machine_workload(const Options& opt, const MachineWorkload& wl) {
  std::vector<MachineRep> reps;
  std::vector<Request> reqs;
  std::vector<double> controller_s;
  std::vector<double> fill_ns;
  RepSchedule schedule(opt);
  RepKind kind = RepKind::kWarmup;
  while (schedule.next(kind)) {
    reps.push_back(run_machine_rep(wl, opt, kind, reqs));
    const MachineRep& r = reps.back();
    if (kind == RepKind::kTraced) {
      controller_s.push_back(controller_ctor_seconds(wl.machine));
      fill_ns.push_back(fill_pattern_ns_per_kib());
    }
    std::fprintf(stderr, "  rep %zu %s: wall %.3f s, measured %.3f s\n",
                 reps.size(), to_string(kind), r.wall_s, r.measured_s);
  }

  const MachineRep& first = reps.front();
  bool deterministic = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const MachineRep& r : reps) {
    deterministic = deterministic &&
                    r.result.Deterministic() == first.result.Deterministic() &&
                    r.reads_checked == first.reads_checked;
    attempted += opt.scale.total();
    failed += r.failed_ops;
  }
  if (!deterministic) {
    std::fprintf(stderr, "pipette_bench: reps disagree on simulated results\n");
  }
  const bool correct = deterministic && failed == 0 &&
                       first.reads_checked > 0 &&
                       first.result.requests == opt.scale.requests;

  auto med = [&](bool of_traced, auto field) {
    return median(rep_samples(reps, of_traced, field));
  };
  auto fast = [&](auto field) {
    return fast_decile(rep_samples(reps, false, field));
  };
  // Rep wall time over the untraced or the traced reps. Contention bursts
  // slow different segments in different reps, so each segment takes its
  // own fast decile.
  auto segmented_wall = [&](bool of_traced) {
    double wall = 0.0;
    for (std::size_t k = 0; k < first.segments_s.size(); ++k) {
      wall += fast_decile(rep_samples(
          reps, of_traced, [k](auto& r) { return r.segments_s[k]; }));
    }
    return wall;
  };
  const double requests = static_cast<double>(opt.scale.requests);
  const RunResult& res = first.result;
  std::printf("workload %s, seed %llu, scale %s: %llu warmup + %llu measured "
              "requests per rep, %zu reps (1 warmup)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.scale_name.c_str(),
              static_cast<unsigned long long>(opt.scale.warmup),
              static_cast<unsigned long long>(opt.scale.requests),
              reps.size());

  std::vector<Metric> m;
  if (!opt.trace) {
    m.push_back({"wall_s", segmented_wall(false), "s"});
    m.push_back(
        {"host_ns_per_req",
         fast([](auto& r) -> auto& { return r.chunk_ns_per_req; }), "ns"});
    m.push_back(
        {"setup_s", fast([](auto& r) -> auto& { return r.setup_s; }), "s"});
    m.push_back({"teardown_s", fast([](auto& r) { return r.dtor_s; }), "s"});
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    add_sim_metrics(m, res.read_latency, res.requests_per_sec(),
                    res.traffic_bytes, res.requests);
  } else {
    const MachineRep* t = nullptr;
    for (const MachineRep& r : reps) {
      if (r.kind == RepKind::kTraced) t = &r;
    }
    const CallTimes& c = t->calls;
    const double events =
        static_cast<double>(res.events_executed - first.events_at_measure);
    m.push_back({"workload.gen_ns_per_req",
                 med(true,
                     [&](auto& r) {
                       return r.gen_s /
                              static_cast<double>(opt.scale.total());
                     }) *
                     1e9,
                 "ns"});
    m.push_back({"workload.next_calls_per_req", 1.0, "count"});
    m.push_back({"fleet.outside_cells_s", 0.0, "s"});
    m.push_back({"fleet.parallel_efficiency", 0.0, "ratio"});
    m.push_back({"fleet.load_imbalance", 0.0, "ratio"});
    m.push_back(
        {"sim.machine_ctor_s", med(true, [](auto& r) { return r.ctor_s; }),
         "s"});
    m.push_back(
        {"sim.machine_dtor_s", med(true, [](auto& r) { return r.dtor_s; }),
         "s"});
    m.push_back({"ssd.controller_ctor_s", median(controller_s), "s"});
    auto per_call = [](std::uint64_t ns, std::uint64_t n) {
      return ratio(static_cast<double>(ns), static_cast<double>(n));
    };
    m.push_back({"iopath.read_hit_ns", med(true, [&](auto& r) {
                   return per_call(r.calls.hit_ns, r.calls.hits);
                 }),
                 "ns"});
    m.push_back({"iopath.read_hit_frac",
                 ratio(static_cast<double>(c.hits),
                       static_cast<double>(c.hits + c.device_reads)),
                 "ratio"});
    m.push_back({"iopath.read_device_ns", med(true, [&](auto& r) {
                   return per_call(r.calls.device_ns, r.calls.device_reads);
                 }),
                 "ns"});
    m.push_back({"iopath.write_ns", med(true, [&](auto& r) {
                   return per_call(r.calls.write_ns, r.calls.writes);
                 }),
                 "ns"});
    m.push_back({"verify.oracle_ns_per_req", med(true, [&](auto& r) {
                   return static_cast<double>(r.calls.oracle_ns) / requests;
                 }),
                 "ns"});
    m.push_back({"des.events_per_req", events / requests, "count"});
    m.push_back({"des.host_ns_per_event", med(true, [&](auto& r) {
                   return ratio(static_cast<double>(r.calls.device_ns +
                                                    r.calls.write_ns),
                                events);
                 }),
                 "ns"});
    m.push_back(
        {"common.fill_pattern_ns_per_kib", median(fill_ns), "ns"});
    add_count_metrics(m, first.at_measure, res.metrics, res.requests,
                      res.measured_reads, 1);
    m.push_back({"obs.collect_metrics_us",
                 med(true, [](auto& r) { return r.collect_s; }) * 1e6, "us"});
    m.push_back({"obs.trace_overhead_frac",
                 segmented_wall(true) / segmented_wall(false) - 1.0, "ratio"});
    m.push_back({"verify.reads_checked",
                 static_cast<double>(first.reads_checked), "count"});
  }
  report(m, correct, attempted, failed);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Fleet workload

/// Host timestamps of one workload instance the fleet's factory made.
struct InstanceRecord {
  Clock::time_point created;
  Clock::time_point first_next;
  Clock::time_point destroyed;
  std::uint64_t next_calls = 0;
};

/// Collects InstanceRecords from the fleet's worker threads.
class InstanceLog {
 public:
  explicit InstanceLog(std::size_t expected) { records_.reserve(expected); }

  void add(const InstanceRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
  }

  /// The records in creation order.
  std::vector<InstanceRecord> sorted() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<InstanceRecord> out = records_;
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.created < b.created;
    });
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<InstanceRecord> records_;
};

/// Wraps the fleet's workload to count next() calls and to stamp when the
/// instance is made, first pulled from, and destroyed. A shard's instance
/// is made just before its machine and destroyed just after it, so these
/// stamps bracket each shard's setup and teardown from outside.
class CountingWorkload : public Workload {
 public:
  CountingWorkload(std::unique_ptr<Workload> inner, InstanceLog& log)
      : inner_(std::move(inner)), log_(log) {
    record_.created = Clock::now();
  }
  ~CountingWorkload() override {
    record_.destroyed = Clock::now();
    log_.add(record_);
  }
  CountingWorkload(const CountingWorkload&) = delete;
  CountingWorkload& operator=(const CountingWorkload&) = delete;

  const std::vector<FileSpec>& files() const override {
    return inner_->files();
  }
  Request next() override {
    if (record_.next_calls++ == 0) record_.first_next = Clock::now();
    return inner_->next();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Workload> inner_;
  InstanceLog& log_;
  InstanceRecord record_;
};

constexpr std::size_t kFleetShards = 4;
constexpr unsigned kFleetJobs = 2;

struct FleetRep {
  RepKind kind = RepKind::kWarmup;
  FleetResult result;
  double wall_s = 0.0;
  double run_s = 0.0;
  double cells_s = 0.0;     // sum of shard host_seconds
  double setup_s = 0.0;     // sum over shards: made -> first next()
  double teardown_s = 0.0;  // sum over shards: after the cell -> destroyed
  double prepass_s = 0.0;   // the counting pre-pass instance's lifetime
  std::uint64_t next_calls = 0;
  bool shape_ok = false;
};

FleetRep run_fleet_rep(const Options& opt, RepKind kind) {
  FleetRep rep;
  rep.kind = kind;
  const bool traced = kind == RepKind::kTraced;
  const Clock::time_point t0 = Clock::now();
  InstanceLog log(kFleetShards + 1);
  FleetConfig config;
  config.shards = kFleetShards;
  config.partition = PartitionScheme::kHash;
  config.machine = default_machine(PathKind::kPipette);
  const FleetRunner runner(
      config,
      [&log](std::uint64_t seed) -> std::unique_ptr<Workload> {
        return std::make_unique<CountingWorkload>(
            std::make_unique<SyntheticWorkload>(
                table1_workload('C', Distribution::kZipf, seed)),
            log);
      },
      opt.seed);
  const Clock::time_point run0 = Clock::now();
  rep.result = runner.run(RunConfig{opt.scale.requests, opt.scale.warmup, {}},
                          traced ? 1 : kFleetJobs);
  const Clock::time_point run1 = Clock::now();
  rep.run_s = seconds_between(run0, run1);

  // The first instance is the counting pre-pass over the master stream;
  // one more per shard follows.
  const std::vector<InstanceRecord> records = log.sorted();
  rep.shape_ok = records.size() == kFleetShards + 1 &&
                 rep.result.shard_results.size() == kFleetShards;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const InstanceRecord& r = records[i];
    rep.next_calls += r.next_calls;
    if (i == 0) {
      rep.prepass_s = seconds_between(r.created, r.destroyed);
      continue;
    }
    rep.setup_s += seconds_between(r.created, r.first_next);
    rep.teardown_s += seconds_between(r.first_next, r.destroyed);
  }
  for (const RunResult& s : rep.result.shard_results) {
    rep.cells_s += s.host_seconds;
  }
  rep.teardown_s -= rep.cells_s;
  rep.wall_s = seconds_between(t0, Clock::now());
  return rep;
}

int run_fleet_workload(const Options& opt) {
  std::vector<FleetRep> reps;
  std::vector<double> controller_s;
  std::vector<double> fill_ns;
  RepSchedule schedule(opt);
  RepKind kind = RepKind::kWarmup;
  while (schedule.next(kind)) {
    reps.push_back(run_fleet_rep(opt, kind));
    const bool traced = kind == RepKind::kTraced;
    if (traced) {
      controller_s.push_back(
          controller_ctor_seconds(default_machine(PathKind::kPipette)));
      fill_ns.push_back(fill_pattern_ns_per_kib());
    }
    std::fprintf(stderr, "  rep %zu %s: wall %.3f s, run %.3f s (jobs %u)\n",
                 reps.size(), to_string(kind), reps.back().wall_s,
                 reps.back().run_s, traced ? 1 : kFleetJobs);
  }

  const FleetRep& first = reps.front();
  const FleetResult& res = first.result;
  const std::uint64_t master = opt.scale.total();
  bool deterministic = true;
  bool shape_ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const FleetRep& r : reps) {
    // Traced reps run the shards on one thread, untraced ones on
    // kFleetJobs: this is the jobs-1 == jobs-N check.
    deterministic = deterministic && deterministic_equal(r.result, res);
    shape_ok = shape_ok && r.shape_ok;
    attempted += master;
    failed += r.result.failed_reads;
  }
  if (!deterministic) {
    std::fprintf(stderr, "pipette_bench: reps disagree on simulated results\n");
  }
  const bool correct = deterministic && shape_ok && failed == 0 &&
                       res.requests == opt.scale.requests;

  auto med = [&](bool of_traced, auto field) {
    return median(rep_samples(reps, of_traced, field));
  };
  auto fast = [&](auto field) {
    return fast_decile(rep_samples(reps, false, field));
  };
  const double master_d = static_cast<double>(master);
  std::printf("workload %s, seed %llu, scale %s: %llu warmup + %llu measured "
              "master requests over %zu shards per rep, %zu reps "
              "(1 warmup)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.scale_name.c_str(),
              static_cast<unsigned long long>(opt.scale.warmup),
              static_cast<unsigned long long>(opt.scale.requests),
              kFleetShards, reps.size());

  std::vector<Metric> m;
  if (!opt.trace) {
    m.push_back({"wall_s", fast([](auto& r) { return r.wall_s; }), "s"});
    m.push_back({"host_ns_per_req",
                 fast([&](auto& r) { return r.run_s / master_d; }) * 1e9,
                 "ns"});
    m.push_back({"setup_s", fast([](auto& r) { return r.setup_s; }), "s"});
    m.push_back(
        {"teardown_s", fast([](auto& r) { return r.teardown_s; }), "s"});
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    add_sim_metrics(m, res.latency, res.requests_per_sec(), res.traffic_bytes,
                    res.requests);
  } else {
    const double shards = static_cast<double>(kFleetShards);
    m.push_back({"workload.gen_ns_per_req",
                 med(true, [&](auto& r) { return r.prepass_s / master_d; }) *
                     1e9,
                 "ns"});
    m.push_back({"workload.next_calls_per_req",
                 static_cast<double>(first.next_calls) / master_d, "count"});
    m.push_back({"fleet.outside_cells_s",
                 med(true, [](auto& r) { return r.run_s - r.cells_s; }), "s"});
    m.push_back({"fleet.parallel_efficiency", med(false, [](auto& r) {
                   return r.cells_s / (kFleetJobs * r.run_s);
                 }),
                 "ratio"});
    m.push_back({"fleet.load_imbalance", res.load_imbalance, "ratio"});
    m.push_back({"sim.machine_ctor_s",
                 med(true, [&](auto& r) { return r.setup_s / shards; }), "s"});
    m.push_back({"sim.machine_dtor_s",
                 med(true, [&](auto& r) { return r.teardown_s / shards; }),
                 "s"});
    m.push_back({"ssd.controller_ctor_s", median(controller_s), "s"});
    // The fleet's calls into Vfs happen inside FleetRunner::run, out of
    // the bench's reach until tracing moves into the program.
    m.push_back({"iopath.read_hit_ns", 0.0, "ns"});
    m.push_back({"iopath.read_hit_frac", 0.0, "ratio"});
    m.push_back({"iopath.read_device_ns", 0.0, "ns"});
    m.push_back({"iopath.write_ns", 0.0, "ns"});
    m.push_back({"verify.oracle_ns_per_req", 0.0, "ns"});
    const double events = static_cast<double>(res.events_executed);
    m.push_back({"des.events_per_req", events / master_d, "count"});
    m.push_back({"des.host_ns_per_event",
                 med(true, [&](auto& r) { return r.cells_s / events; }) * 1e9,
                 "ns"});
    m.push_back(
        {"common.fill_pattern_ns_per_kib", median(fill_ns), "ns"});
    add_count_metrics(m, MetricsRegistry{}, res.metrics, master,
                      res.metrics.value("path.reads"), kFleetShards);
    m.push_back({"obs.collect_metrics_us", 0.0, "us"});
    m.push_back({"obs.trace_overhead_frac", 0.0, "ratio"});
    m.push_back({"verify.reads_checked", 0.0, "count"});
  }
  report(m, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pipette::benchmark

int main(int argc, char** argv) {
  using namespace pipette::benchmark;
  const Options opt = parse_options(argc, argv);
  if (opt.workload == "fleet_zipf_4shard") return run_fleet_workload(opt);
  MachineWorkload wl;
  if (!machine_workload(opt.workload, wl)) usage_error("unknown workload");
  return run_machine_workload(opt, wl);
}
