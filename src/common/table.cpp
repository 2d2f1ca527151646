#include "common/table.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/assert.h"

namespace pipette {

Table::Table(std::vector<std::string> column_headers)
    : headers_(std::move(column_headers)) {
  PIPETTE_ASSERT(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  PIPETTE_ASSERT_MSG(cells.size() <= headers_.size(),
                     "row has more cells than the table has columns");
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::fmt_times(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*fx", precision, v);
  return buf;
}

std::string Table::to_text() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      out.append(width[c] - cells[c].size(), ' ');
      if (c + 1 < cells.size()) out += "  ";
    }
    out += '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(width[c], '-');
    if (c + 1 < headers_.size()) out += "  ";
  }
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// A numeric flag value: a whole decimal number in [0, max] and nothing
/// else (no sign, suffix or whitespace). Anything else exits 2.
std::uint64_t parse_number(const char* flag, const char* text,
                           std::uint64_t max) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ptr == text || ptr != end || ec != std::errc() || value > max) {
    std::fprintf(stderr,
                 "pipette: %s must be a whole number in [0, %llu] (got %s)\n",
                 flag, static_cast<unsigned long long>(max), text);
    std::exit(2);
  }
  return value;
}
}  // namespace

std::string Table::to_csv() const {
  std::string out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += csv_escape(cells[c]);
      if (c + 1 < cells.size()) out += ',';
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out;
}

bool Table::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "pipette: cannot write CSV to %s\n", path.c_str());
    return false;
  }
  f << to_csv();
  return static_cast<bool>(f);
}

BenchArgs BenchArgs::parse(int argc, char** argv) {
  return parse(argc, argv, nullptr, nullptr);
}

BenchArgs BenchArgs::parse(int argc, char** argv, const ExtraFlagFn& extra,
                           const char* extra_help) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pipette: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto need_number = [&](const char* flag, std::uint64_t max) {
      return parse_number(flag, need_value(flag), max);
    };
    if (std::strcmp(argv[i], "--csv") == 0) {
      args.csv_path = need_value("--csv");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      args.json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      args.requests = need_number("--requests", kU64Max);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = need_number("--seed", kU64Max);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      args.jobs = static_cast<unsigned>(
          need_number("--jobs", std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(argv[i], "--interconnect") == 0) {
      args.interconnect = need_value("--interconnect");
      if (args.interconnect != "hmb" && args.interconnect != "lmb") {
        std::fprintf(stderr,
                     "pipette: --interconnect must be hmb or lmb (got %s)\n",
                     args.interconnect.c_str());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--prefetch") == 0) {
      args.prefetch = true;
    } else if (std::strcmp(argv[i], "--mu") == 0) {
      args.mapping_unit = static_cast<std::uint32_t>(
          need_number("--mu", std::numeric_limits<std::uint32_t>::max()));
      if (args.mapping_unit < 512 || args.mapping_unit > 4096 ||
          4096 % args.mapping_unit != 0) {
        std::fprintf(stderr,
                     "pipette: --mu must divide 4096 and be in [512, 4096] "
                     "(got %u)\n",
                     args.mapping_unit);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--requests N] [--seed S] [--quick] [--jobs N] "
          "[--interconnect hmb|lmb] [--prefetch] [--mu BYTES] [--csv PATH] "
          "[--json PATH]\n"
          "  --jobs N     run independent experiment cells on N threads\n"
          "               (0 = hardware concurrency, 1 = serial; results\n"
          "               are bit-identical at any job count)\n"
          "  --interconnect L  link carrying fine-grained fills: hmb (PCIe\n"
          "               DMA into host DRAM, default) or lmb (CXL-linked\n"
          "               memory buffer with its own timing)\n"
          "  --prefetch   enable speculative readahead on the Pipette path\n"
          "  --mu BYTES   FTL mapping unit (512|1024|2048|4096; default:\n"
          "               page-granular mapping, bit-identical to history)\n"
          "  --json PATH  write a machine-readable summary (host_seconds,\n"
          "               events_executed per cell) for perf tracking\n",
          argv[0]);
      if (extra_help != nullptr) std::fputs(extra_help, stdout);
      std::exit(0);
    } else if (extra != nullptr &&
               extra(argv[i], [&] { return need_value(argv[i]); })) {
      // bench-specific flag, consumed by the caller's handler
    } else {
      std::fprintf(stderr, "pipette: unknown flag %s (see --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace pipette
