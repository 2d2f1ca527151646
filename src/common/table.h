// Result-table rendering for the benchmark harness.
//
// Each bench binary reproduces one table or figure from the paper and prints
// it as an aligned text table (plus optional CSV), so TablePrinter is the
// single place that controls that formatting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pipette {

class Table {
 public:
  explicit Table(std::vector<std::string> column_headers);

  /// Appends a row; cells beyond the header count are rejected.
  void add_row(std::vector<std::string> cells);

  /// Convenience cell formatting.
  static std::string fmt(double v, int precision = 1);
  static std::string fmt_times(double v, int precision = 2);  // "12.3x"

  /// Render as an aligned text table with a separator under the header.
  std::string to_text() const;

  /// Render as CSV (RFC-4180 quoting for cells containing , " or newline).
  std::string to_csv() const;

  /// Write CSV to `path`; returns false (and prints to stderr) on failure.
  bool write_csv(const std::string& path) const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parses the common bench CLI: --csv <path>, --json <path>, --requests N,
/// --quick, --seed S, --jobs N, --interconnect hmb|lmb, --prefetch,
/// --mu BYTES. Numeric values must be whole decimal numbers in range;
/// anything else exits 2.
struct BenchArgs {
  std::string csv_path;         // empty = no CSV
  std::string json_path;        // empty = no JSON summary
  std::uint64_t requests = 0;   // 0 = bench default
  std::uint64_t seed = 42;
  bool quick = false;           // reduced request count for smoke runs
  unsigned jobs = 0;            // experiment cells run in parallel;
                                // 0 = hardware concurrency, 1 = serial
  std::string interconnect;     // fine-grained fill link: "hmb", "lmb", or
                                // "" = the bench's default (hmb)
  bool prefetch = false;        // speculative readahead on the Pipette path
  std::uint32_t mapping_unit = 0;  // FTL mapping unit in bytes; 0 = page
                                   // (--mu 512|1024|2048|4096)

  /// Called for any flag the common parser does not recognise. Invoke
  /// `value()` to consume the flag's argument; return true if the flag was
  /// handled (false falls through to the unknown-flag error). This is the
  /// one extension point for bench-specific flags — benches must not
  /// hand-peel argv around the common parser.
  using ValueFn = std::function<const char*()>;
  using ExtraFlagFn = std::function<bool(const char* flag, const ValueFn&)>;

  static BenchArgs parse(int argc, char** argv);
  /// `extra_help` lines (if any) are appended to the --help output.
  static BenchArgs parse(int argc, char** argv, const ExtraFlagFn& extra,
                         const char* extra_help = nullptr);
};

}  // namespace pipette
