// Minimal RFC-4180-style CSV reading and writing.
//
// Used by the trace I/O module (paper-compatible trace files) and by the
// benchmark harnesses when dumping figure data series.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ethshard::util {

/// Streams rows to an std::ostream, quoting fields when needed.
class CsvWriter {
 public:
  /// The stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes one row; fields containing commas, quotes or newlines are quoted.
  void write_row(const std::vector<std::string>& fields);

  // Convenience field-by-field interface.
  CsvWriter& field(std::string_view v);
  CsvWriter& field(std::uint64_t v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(double v);
  /// Terminates the current row.
  void end_row();

 private:
  void sep();
  std::ostream* out_;
  bool at_row_start_ = true;
};

/// Parses one CSV line into fields (handles quoted fields with embedded
/// commas and doubled quotes; a '\r' outside quotes is dropped, for CRLF
/// files). Newlines inside quoted fields are not supported — trace files
/// never contain them.
std::vector<std::string> parse_csv_line(std::string_view line);

/// Reads rows from a stream, skipping empty lines.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in) : in_(&in) {}

  /// Reads the next row into `fields` with parse_csv_line's rules;
  /// returns false at end of stream. The strings already in `fields` are
  /// overwritten and the vector resized to the row's field count, so a
  /// caller that reuses `fields` allocates only when a field outgrows its
  /// string.
  bool read_row(std::vector<std::string>& fields);

  /// 1-based physical line number of the row read_row last returned,
  /// counting skipped blank lines; 0 before the first row.
  std::uint64_t line() const { return line_; }

 private:
  std::istream* in_;
  std::string buf_;  // reused line buffer
  std::uint64_t line_ = 0;
};

}  // namespace ethshard::util
