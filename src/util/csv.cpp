#include "util/csv.hpp"

#include <istream>
#include <ostream>

namespace ethshard::util {

namespace {
bool needs_quoting(std::string_view v) {
  return v.find_first_of(",\"\n\r") != std::string_view::npos;
}

void write_field(std::ostream& out, std::string_view v) {
  if (!needs_quoting(v)) {
    out << v;
    return;
  }
  out << '"';
  for (char c : v) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}
}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (const auto& f : fields) field(f);
  end_row();
}

CsvWriter& CsvWriter::field(std::string_view v) {
  sep();
  write_field(*out_, v);
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t v) {
  sep();
  *out_ << v;
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  sep();
  *out_ << v;
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  sep();
  *out_ << v;
  return *this;
}

void CsvWriter::end_row() {
  *out_ << '\n';
  at_row_start_ = true;
}

void CsvWriter::sep() {
  if (!at_row_start_) *out_ << ',';
  at_row_start_ = false;
}

namespace {
/// The one field splitter behind parse_csv_line and CsvReader: fills
/// `fields` in place, reusing its strings.
void split_csv_line(std::string_view line, std::vector<std::string>& fields) {
  std::size_t n = 0;
  auto next_field = [&]() -> std::string& {
    if (n == fields.size()) fields.emplace_back();
    std::string& f = fields[n++];
    f.clear();
    return f;
  };
  std::string* cur = &next_field();
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          *cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        *cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cur = &next_field();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      *cur += c;
    }
  }
  fields.resize(n);
}
}  // namespace

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  split_csv_line(line, fields);
  return fields;
}

bool CsvReader::read_row(std::vector<std::string>& fields) {
  while (std::getline(*in_, buf_)) {
    ++line_;
    if (buf_.empty() || buf_ == "\r") continue;
    split_csv_line(buf_, fields);
    return true;
  }
  return false;
}

}  // namespace ethshard::util
