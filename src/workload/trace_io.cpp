#include "workload/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <vector>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace ethshard::workload {

namespace {

char kind_code(eth::CallKind k) {
  switch (k) {
    case eth::CallKind::kTransfer:
      return 'T';
    case eth::CallKind::kContractCall:
      return 'C';
    case eth::CallKind::kContractCreate:
      return 'X';
  }
  return '?';
}

/// ETHSHARD_CHECK_MSG for trace input: the message names the line.
#define TRACE_CHECK(expr, line, msg) \
  ETHSHARD_CHECK_MSG(expr, "trace line " << (line) << ": " << msg)

/// Account ids index GraphBuilder's vertex space, which packs two ids
/// into one 64-bit edge key, and size TraceSource's per-id tables.
constexpr std::uint64_t kAccountIdLimit = std::uint64_t{1} << 32;

eth::CallKind kind_from_code(const std::string& s, std::uint64_t line) {
  TRACE_CHECK(s.size() == 1, line, "bad call kind '" << s << "'");
  switch (s[0]) {
    case 'T':
      return eth::CallKind::kTransfer;
    case 'C':
      return eth::CallKind::kContractCall;
    case 'X':
      return eth::CallKind::kContractCreate;
    default:
      TRACE_CHECK(false, line, "bad call kind '" << s << "'");
  }
  return eth::CallKind::kTransfer;  // unreachable
}

std::uint64_t parse_u64(const std::string& s, std::uint64_t line) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  TRACE_CHECK(ec == std::errc{} && ptr == s.data() + s.size(), line,
              "bad integer field '" << s << "'");
  return v;
}

eth::AccountId parse_account(const std::string& s, std::uint64_t line) {
  const std::uint64_t id = parse_u64(s, line);
  TRACE_CHECK(id < kAccountIdLimit, line,
              "account id " << id << " is not below 2^32");
  return id;
}

struct Row {
  std::uint64_t line;  // physical line in the trace file, for errors
  std::uint64_t block;
  util::Timestamp timestamp;
  std::uint64_t tx_index;
  std::uint64_t call_index;
  eth::AccountId from;
  eth::AccountId to;
  eth::CallKind kind;
  std::uint64_t value;
};

}  // namespace

void write_trace(std::ostream& out, const History& history) {
  util::CsvWriter csv(out);
  csv.write_row({"block", "timestamp", "tx_index", "call_index", "from",
                 "to", "kind", "value"});
  for (const eth::Block& b : history.chain.blocks()) {
    for (std::size_t ti = 0; ti < b.transactions.size(); ++ti) {
      const eth::Transaction& tx = b.transactions[ti];
      for (std::size_t ci = 0; ci < tx.calls.size(); ++ci) {
        const eth::Call& c = tx.calls[ci];
        const char kind[2] = {kind_code(c.kind), '\0'};
        csv.field(b.number)
            .field(static_cast<std::int64_t>(b.timestamp))
            .field(static_cast<std::uint64_t>(ti))
            .field(static_cast<std::uint64_t>(ci))
            .field(c.from)
            .field(c.to)
            .field(std::string_view(kind, 1))
            .field(c.value_wei);
        csv.end_row();
      }
    }
  }
}

/// Streaming trace parser: CSV rows in, whole blocks out, registry
/// accumulated on the side. Holds one block plus a one-row lookahead
/// (the row that revealed the block boundary) — never the row set.
struct TraceSource::Impl {
  std::ifstream owned_file;  // backing storage for the path constructor
  util::CsvReader reader;
  SourceInfo source_info;

  std::vector<std::string> fields;
  Row pending{};          // lookahead row that opened the next block
  bool have_pending = false;

  std::uint64_t blocks_emitted = 0;
  util::Timestamp last_block_ts = 0;
  bool done = false;

  // Vertex universe, discovered row by row. Kinds are only final at
  // end-of-stream (a late X/C row can turn any id into a contract), so
  // the registry is built in finalize(). Unseen ids below max_id default
  // to externally-owned with the first row's timestamp — exactly
  // read_trace's vector initialization.
  std::vector<bool> is_contract;
  std::vector<bool> seen;
  std::vector<util::Timestamp> first_seen;
  util::Timestamp first_row_ts = 0;
  bool any_row = false;
  eth::AccountRegistry registry;

  explicit Impl(std::istream& in) : reader(in) { init(); }

  explicit Impl(const std::string& path)
      : owned_file(path), reader(owned_file) {
    ETHSHARD_CHECK_MSG(owned_file.good(), "cannot open " << path);
    init();
  }

  void init() {
    source_info.name = "trace";
    // Header.
    ETHSHARD_CHECK_MSG(reader.read_row(fields), "empty trace");
    TRACE_CHECK(fields.size() == 8 && fields[0] == "block", reader.line(),
                "unrecognized trace header");
  }

  void note_row(const Row& r) {
    if (!any_row) {
      any_row = true;
      first_row_ts = r.timestamp;
    }
    const std::uint64_t max_id = std::max(r.from, r.to);
    if (max_id >= seen.size()) {
      is_contract.resize(max_id + 1, false);
      seen.resize(max_id + 1, false);
      first_seen.resize(max_id + 1, 0);
    }
    if (r.kind != eth::CallKind::kTransfer) is_contract[r.to] = true;
    for (const eth::AccountId id : {r.from, r.to}) {
      if (!seen[id]) {
        seen[id] = true;
        first_seen[id] = r.timestamp;
      }
    }
  }

  /// Next row from the lookahead slot or the file; false at EOF.
  bool fetch_row(Row& r) {
    if (have_pending) {
      r = pending;
      have_pending = false;
      return true;
    }
    if (!reader.read_row(fields)) return false;
    r.line = reader.line();
    TRACE_CHECK(fields.size() == 8, r.line,
                "row with " << fields.size() << " fields, expected 8");
    r.block = parse_u64(fields[0], r.line);
    r.timestamp = static_cast<util::Timestamp>(parse_u64(fields[1], r.line));
    r.tx_index = parse_u64(fields[2], r.line);
    r.call_index = parse_u64(fields[3], r.line);
    r.from = parse_account(fields[4], r.line);
    r.to = parse_account(fields[5], r.line);
    r.kind = kind_from_code(fields[6], r.line);
    r.value = parse_u64(fields[7], r.line);
    note_row(r);
    return true;
  }

  /// Builds the registry once every row has been scanned.
  void finalize() {
    done = true;
    for (std::uint64_t id = 0; id < seen.size(); ++id) {
      registry.create(is_contract[id] ? eth::AccountKind::kContract
                                      : eth::AccountKind::kExternallyOwned,
                      seen[id] ? first_seen[id] : first_row_ts);
    }
  }

  bool next(eth::Block& out) {
    if (done) return false;

    eth::Block block;
    bool block_open = false;
    Row r;
    while (fetch_row(r)) {
      if (!block_open) {
        TRACE_CHECK(r.block == blocks_emitted, r.line,
                    "block " << r.block << " where block " << blocks_emitted
                             << " was expected");
        block.number = r.block;
        block.timestamp = r.timestamp;
        TRACE_CHECK(blocks_emitted == 0 || block.timestamp >= last_block_ts,
                    r.line, "timestamp regression at block " << r.block);
        block_open = true;
      } else if (r.block != block.number) {
        TRACE_CHECK(r.block > block.number, r.line,
                    "rows out of block order");
        pending = r;  // first row of the next block
        have_pending = true;
        break;
      }
      TRACE_CHECK(r.timestamp == block.timestamp, r.line,
                  "inconsistent timestamp within block " << r.block);
      if (r.tx_index == block.transactions.size()) {
        eth::Transaction tx;
        tx.sender = r.from;
        block.transactions.push_back(std::move(tx));
      }
      TRACE_CHECK(r.tx_index + 1 == block.transactions.size(), r.line,
                  "rows out of transaction order");
      eth::Transaction& tx = block.transactions.back();
      TRACE_CHECK(r.call_index == tx.calls.size(), r.line,
                  "rows out of call order");
      tx.calls.push_back(eth::Call{r.from, r.to, r.kind, r.value});
    }

    if (!block_open) {
      finalize();
      return false;
    }
    last_block_ts = block.timestamp;
    ++blocks_emitted;
    out = std::move(block);
    return true;
  }
};

TraceSource::TraceSource(std::istream& in)
    : impl_(std::make_unique<Impl>(in)) {}

TraceSource::TraceSource(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}

TraceSource::~TraceSource() = default;

const SourceInfo& TraceSource::info() const { return impl_->source_info; }

bool TraceSource::next(eth::Block& out) { return impl_->next(out); }

const eth::AccountRegistry* TraceSource::directory() const {
  return impl_->done ? &impl_->registry : nullptr;
}

eth::AccountRegistry TraceSource::take_directory() {
  return std::move(impl_->registry);
}

History read_trace(std::istream& in) {
  ETHSHARD_OBS_TIMER("ingest/read_trace_ms");
  ETHSHARD_OBS_SPAN("ingest/read_trace");
  TraceSource source(in);
  History history;
  eth::Block block;
  while (source.next(block)) history.chain.append(std::move(block));
  history.accounts = source.take_directory();
  return history;
}

void write_trace_file(const std::string& path, const History& history) {
  std::ofstream out(path);
  ETHSHARD_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_trace(out, history);
  ETHSHARD_CHECK_MSG(out.good(), "write failure on " << path);
}

History read_trace_file(const std::string& path) {
  std::ifstream in(path);
  ETHSHARD_CHECK_MSG(in.good(), "cannot open " << path);
  return read_trace(in);
}

}  // namespace ethshard::workload
