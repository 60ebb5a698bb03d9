// Traced replay for the end-to-end benchmark (perfbench/run.py).
//
// Replays a trace file the way `ethshard simulate --trace T --method M
// --shards K [--stream] --csv W --events-csv E` does, through the same
// public entry points, but wraps the BlockSource, ShardingStrategy and
// SimulatorEnv seams in pass-through timers. It writes the CLI's own
// outputs (the stdout summary and both CSVs) so the benchmark can check
// them byte for byte against an untraced run, and one JSON file with the
// spans, the per-call aggregates and the per-window replay self times.
//
//   perfbench_trace --trace T --method M --shards K [--stream]
//                   --csv W --events-csv E --spans-out S [--run-id ID]
//
// Spans are kept in memory and written once the replay has finished.
// Hooks that run once per vertex or block (place, block pulls) are
// aggregated into a count and a total instead of one span per call.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/result_io.hpp"
#include "core/simulator.hpp"
#include "core/strategy_registry.hpp"
#include "metrics/summary.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace ethshard;
using Clock = std::chrono::steady_clock;

/// `ethshard simulate` seeds the strategy with 7 when it is given no
/// --seed, and the benchmark never passes one.
constexpr std::uint64_t kCliDefaultStrategySeed = 7;

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Span {
  std::string name;
  int parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  /// Index of the flushed window the span belongs to (-1: none).
  long window = -1;
};

/// Count and total time of one per-call hook, split by whether the call
/// ran on the thread that called ShardingSimulator::run. Calls on another
/// thread (a pipelined replay's producer) overlap the run instead of
/// nesting in it, so they are not subtracted from its self time.
struct Aggregate {
  std::uint64_t count = 0;
  double ms = 0;
  std::uint64_t offthread_count = 0;
  double offthread_ms = 0;
};

/// Spans and aggregates of one traced replay. Spans are opened and closed
/// only on the run thread; `hook_ms` totals every timed hook on that
/// thread, so the replay's own time between two points is the wall time
/// minus the growth of `hook_ms`.
class Tracer {
 public:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    if (in_run_) s.window = static_cast<long>(windows_ms.size()) - 1;
    s.start_ms = now_ms();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[id].end_ms = now_ms();
    stack_.pop_back();
  }

  double duration_ms(int id) const {
    return spans_[id].end_ms - spans_[id].start_ms;
  }

  /// Marks the start of the run: per-window accounting starts here.
  void begin_run() {
    in_run_ = true;
    run_thread_ = std::this_thread::get_id();
    window_mark_ms_ = now_ms();
    window_mark_hook_ms_ = hook_ms;
  }

  void end_run() { in_run_ = false; }

  bool on_run_thread() const {
    return std::this_thread::get_id() == run_thread_;
  }

  /// Called as each window's should_repartition hook starts: records the
  /// replay self time since the previous one.
  void window_flushed() {
    const double t = now_ms();
    windows_ms.push_back((t - window_mark_ms_) -
                         (hook_ms - window_mark_hook_ms_));
    window_mark_ms_ = t;
    window_mark_hook_ms_ = hook_ms;
  }

  void add(Aggregate& agg, double ms) {
    if (on_run_thread()) {
      ++agg.count;
      agg.ms += ms;
      hook_ms += ms;
    } else {
      ++agg.offthread_count;
      agg.offthread_ms += ms;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  Aggregate pulls;
  Aggregate placements;
  double hook_ms = 0;
  std::vector<double> windows_ms;
  std::uint64_t blocks = 0;
  std::uint64_t calls = 0;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  bool in_run_ = false;
  std::thread::id run_thread_;
  double window_mark_ms_ = 0;
  double window_mark_hook_ms_ = 0;
};

/// Opens a span for the lifetime of the scope. Inside the run it also
/// adds the span's time to the tracer's hook total.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, bool is_hook = false)
      : tracer_(tracer), id_(tracer.open(std::move(name))), hook_(is_hook) {}
  ~ScopedSpan() {
    tracer_.close(id_);
    if (hook_) tracer_.hook_ms += tracer_.duration_ms(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
  bool hook_;
};

void count_block(Tracer& tracer, const eth::Block& block) {
  ++tracer.blocks;
  for (const eth::Transaction& tx : block.transactions)
    tracer.calls += tx.calls.size();
}

// The two hooks below exist only while the batched replay pipeline does.
// They are forwarded through these templates and declared without
// `override`, so this file compiles both before and after that removal.
template <class Strategy>
bool forward_supports_batched_replay(const Strategy& s) {
  if constexpr (requires { s.supports_batched_replay(); })
    return s.supports_batched_replay();
  else
    return false;
}

template <class Source>
const eth::Chain* forward_materialized_chain(const Source& s) {
  if constexpr (requires { s.materialized_chain(); })
    return s.materialized_chain();
  else
    return nullptr;
}

/// Times every block pull of a streaming source (the ingest layer of a
/// --stream replay).
class TimedSource final : public workload::BlockSource {
 public:
  TimedSource(workload::BlockSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  const workload::SourceInfo& info() const override { return inner_.info(); }

  bool next(eth::Block& out) override {
    const double t = tracer_.now_ms();
    const bool ok = inner_.next(out);
    tracer_.add(tracer_.pulls, tracer_.now_ms() - t);
    if (ok) count_block(tracer_, out);
    return ok;
  }

  const eth::Block* next_ref() override {
    const double t = tracer_.now_ms();
    const eth::Block* block = inner_.next_ref();
    tracer_.add(tracer_.pulls, tracer_.now_ms() - t);
    if (block != nullptr) count_block(tracer_, *block);
    return block;
  }

  const eth::Chain* materialized_chain() const {
    return forward_materialized_chain(inner_);
  }

  const eth::AccountRegistry* directory() const override {
    return inner_.directory();
  }

 private:
  workload::BlockSource& inner_;
  Tracer& tracer_;
};

/// Times the graph snapshots a strategy takes while repartitioning.
class TimedEnv final : public core::SimulatorEnv {
 public:
  TimedEnv(const core::SimulatorEnv& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::uint32_t k() const override { return inner_.k(); }
  util::Timestamp now() const override { return inner_.now(); }
  const partition::Partition& current_partition() const override {
    return inner_.current_partition();
  }
  const std::vector<std::uint64_t>& shard_vertex_counts() const override {
    return inner_.shard_vertex_counts();
  }
  const std::vector<graph::Weight>& shard_loads() const override {
    return inner_.shard_loads();
  }
  const graph::Graph& cumulative_graph() const override {
    ScopedSpan span(tracer_, "graph.cumulative_snapshot");
    return inner_.cumulative_graph();
  }
  core::WindowGraph window_graph() const override {
    ScopedSpan span(tracer_, "graph.window_snapshot");
    return inner_.window_graph();
  }

 private:
  const core::SimulatorEnv& inner_;
  Tracer& tracer_;
};

/// Times the strategy's hooks: place as an aggregate, the two
/// repartition hooks as spans. Every other hook is forwarded untimed.
class TimedStrategy final : public core::ShardingStrategy {
 public:
  TimedStrategy(core::ShardingStrategy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }

  partition::ShardId place(graph::Vertex v,
                           std::span<const partition::ShardId> peers,
                           const core::SimulatorEnv& env) override {
    const double t = tracer_.now_ms();
    const partition::ShardId s = inner_.place(v, peers, env);
    tracer_.add(tracer_.placements, tracer_.now_ms() - t);
    return s;
  }

  bool should_repartition(const core::WindowSnapshot& snapshot,
                          const core::SimulatorEnv& env) override {
    tracer_.window_flushed();
    ScopedSpan span(tracer_, "partition.should_repartition", true);
    const TimedEnv timed(env, tracer_);
    return inner_.should_repartition(snapshot, timed);
  }

  util::Timestamp no_repartition_before(
      util::Timestamp last_repartition) const override {
    return inner_.no_repartition_before(last_repartition);
  }

  bool supports_batched_replay() const {
    return forward_supports_batched_replay(inner_);
  }

  partition::Partition compute_partition(
      const core::SimulatorEnv& env) override {
    ScopedSpan span(tracer_, "partition.compute_partition", true);
    const TimedEnv timed(env, tracer_);
    return inner_.compute_partition(timed);
  }

  void on_transaction(std::span<const graph::Vertex> involved,
                      const core::SimulatorEnv& env,
                      core::MigrationSink& sink) override {
    inner_.on_transaction(involved, env, sink);
  }

 private:
  core::ShardingStrategy& inner_;
  Tracer& tracer_;
};

/// The summary `ethshard simulate` prints, line for line.
void print_summary(const core::SimulationResult& r) {
  std::vector<double> cuts;
  std::vector<double> bals;
  for (const core::WindowSample& w : r.windows) {
    cuts.push_back(w.dynamic_edge_cut);
    bals.push_back(w.dynamic_balance);
  }
  std::printf("method            %s\n", r.strategy_name.c_str());
  std::printf("shards            %u\n", r.k);
  std::printf("windows           %zu\n", r.windows.size());
  std::printf("dyn edge-cut      %s\n",
              metrics::to_string(metrics::summarize(cuts)).c_str());
  std::printf("dyn balance       %s\n",
              metrics::to_string(metrics::summarize(bals)).c_str());
  std::printf("static edge-cut   %.4f\n", r.final_static_edge_cut);
  std::printf("static balance    %.4f\n", r.final_static_balance);
  std::printf("executed cross    %.4f\n", r.executed_cross_shard_fraction);
  std::printf("repartitions      %zu\n", r.repartitions.size());
  std::printf("moves             %llu\n",
              static_cast<unsigned long long>(r.total_moves));
  std::printf("moved state units %llu\n",
              static_cast<unsigned long long>(r.total_moved_state_units));
  std::printf("peak rss mb       %.1f\n", peak_rss_mb());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void write_aggregate(std::FILE* f, const char* name, const Aggregate& a) {
  std::fprintf(f,
               "\"%s\": {\"count\": %llu, \"ms\": %.6f, "
               "\"offthread_count\": %llu, \"offthread_ms\": %.6f}",
               name, static_cast<unsigned long long>(a.count), a.ms,
               static_cast<unsigned long long>(a.offthread_count),
               a.offthread_ms);
}

struct RunFacts {
  std::string run_id;
  double end_ms = 0;
  double rss_after_ingest_mb = 0;
  double rss_end_of_run_mb = 0;
  std::uint64_t repartitions = 0;
  std::uint64_t moves = 0;
};

void write_trace_json(const std::string& path, const Tracer& tracer,
                      const RunFacts& facts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::fprintf(f, "{\"run_id\": \"%s\", \"end_ms\": %.6f,\n",
               json_escape(facts.run_id).c_str(), facts.end_ms);
  std::fprintf(f,
               "\"blocks\": %llu, \"calls\": %llu, \"repartitions\": %llu, "
               "\"moves\": %llu,\n",
               static_cast<unsigned long long>(tracer.blocks),
               static_cast<unsigned long long>(tracer.calls),
               static_cast<unsigned long long>(facts.repartitions),
               static_cast<unsigned long long>(facts.moves));
  std::fprintf(f,
               "\"rss_after_ingest_mb\": %.6f, \"rss_end_of_run_mb\": %.6f,\n",
               facts.rss_after_ingest_mb, facts.rss_end_of_run_mb);
  std::fprintf(f, "\"aggregates\": {");
  write_aggregate(f, "workload.pull", tracer.pulls);
  std::fprintf(f, ", ");
  write_aggregate(f, "core.place", tracer.placements);
  std::fprintf(f, "},\n\"windows_ms\": [");
  for (std::size_t i = 0; i < tracer.windows_ms.size(); ++i)
    std::fprintf(f, "%s%.6f", i == 0 ? "" : ",", tracer.windows_ms[i]);
  std::fprintf(f, "],\n\"spans\": [\n");
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f, \"window\": %ld}%s\n",
                 i, json_escape(s.name).c_str(), s.parent, s.start_ms,
                 s.end_ms, s.window, i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

struct Args {
  std::string trace;
  std::string method;
  std::uint32_t shards = 0;
  bool stream = false;
  std::string csv;
  std::string events_csv;
  std::string spans_out;
  std::string run_id = "traced";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--stream") {
      a.stream = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--trace")
      a.trace = value;
    else if (flag == "--method")
      a.method = value;
    else if (flag == "--shards")
      a.shards = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--csv")
      a.csv = value;
    else if (flag == "--events-csv")
      a.events_csv = value;
    else if (flag == "--spans-out")
      a.spans_out = value;
    else if (flag == "--run-id")
      a.run_id = value;
    else
      throw std::runtime_error("unknown flag " + flag);
  }
  if (a.trace.empty() || a.method.empty() || a.shards == 0 ||
      a.csv.empty() || a.events_csv.empty() || a.spans_out.empty())
    throw std::runtime_error(
        "usage: perfbench_trace --trace T --method M --shards K [--stream] "
        "--csv W --events-csv E --spans-out S [--run-id ID]");
  return a;
}

/// Mirrors cmd_simulate in tools/ethshard_cli.cpp: the same entry points
/// in the same order, the same strategy seed and the same SimulatorConfig
/// (only k set), so both take the same replay path.
void run(const Args& args) {
  Tracer tracer;
  RunFacts facts;
  facts.run_id = args.run_id;

  std::optional<workload::History> history;
  std::unique_ptr<workload::BlockSource> source;
  std::optional<TimedSource> timed_source;
  if (args.stream) {
    ScopedSpan span(tracer, "workload.open_source");
    source = workload::TraceSourceFactory(args.trace).open();
    timed_source.emplace(*source, tracer);
  } else {
    ScopedSpan span(tracer, "workload.read_trace");
    history.emplace(workload::read_trace_file(args.trace));
  }
  if (history)
    for (const eth::Block& block : history->chain.blocks())
      count_block(tracer, block);
  facts.rss_after_ingest_mb = resident_mb();

  std::optional<core::StrategyBuild> build;
  {
    ScopedSpan span(tracer, "core.make_strategy");
    build.emplace(core::StrategyRegistry::global().make_build(
        args.method, kCliDefaultStrategySeed, 1));
  }
  TimedStrategy strategy(*build->strategy, tracer);
  core::SimulatorConfig cfg;
  cfg.k = args.shards;

  std::optional<core::ShardingSimulator> sim;
  {
    ScopedSpan span(tracer, "core.init");
    if (args.stream)
      sim.emplace(*timed_source, strategy, cfg);
    else
      sim.emplace(*history, strategy, cfg);
  }
  std::optional<core::SimulationResult> result;
  {
    ScopedSpan span(tracer, "core.run");
    tracer.begin_run();
    result.emplace(sim->run());
    tracer.end_run();
  }
  facts.rss_end_of_run_mb = resident_mb();
  facts.repartitions = result->repartitions.size();
  facts.moves = result->total_moves;
  {
    ScopedSpan span(tracer, "core.output");
    print_summary(*result);
    core::write_windows_csv_file(args.csv, *result);
    std::printf("window samples    -> %s\n", args.csv.c_str());
    core::write_repartitions_csv_file(args.events_csv, *result);
    std::printf("repartitions      -> %s\n", args.events_csv.c_str());
    std::fflush(stdout);
  }
  {
    ScopedSpan span(tracer, "core.teardown");
    result.reset();
    sim.reset();
    build.reset();
  }
  {
    ScopedSpan span(tracer, "workload.release");
    timed_source.reset();
    source.reset();
    history.reset();
  }
  facts.end_ms = tracer.now_ms();
  write_trace_json(args.spans_out, tracer, facts);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench_trace] error: %s\n", e.what());
    return 1;
  }
  return 0;
}
