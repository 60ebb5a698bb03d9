#include "core/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "core/window_aggregator.hpp"
#include "eth/gas.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/mem.hpp"
#include "util/parallel.hpp"
#include "util/pipeline.hpp"
#include "workload/windows.hpp"

namespace ethshard::core {

// Strategy-facing view backed directly by the simulator's state.
class ShardingSimulator::Env final : public SimulatorEnv {
 public:
  explicit Env(const ShardingSimulator& sim) : sim_(sim) {}

  std::uint32_t k() const override { return sim_.cfg_.k; }
  util::Timestamp now() const override { return sim_.now_; }

  const partition::Partition& current_partition() const override {
    return sim_.part_;
  }
  const std::vector<std::uint64_t>& shard_vertex_counts() const override {
    return sim_.shard_counts_;
  }
  const std::vector<graph::Weight>& shard_loads() const override {
    return sim_.shard_loads_;
  }

  const graph::Graph& cumulative_graph() const override {
    return sim_.cumulative_snapshot();
  }

  WindowGraph window_graph() const override {
    // Active = touched by a call this window (endpoints always accrue
    // activity weight). The induced symmetrized snapshot comes straight
    // from the window builder's undirected adjacency, through scratch
    // buffers that persist across windows.
    std::vector<graph::Vertex>& active = sim_.window_active_;
    active.clear();
    for (graph::Vertex v = 0; v < sim_.window_.num_vertices(); ++v)
      if (sim_.window_.vertex_weight(v) > 0) active.push_back(v);
    WindowGraph wg;
    wg.undirected = sim_.window_.build_undirected_induced(
        active, sim_.window_old_to_new_);
    wg.to_global = active;
    return wg;
  }

 private:
  const ShardingSimulator& sim_;
};

// Applies a strategy's online migrations with full accounting.
class ShardingSimulator::Sink final : public MigrationSink {
 public:
  explicit Sink(ShardingSimulator& sim) : sim_(sim) {}

  void migrate(graph::Vertex v, partition::ShardId s) override {
    sim_.apply_migration(v, s);
  }

 private:
  ShardingSimulator& sim_;
};

void ShardingSimulator::apply_migration(graph::Vertex v,
                                        partition::ShardId s) {
  ETHSHARD_CHECK_MSG(v < part_.size(), "migrate: unknown vertex");
  ETHSHARD_CHECK_MSG(s < cfg_.k, "migrate: shard out of range");
  const partition::ShardId from = part_.shard_of(v);
  ETHSHARD_CHECK_MSG(from != partition::kUnassigned,
                     "migrate: vertex not placed yet");
  if (from == s) return;

  apply_cut_delta(v, from, s);
  part_.assign(v, s);
  --shard_counts_[from];
  ++shard_counts_[s];
  shard_loads_[from] -= activity_[v];
  shard_loads_[s] += activity_[v];
  ETHSHARD_OBS_COUNT("sim/cut_delta_migrations", 1);

  const std::uint64_t state = 1 + activity_[v];
  ++result_.total_moves;
  ++result_.online_moves;
  result_.total_moved_state_units += state;
  result_.online_moved_state_units += state;
  ETHSHARD_OBS_COUNT("sim/migrations", 1);
}

ShardingSimulator::ShardingSimulator(workload::BlockSource& source,
                                     ShardingStrategy& strategy,
                                     SimulatorConfig cfg)
    : source_(&source),
      strategy_(strategy),
      cfg_(cfg),
      part_(0, cfg.k),
      shard_counts_(cfg.k, 0),
      shard_loads_(cfg.k, 0),
      window_metrics_(cfg.k) {
  ETHSHARD_CHECK(cfg_.k >= 1);
  ETHSHARD_CHECK(cfg_.metric_window > 0);
}

ShardingSimulator::ShardingSimulator(const workload::History& history,
                                     ShardingStrategy& strategy,
                                     SimulatorConfig cfg)
    : owned_source_(std::make_unique<workload::MaterializedSource>(
          history.chain, &history.accounts)),
      source_(owned_source_.get()),
      strategy_(strategy),
      cfg_(cfg),
      part_(0, cfg.k),
      shard_counts_(cfg.k, 0),
      shard_loads_(cfg.k, 0),
      window_metrics_(cfg.k) {
  ETHSHARD_CHECK(cfg_.k >= 1);
  ETHSHARD_CHECK(cfg_.metric_window > 0);
}

void ShardingSimulator::ensure_vertex(graph::Vertex v) {
  while (part_.size() <= v) {
    part_.append(partition::kUnassigned);
    activity_.push_back(0);
  }
  cumulative_.ensure_vertices(v + 1, /*default_weight=*/1);
  window_.ensure_vertices(v + 1, /*default_weight=*/0);
}

void ShardingSimulator::place_vertex(
    graph::Vertex v, std::span<const partition::ShardId> peers) {
  Env env(*this);
  const partition::ShardId s = strategy_.place(v, peers, env);
  ETHSHARD_CHECK(s < cfg_.k);
  part_.assign(v, s);
  ++shard_counts_[s];
  ETHSHARD_OBS_COUNT("sim/placements", 1);
}

void ShardingSimulator::process_transaction(const eth::Transaction& tx) {
  // Involved accounts, in order of first appearance in the trace,
  // deduplicated by epoch stamp (membership is one indexed load instead
  // of a scan of everything noted so far — the attack era's many-dummy
  // transactions made the old std::find quadratic visible; see bench
  // simulate_manycall).
  involved_scratch_.clear();
  ++involved_epoch_;
  auto note = [&](graph::Vertex v) {
    if (involved_stamp_.size() <= v) involved_stamp_.resize(v + 1, 0);
    if (involved_stamp_[v] == involved_epoch_) return;
    involved_stamp_[v] = involved_epoch_;
    involved_scratch_.push_back(v);
  };
  note(tx.sender);
  for (const eth::Call& c : tx.calls) {
    note(c.from);
    note(c.to);
  }
  const std::span<const graph::Vertex> involved{involved_scratch_};

  // Place any account appearing for the first time, handing the strategy
  // the shards of the transaction's already-placed participants (§II-C).
  for (graph::Vertex v : involved) {
    ensure_vertex(v);
    if (part_.shard_of(v) != partition::kUnassigned) continue;
    peers_scratch_.clear();
    for (graph::Vertex u : involved) {
      if (u == v) continue;
      if (u < part_.size() &&
          part_.shard_of(u) != partition::kUnassigned)
        peers_scratch_.push_back(part_.shard_of(u));
    }
    place_vertex(v, peers_scratch_);
  }

  // Record every call: graphs, window metrics, static counters.
  for (const eth::Call& c : tx.calls) {
    const partition::ShardId sf = part_.shard_of(c.from);
    const partition::ShardId st = part_.shard_of(c.to);

    // Load carried by this call: 1 under the paper's frequency model, or
    // its gas cost in kilogas under the computation model.
    graph::Weight load = 1;
    if (cfg_.load_model == LoadModel::kGas)
      load = 1 + eth::call_gas(c, /*callee_exists=*/true) / 1000;

    // Self-calls count toward traffic volume and activity but are
    // excluded from the cut denominators — they can never cross shards
    // (matching metrics::dynamic_edge_cut on the loop-free window graph).
    if (c.from == c.to)
      window_metrics_.record_self_interaction(1);
    else
      window_metrics_.record_interaction(sf, st, 1);
    window_metrics_.record_activity(sf, load);
    if (c.to != c.from) window_metrics_.record_activity(st, load);

    activity_[c.from] += load;
    shard_loads_[sf] += load;
    if (c.to != c.from) {
      activity_[c.to] += load;
      shard_loads_[st] += load;
    }

    // Static-cut bookkeeping counts distinct *undirected* non-loop edges,
    // matching metrics::static_edge_cut over the symmetrized cumulative
    // graph (a→b and b→a are one edge; self-loops can never be cut).
    const graph::EdgeInsert ins = cumulative_.add_edge(c.from, c.to, 1);
    if (ins.new_undirected_edge) {
      ++distinct_edges_;
      if (sf != st) ++cut_edges_;
    }

    window_.add_edge(c.from, c.to, 1);
    window_.add_vertex_weight(c.from, load);
    if (c.to != c.from) window_.add_vertex_weight(c.to, load);

    ++executed_total_;
    if (c.from != c.to) {
      ++executed_pair_;
      if (sf != st) ++executed_cross_;
    }
  }

  // Give state-movement strategies their per-transaction hook.
  Env env(*this);
  Sink sink(*this);
  strategy_.on_transaction(involved, env, sink);
}

double ShardingSimulator::current_static_balance() const {
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (std::uint64_t c : shard_counts_) {
    total += c;
    max = std::max(max, c);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(max) * static_cast<double>(cfg_.k) /
         static_cast<double>(total);
}

void ShardingSimulator::apply_cut_delta(graph::Vertex v,
                                        partition::ShardId from,
                                        partition::ShardId to) {
  const auto neighbors = cumulative_.undirected_neighbors(v);
  for (const graph::Vertex u : neighbors) {
    const partition::ShardId su = part_.shard_of(u);
    if (su == from)
      ++cut_edges_;  // {v, u} was internal, v is leaving
    else if (su == to)
      --cut_edges_;  // {v, u} was cut, v joins u's shard
  }
  ETHSHARD_OBS_COUNT("sim/cut_delta_arcs_scanned", neighbors.size());
}

void ShardingSimulator::recompute_static_cut() {
  std::uint64_t cut = 0;
  const std::uint64_t n = cumulative_.num_vertices();
  for (graph::Vertex v = 0; v < n; ++v)
    for (const graph::Vertex u : cumulative_.undirected_neighbors(v)) {
      if (u <= v) continue;  // count each undirected edge once
      if (part_.shard_of(v) != part_.shard_of(u)) ++cut;
    }
  cut_edges_ = cut;
  ETHSHARD_OBS_COUNT("sim/static_cut_recomputes", 1);
}

const graph::Graph& ShardingSimulator::cumulative_snapshot() const {
  if (cum_snapshot_vertices_ != cumulative_.num_vertices() ||
      cum_snapshot_edges_ != cumulative_.num_edges() ||
      cum_snapshot_weight_ != cumulative_.total_edge_weight()) {
    cum_snapshot_ = cumulative_.build_undirected();
    cum_snapshot_vertices_ = cumulative_.num_vertices();
    cum_snapshot_edges_ = cumulative_.num_edges();
    cum_snapshot_weight_ = cumulative_.total_edge_weight();
    ETHSHARD_OBS_COUNT("sim/cumulative_snapshot_builds", 1);
  } else {
    ETHSHARD_OBS_COUNT("sim/cumulative_snapshot_reuses", 1);
  }
  return cum_snapshot_;
}

void ShardingSimulator::verify_incremental_state() {
  const std::uint64_t incremental_cut = cut_edges_;
  recompute_static_cut();
  ETHSHARD_CHECK_MSG(cut_edges_ == incremental_cut,
                     "incremental static cut diverged: incremental "
                         << incremental_cut << " vs recomputed "
                         << cut_edges_);
  ETHSHARD_CHECK_MSG(
      distinct_edges_ == cumulative_.num_undirected_edges(),
      "distinct-edge count diverged: " << distinct_edges_ << " vs "
                                       << cumulative_.num_undirected_edges());
}

void ShardingSimulator::flush_window(util::Timestamp window_end) {
  ETHSHARD_OBS_TIMER("sim/flush_window_ms");
  ETHSHARD_OBS_SPAN("pipeline/flush");
  // The window's wall span is measured *before* any repartition runs
  // (and window_wall_start_ is re-armed after it returns), so a
  // repartition's cost shows up only in partitioner_ms — not smeared
  // into this or the next window's window_wall_ms.
  const double window_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - window_wall_start_)
          .count();
  if (cfg_.verify_incremental) verify_incremental_state();
  WindowSample sample;
  sample.window_start = window_start_;
  sample.window_end = window_end;
  sample.dynamic_edge_cut = window_metrics_.dynamic_edge_cut();
  sample.dynamic_balance = window_metrics_.dynamic_balance();
  sample.static_edge_cut =
      distinct_edges_ == 0 ? 0.0
                           : static_cast<double>(cut_edges_) /
                                 static_cast<double>(distinct_edges_);
  sample.static_balance = current_static_balance();
  sample.interactions = window_metrics_.total_interactions();

  const bool record =
      !cfg_.skip_empty_windows || !window_metrics_.empty();
  if (record) {
    result_.windows.push_back(sample);
    ETHSHARD_OBS_COUNT("sim/windows", 1);
    ETHSHARD_OBS_COUNT("sim/window_interactions", sample.interactions);
  }

  WindowSnapshot snapshot;
  snapshot.window_start = window_start_;
  snapshot.window_end = window_end;
  snapshot.dynamic_edge_cut = sample.dynamic_edge_cut;
  snapshot.dynamic_balance = sample.dynamic_balance;
  snapshot.interactions = sample.interactions;
  snapshot.since_last_repartition = window_end - last_repartition_;

  window_metrics_.reset();
  window_start_ = window_end;

  const bool repartitioned = maybe_repartition(snapshot);
  window_wall_start_ = std::chrono::steady_clock::now();

  if (cfg_.telemetry != nullptr || cfg_.consumer != nullptr) {
    WindowTelemetry tel;
    tel.window_start = sample.window_start;
    tel.window_end = sample.window_end;
    tel.interactions = sample.interactions;
    tel.recorded = record;
    tel.dynamic_edge_cut = sample.dynamic_edge_cut;
    tel.dynamic_balance = sample.dynamic_balance;
    tel.static_edge_cut = sample.static_edge_cut;
    tel.static_balance = sample.static_balance;
    tel.window_wall_ms = window_wall_ms;
    tel.repartition = repartitioned;
    if (repartitioned) {
      const RepartitionEvent& ev = result_.repartitions.back();
      tel.partitioner_ms = ev.compute_ms;
      tel.moves = ev.moves;
      tel.moved_state_units = ev.moved_state_units;
    }
    tel.rss_mb =
        static_cast<double>(util::current_rss_bytes()) / (1024.0 * 1024.0);
    tel.peak_rss_mb =
        static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
    if (cfg_.telemetry != nullptr) cfg_.telemetry->write_window(tel);
    if (cfg_.consumer != nullptr) cfg_.consumer->on_window(tel);
  }
}

bool ShardingSimulator::maybe_repartition(const WindowSnapshot& snapshot) {
  Env env(*this);
  if (!strategy_.should_repartition(snapshot, env)) return false;

  ETHSHARD_OBS_SPAN("sim/repartition");
  const auto wall_start = std::chrono::steady_clock::now();
  partition::Partition next = strategy_.compute_partition(env);
  const double compute_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  ETHSHARD_OBS_RECORD_MS("sim/repartition_compute_ms", compute_ms);
  ETHSHARD_CHECK_MSG(next.size() == part_.size(),
                     "strategy returned wrong-sized partition");
  ETHSHARD_CHECK(next.k() == cfg_.k);

  if (cfg_.align_repartition_labels)
    partition::align_partition_labels(part_, &next);

  // Collect the vertices whose label actually changes (any label,
  // including kUnassigned — the cut treats it as one more shard id) and
  // the adjacency volume a delta update would have to scan.
  std::uint64_t moves = 0;
  std::uint64_t moved_state = 0;
  std::uint64_t delta_scan_arcs = 0;
  reassigned_.clear();
  for (graph::Vertex v = 0; v < part_.size(); ++v) {
    const partition::ShardId a = part_.shard_of(v);
    const partition::ShardId b = next.shard_of(v);
    if (a == b) continue;
    reassigned_.push_back(v);
    delta_scan_arcs += cumulative_.undirected_neighbors(v).size();
    if (a == partition::kUnassigned || b == partition::kUnassigned)
      continue;
    ++moves;
    moved_state += 1 + activity_[v];
  }

  // Assignment-dependent bookkeeping follows the moved vertices only.
  // Each vertex's cut delta is evaluated against the current part_ state
  // and applied before its own reassignment, so sequential application
  // is exact for any move set. When the moved adjacency exceeds a full
  // sweep (2 arcs per distinct edge), recompute instead.
  const bool delta_cheaper = delta_scan_arcs < 2 * distinct_edges_;
  for (graph::Vertex v : reassigned_) {
    const partition::ShardId a = part_.shard_of(v);
    const partition::ShardId b = next.shard_of(v);
    if (delta_cheaper) apply_cut_delta(v, a, b);
    if (a != partition::kUnassigned) {
      --shard_counts_[a];
      shard_loads_[a] -= activity_[v];
    }
    if (b != partition::kUnassigned) {
      ++shard_counts_[b];
      shard_loads_[b] += activity_[v];
    }
    part_.assign(v, b);
  }
  if (!delta_cheaper) recompute_static_cut();

  if (cfg_.verify_incremental) {
    verify_incremental_state();
    ETHSHARD_CHECK_MSG(cumulative_snapshot() == cumulative_.build_undirected(),
                       "cached cumulative snapshot diverged");
  }

  // A fresh activity window begins at every repartition (§II-C R-METIS:
  // the reduced graph "starts at the last (re)partitioning").
  window_.reset_edges(/*default_vertex_weight=*/0);
  window_.ensure_vertices(part_.size(), 0);

  last_repartition_ = snapshot.window_end;
  result_.repartitions.push_back(RepartitionEvent{
      snapshot.window_end, moves, moved_state, compute_ms});
  result_.total_moves += moves;
  result_.total_moved_state_units += moved_state;
  ETHSHARD_OBS_COUNT("sim/repartitions", 1);
  ETHSHARD_OBS_COUNT("sim/moves", moves);
  ETHSHARD_OBS_HIST("sim/repartition_moves", moves);
  return true;
}

void ShardingSimulator::advance_windows() {
  while (now_ >= window_start_ + cfg_.metric_window) {
    // Long traffic gaps: once the accumulating window is empty, every
    // pending window up to the current block is empty too. Skip them
    // wholesale as far as the strategy's no_repartition_before bound
    // allows — they would produce no sample and a guaranteed-false
    // should_repartition, so the result is identical.
    if (cfg_.fast_forward_gaps && cfg_.skip_empty_windows &&
        cfg_.telemetry == nullptr && cfg_.consumer == nullptr &&
        window_metrics_.empty()) {
      const util::Timestamp width = cfg_.metric_window;
      const auto pending =
          static_cast<std::uint64_t>((now_ - window_start_) / width);
      const util::Timestamp consult_at =
          strategy_.no_repartition_before(last_repartition_);
      std::uint64_t skip = 0;
      if (consult_at > window_start_ + width) {
        // Window i ends at window_start_ + i*width; skippable while
        // that end stays strictly before consult_at.
        const auto limit = static_cast<std::uint64_t>(
            (consult_at - window_start_ - 1) / width);
        skip = std::min(pending, limit);
      }
      if (skip > 0) {
        window_start_ += static_cast<util::Timestamp>(skip) * width;
        result_.gap_windows_skipped += skip;
        ETHSHARD_OBS_COUNT("sim/gap_windows_skipped", skip);
        continue;
      }
    }
    flush_window(window_start_ + cfg_.metric_window);
  }
}

void ShardingSimulator::begin_step(util::Timestamp ts) {
  now_ = ts;
  if (!started_) {
    started_ = true;
    window_start_ = ts;
    last_repartition_ = ts;
    window_wall_start_ = std::chrono::steady_clock::now();
  }
  advance_windows();
}

void ShardingSimulator::run_serial() {
  // next_ref() is zero-copy for a MaterializedSource (it hands out the
  // chain's own storage), so the History adapter replays exactly as the
  // old by-reference loop did; streaming sources buffer one block.
  while (const eth::Block* block = source_->next_ref()) {
    begin_step(block->timestamp);
    for (const eth::Transaction& tx : block->transactions)
      process_transaction(tx);
  }
}

void ShardingSimulator::apply_window_table(const WindowTable& table) {
  ETHSHARD_OBS_TIMER("sim/window_apply_ms");
  ETHSHARD_OBS_SPAN("pipeline/apply");
  // The producer measured its own wall time but must not touch obs (its
  // thread-local registry may be the wrong one in experiment grids), so
  // the table's cost is recorded here.
  ETHSHARD_OBS_RECORD_MS("sim/window_aggregate_ms", table.aggregate_ms);

  // Stage B.1 — placement replay, exactly the serial loop: transactions
  // that introduce new vertices run in trace order with now_ at their
  // block timestamp; within one, earlier placements are visible to later
  // ones, and the partition state decides anew which vertices are
  // unplaced and what their peers' shards are.
  for (const PlacementRecord& rec : table.placements) {
    now_ = rec.ts;
    const std::span<const graph::Vertex> involved{
        table.placement_vertices.data() + rec.begin,
        static_cast<std::size_t>(rec.end - rec.begin)};
    for (graph::Vertex v : involved) {
      ensure_vertex(v);
      if (part_.shard_of(v) != partition::kUnassigned) continue;
      peers_scratch_.clear();
      for (graph::Vertex u : involved) {
        if (u == v) continue;
        if (u < part_.size() &&
            part_.shard_of(u) != partition::kUnassigned)
          peers_scratch_.push_back(part_.shard_of(u));
      }
      place_vertex(v, peers_scratch_);
    }
  }
  now_ = table.last_block_ts;

  // Stage B.2 — one vectorized accounting pass. Every vertex the table
  // mentions was placed above (its first-ever transaction is a placement
  // record at or before this window), and no shard changes until the
  // flush, so counting after all placements reproduces the per-call
  // sums exactly (integer accumulators, order-independent). The LoadModel
  // dispatch is hoisted to a column pick: the loop touches the table's
  // vertex column plus exactly one weight column, branch-free.
  const std::vector<graph::Weight>& loads = cfg_.load_model == LoadModel::kGas
                                                ? table.load_gas
                                                : table.load_calls;
  const std::size_t load_count = table.load_vertices.size();
  for (std::size_t i = 0; i < load_count; ++i) {
    const graph::Vertex v = table.load_vertices[i];
    const graph::Weight load = loads[i];
    const partition::ShardId s = part_.shard_of(v);
    window_metrics_.record_activity(s, load);
    activity_[v] += load;
    shard_loads_[s] += load;
    window_.add_vertex_weight(v, load);
  }

  if (table.self_calls > 0)
    window_metrics_.record_self_interaction(table.self_calls);
  std::uint64_t pair_calls = 0;
  std::uint64_t cross_calls = 0;
  for (const graph::PairDelta& pd : table.pairs) {
    if (pd.u == pd.v) continue;
    const graph::Weight count = pd.fwd + pd.rev;
    const partition::ShardId su = part_.shard_of(pd.u);
    const partition::ShardId sv = part_.shard_of(pd.v);
    window_metrics_.record_interaction(su, sv, count);
    pair_calls += count;
    if (su != sv) cross_calls += count;
  }
  executed_total_ += table.total_calls;
  executed_pair_ += pair_calls;
  executed_cross_ += cross_calls;

  // Bulk graph apply: one hash probe per distinct pair, with the static
  // cut attributed per new undirected edge against the (fixed) endpoint
  // shards — the same classification serial replay made call by call,
  // batched: the apply collects the new pairs' indices and the cut test
  // runs over just those in its own loop.
  cumulative_.apply_pair_deltas(table.pairs, &new_pair_scratch_);
  distinct_edges_ += new_pair_scratch_.size();
  for (const std::uint32_t i : new_pair_scratch_) {
    const graph::PairDelta& pd = table.pairs[i];
    if (part_.shard_of(pd.u) != part_.shard_of(pd.v)) ++cut_edges_;
  }
  window_.apply_pair_deltas(table.pairs);
}

void ShardingSimulator::run_pipelined(std::size_t replay_threads,
                                      bool auto_probe) {
  // One aggregator thread feeds this one over an SPSC queue deep enough
  // for aggregation to run ahead across cheap windows while a
  // flush-heavy one stalls the consumer (queue_capacity= right-sizes
  // it; depth changes speed, never results).
  const std::size_t capacity =
      cfg_.queue_capacity != 0 ? cfg_.queue_capacity
                               : std::max<std::size_t>(replay_threads, 8);
  util::BoundedQueue<WindowTable> queue(capacity);
  std::uint64_t windows_pushed = 0;  // producer-written, read after join

  // Auto-fallback handshake: when the probe decides the pipeline cannot
  // win, the consumer raises `stop_pipeline`, keeps draining (so no
  // aggregated table is dropped), and the producer exits at the next
  // window boundary after recording where serial replay must resume.
  std::atomic<bool> stop_pipeline{false};
  // Materialized path: first block index Stage A did NOT aggregate.
  // Plain (non-atomic) because it is written before queue.close() and
  // read after producer.join().
  std::size_t resume_block = 0;

  const eth::Chain* chain = source_->materialized_chain();
  std::span<const eth::Block> block_span;
  std::vector<workload::WindowSpan> spans;
  if (chain != nullptr) {
    const auto& blocks = chain->blocks();
    block_span = {blocks.data(), blocks.size()};
    spans = workload::window_spans(block_span, cfg_.metric_window);
  }
  // Streaming path: on early stop the binner still holds the partially
  // binned window; declared out here so the serial resume can finish it
  // after the join.
  workload::WindowBinner binner(cfg_.metric_window);

#if ETHSHARD_OBS_ENABLED
  // Pipeline profiling taps: stall intervals as retroactive spans, queue
  // occupancy and per-window progress as counter tracks. Everything goes
  // through the process-global TraceBuffer, which is safe from any
  // thread — unlike the metric macros, which stay off the producer
  // thread (its thread-local registry may be the wrong one in experiment
  // grids; see the note in window_aggregator.cpp). The observer is only
  // installed when tracing is on, so untraced runs keep the queue's
  // zero-clock-read path.
  struct PipelineTap final : util::QueueObserver {
    void on_push(std::size_t depth, double wait_ms) override {
      if (wait_ms > 0) {
        const double end_ms = obs::trace_now_ms();
        obs::record_span("pipeline/backpressure_stall", end_ms - wait_ms,
                         end_ms);
      }
      obs::record_counter_sample("pipeline/queue_depth",
                                 static_cast<double>(depth));
      obs::record_counter_sample("pipeline/windows_aggregated",
                                 static_cast<double>(++pushed));
    }
    void on_pop(std::size_t depth, double wait_ms) override {
      if (wait_ms > 0) {
        const double end_ms = obs::trace_now_ms();
        obs::record_span("pipeline/prefetch_stall", end_ms - wait_ms,
                         end_ms);
      }
      obs::record_counter_sample("pipeline/queue_depth",
                                 static_cast<double>(depth));
      obs::record_counter_sample("pipeline/windows_applied",
                                 static_cast<double>(++popped));
    }
    // Each field is touched by exactly one side of the queue.
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
  };
  PipelineTap tap;
  if (obs::trace_enabled()) {
    queue.set_observer(&tap);
    obs::set_current_thread_lane("Stage B (apply+flush)");
  }
#endif

  std::thread producer([&] {
    try {
#if ETHSHARD_OBS_ENABLED
      obs::set_current_thread_lane("Stage A (aggregate)");
#endif
      const std::size_t agg_shards =
          cfg_.aggregation_shards != 0
              ? cfg_.aggregation_shards
              : std::min<std::size_t>(util::default_thread_count(), 4);
      WindowAggregator aggregator(agg_shards);
      if (chain != nullptr) {
        // Whole chain in memory: the spans were binned up front;
        // aggregate them in place (no block copies).
        for (const workload::WindowSpan& span : spans) {
          if (stop_pipeline.load(std::memory_order_acquire)) {
            resume_block = span.block_begin;
            queue.close();
            return;
          }
          WindowTable table;
          {
            ETHSHARD_OBS_SPAN("pipeline/aggregate");
            table = aggregator.aggregate(block_span, span);
          }
          ++windows_pushed;
          if (!queue.push(std::move(table))) return;  // consumer bailed
        }
        resume_block = block_span.size();
      } else {
        // Streaming: pull blocks one at a time, hold only the window
        // being binned, aggregate each as it completes. The source is
        // touched exclusively by this thread (until a fallback joins it).
        workload::BinnedWindow window;
        eth::Block block;
        auto aggregate_traced = [&](const workload::BinnedWindow& w) {
          ETHSHARD_OBS_SPAN("pipeline/aggregate");
          return aggregator.aggregate(w);
        };
        bool stopped = false;
        while (true) {
          if (stop_pipeline.load(std::memory_order_acquire)) {
            stopped = true;  // partial window stays in the binner
            break;
          }
          if (!source_->next(block)) break;
          if (binner.push(std::move(block), window)) {
            ++windows_pushed;
            if (!queue.push(aggregate_traced(window))) return;
          }
        }
        if (!stopped && binner.finish(window)) {
          ++windows_pushed;
          if (!queue.push(aggregate_traced(window))) return;
        }
      }
      queue.close();
    } catch (...) {
      queue.fail(std::current_exception());
    }
  });

  bool fell_back = false;
  try {
    const auto pipeline_start = std::chrono::steady_clock::now();
    double staged_ms = 0;
    std::uint64_t probed = 0;
    bool decided = !auto_probe || cfg_.auto_probe_windows == 0;
    while (std::optional<WindowTable> table = queue.pop()) {
      const double apply_cpu0 = decided ? 0 : util::thread_cpu_ms();
      // The first block of this span is what would have triggered the
      // pending flushes in serial replay; align now_ before advancing.
      begin_step(table->first_block_ts);
      apply_window_table(*table);
      if (!decided) {
        // Serial estimate for the windows seen so far: what one thread
        // would have spent on aggregate + apply + flush back to back —
        // the same model tools/trace_report scores a finished trace
        // with, measured live instead. Both terms are CPU time, not
        // wall time: when producer and consumer share cores (the exact
        // case the fallback exists for), preemption inflates each
        // stage's wall clock until the "serial estimate" is as slow as
        // the struggling pipeline itself and the probe can never fire.
        // CPU time only counts work actually done, so the estimate
        // stays honest on any core count.
        staged_ms += table->aggregate_cpu_ms +
                     (util::thread_cpu_ms() - apply_cpu0);
        if (++probed >= cfg_.auto_probe_windows) {
          decided = true;
          const double wall_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - pipeline_start)
                  .count();
          ETHSHARD_OBS_GAUGE("sim/pipeline_probe_speedup",
                             wall_ms > 0 ? staged_ms / wall_ms : 0.0);
          if (staged_ms < cfg_.auto_min_speedup * wall_ms) {
            // The pipeline is not beating the serial estimate by the
            // required margin: stop the producer at its next window
            // boundary and finish the history serially. Tables already
            // aggregated keep flowing — nothing is dropped or redone.
            fell_back = true;
            stop_pipeline.store(true, std::memory_order_release);
          }
        }
      }
    }
  } catch (...) {
    queue.close();
    producer.join();
    throw;
  }
  producer.join();
  ETHSHARD_OBS_COUNT("sim/pipeline_windows", windows_pushed);
  ETHSHARD_OBS_COUNT("sim/pipeline_prefetch_stalls", queue.pop_waits());
  ETHSHARD_OBS_COUNT("sim/pipeline_backpressure_stalls",
                     queue.push_waits());
  if (!fell_back) return;

  // Serial resume after a measured fallback. Everything Stage A
  // aggregated has been applied above; replay the rest through the
  // per-call reference path, exactly as if the run had been serial from
  // the first un-aggregated block onward.
  ETHSHARD_OBS_COUNT("sim/pipeline_auto_fallbacks", 1);
  if (chain != nullptr) {
    for (std::size_t b = resume_block; b < block_span.size(); ++b) {
      const eth::Block& block = block_span[b];
      begin_step(block.timestamp);
      for (const eth::Transaction& tx : block.transactions)
        process_transaction(tx);
    }
  } else {
    // The producer stopped mid-bin: finish the partial window it left in
    // the binner, then drain whatever is still in the source.
    workload::BinnedWindow partial;
    if (binner.finish(partial)) {
      for (const eth::Block& block : partial.blocks) {
        begin_step(block.timestamp);
        for (const eth::Transaction& tx : block.transactions)
          process_transaction(tx);
      }
    }
    run_serial();
  }
}

SimulationResult ShardingSimulator::run() {
  ETHSHARD_CHECK_MSG(!ran_, "simulator is single-use");
  ran_ = true;
  ETHSHARD_OBS_TIMER("sim/run_ms");
  ETHSHARD_OBS_SPAN("sim/run");

  result_.strategy_name = strategy_.name();
  result_.k = cfg_.k;

  // 0 = auto: start pipelined and let the measured probe decide whether
  // the pipeline stays, falling back to serial mid-run when it cannot
  // win. The one hardware guess auto does make is the degenerate one:
  // with fewer than 2 hardware threads the producer and consumer would
  // only time-slice a single core, so even the probe's few pipelined
  // windows are pure loss and auto resolves straight to serial.
  const bool auto_replay = cfg_.replay_threads == 0;
  const std::size_t auto_hw = cfg_.auto_hw_override != 0
                                  ? cfg_.auto_hw_override
                                  : util::default_thread_count();
  const std::size_t replay_threads =
      auto_replay ? (auto_hw < 2 ? 1 : std::max<std::size_t>(2, auto_hw))
                  : cfg_.replay_threads;
  if (replay_threads >= 2 && strategy_.supports_batched_replay())
    run_pipelined(replay_threads, auto_replay);
  else
    run_serial();

  // Empty stream: no window clock ever started, nothing to flush (the
  // result keeps its default-constructed aggregates, as before).
  if (!started_) return std::move(result_);

  // Final partial window: its reported end is clamped to just past the
  // last block instead of a full metric_window into silence.
  flush_window(std::min(window_start_ + cfg_.metric_window, now_ + 1));

  ETHSHARD_OBS_GAUGE("sim/peak_rss_mb",
                     static_cast<double>(util::peak_rss_bytes()) /
                         (1024.0 * 1024.0));

  result_.vertices = part_.size();
  result_.distinct_edges = distinct_edges_;
  result_.interactions = executed_total_;
  result_.final_static_edge_cut =
      distinct_edges_ == 0 ? 0.0
                           : static_cast<double>(cut_edges_) /
                                 static_cast<double>(distinct_edges_);
  result_.final_static_balance = current_static_balance();
  result_.executed_cross_shard_fraction =
      executed_pair_ == 0 ? 0.0
                          : static_cast<double>(executed_cross_) /
                                static_cast<double>(executed_pair_);
  return std::move(result_);
}

}  // namespace ethshard::core
