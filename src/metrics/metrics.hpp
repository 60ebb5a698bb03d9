// The paper's evaluation metrics (§II-C, Eqs. 1 and 2).
//
//   edge-cut = Σ|C(p_i)| / |E|          (fraction of edges across shards)
//   balance  = max_i(|p_i|) · k / |V|   (most loaded shard vs average)
//
// *Static* variants count vertices and edges; *dynamic* variants weight
// them by how often they appear in transactions, which the paper reads as
// the executed cross-shard transaction ratio and the actual load balance.
// Ideal values: edge-cut 0, balance 1.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/types.hpp"

namespace ethshard::metrics {

/// Eq. 1 on edge counts. Returns 0 for an edgeless graph.
double static_edge_cut(const graph::Graph& g, const partition::Partition& p);

/// Eq. 1 on edge weights (interaction frequencies).
double dynamic_edge_cut(const graph::Graph& g, const partition::Partition& p);

/// Eq. 2 on vertex counts. Returns 1 for an empty assignment.
double static_balance(const partition::Partition& p);

/// Eq. 2 on vertex weights (activity).
double dynamic_balance(const graph::Graph& g, const partition::Partition& p);

/// Fig. 5's normalization: (balance − 1) / (k − 1), mapping "perfect" to 0
/// and "everything in one shard" to 1 regardless of k. k = 1 maps to 0.
double normalized_balance(double balance, std::uint32_t k);

/// Accumulates the paper's per-window *dynamic* metrics during trace
/// replay. A window's dynamic edge-cut is the weighted fraction of its
/// interactions that crossed shards; its dynamic balance is Eq. 2 over the
/// activity observed in the window.
class WindowAccumulator {
 public:
  explicit WindowAccumulator(std::uint32_t k);

  /// One edge traversal (call) between the shards of its *distinct*
  /// endpoints. Self-calls must go through record_self_interaction
  /// instead: they can never be cut, and counting them here would deflate
  /// dynamic_edge_cut relative to metrics::dynamic_edge_cut on the
  /// symmetrized window graph (which drops self-loops).
  void record_interaction(partition::ShardId a, partition::ShardId b,
                          graph::Weight w = 1);

  /// A call whose caller and callee are the same account. Counted in
  /// total_interactions (the window's traffic volume) but excluded from
  /// the edge-cut denominator.
  void record_self_interaction(graph::Weight w = 1);

  /// One unit of vertex activity on shard s.
  void record_activity(partition::ShardId s, graph::Weight w = 1);

  /// Weighted cross-shard fraction of the window's non-self interactions
  /// — Eq. 1 over traversed edges, matching metrics::dynamic_edge_cut on
  /// the window graph. 0 when the window saw none.
  double dynamic_edge_cut() const;

  /// Eq. 2 over window activity; 1 when the window saw no activity.
  double dynamic_balance() const;

  graph::Weight total_interactions() const { return total_interactions_; }
  /// Interactions between distinct endpoints (the cut denominator).
  graph::Weight pair_interactions() const { return pair_interactions_; }
  graph::Weight cross_interactions() const { return cross_interactions_; }

  bool empty() const { return total_interactions_ == 0 && total_load_ == 0; }

  void reset();

 private:
  std::uint32_t k_;
  graph::Weight total_interactions_ = 0;
  graph::Weight pair_interactions_ = 0;
  graph::Weight cross_interactions_ = 0;
  std::vector<graph::Weight> load_;
  graph::Weight total_load_ = 0;
};

}  // namespace ethshard::metrics
