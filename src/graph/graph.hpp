// Immutable weighted graph in compressed-sparse-row form.
//
// This is the representation consumed by all partitioners and metric
// calculators. The blockchain graph of §II-B is directed (caller →
// callee); partitioning operates on its symmetrized (undirected) view,
// exactly as METIS consumes an undirected graph. Parallel edges are
// collapsed with accumulated weights by the builder, so edge weight =
// interaction frequency, and vertex weight = activity, matching the
// paper's "dynamic" metrics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ethshard::graph {

/// Vertex identifier; dense in [0, n).
using Vertex = std::uint64_t;
/// Weight type for vertices and edges (interaction counts).
using Weight = std::uint64_t;

/// One outgoing arc in an adjacency list.
struct Arc {
  Vertex to = 0;
  Weight weight = 1;

  friend bool operator==(const Arc&, const Arc&) = default;
};

/// Immutable CSR graph. Construct through GraphBuilder or the static
/// factory; all accessors are O(1) or return contiguous spans.
class Graph {
 public:
  Graph() = default;

  /// Builds from per-vertex adjacency. `directed` records whether arcs are
  /// one-directional; undirected graphs must already store each edge in
  /// both endpoints' lists (the builder takes care of this).
  static Graph from_adjacency(std::vector<std::vector<Arc>> adjacency,
                              std::vector<Weight> vertex_weights,
                              bool directed);

  /// Zero-copy factory from prebuilt CSR arrays: xadj has n+1 offsets into
  /// adj. Arc lists are sorted in place per vertex. This is the fast path
  /// used by GraphBuilder for large graphs.
  static Graph from_csr(std::vector<std::uint64_t> xadj, std::vector<Arc> adj,
                        std::vector<Weight> vertex_weights, bool directed);

  /// Number of vertices.
  std::uint64_t num_vertices() const {
    return xadj_.empty() ? 0 : xadj_.size() - 1;
  }

  /// Number of logical edges: arcs for a directed graph, arc-pairs for an
  /// undirected one (each undirected edge is stored twice).
  std::uint64_t num_edges() const {
    const std::uint64_t arcs = adj_.size();
    return directed_ ? arcs : arcs / 2;
  }

  bool directed() const { return directed_; }
  bool empty() const { return num_vertices() == 0; }

  /// Outgoing arcs of v (all incident arcs when undirected).
  std::span<const Arc> neighbors(Vertex v) const {
    return {adj_.data() + xadj_[v], adj_.data() + xadj_[v + 1]};
  }

  std::uint64_t degree(Vertex v) const { return xadj_[v + 1] - xadj_[v]; }

  Weight vertex_weight(Vertex v) const { return vwgt_[v]; }

  /// Sum of all vertex weights.
  Weight total_vertex_weight() const { return total_vwgt_; }

  /// Sum of logical edge weights (each undirected edge counted once).
  Weight total_edge_weight() const {
    return directed_ ? total_adjwgt_ : total_adjwgt_ / 2;
  }

  /// Sum of the weights of arcs incident to v.
  Weight weighted_degree(Vertex v) const;

  /// Symmetrized copy: for every arc u→v a single undirected edge {u,v}
  /// carries the summed weight of u→v and v→u. Self-loops are dropped
  /// (they can never be cut). Vertex weights are preserved.
  Graph to_undirected() const;

  /// Induced subgraph on `vertices` (old vertex ids, need not be sorted;
  /// duplicates are a precondition violation). `old_to_new`, if non-null,
  /// receives a mapping table sized num_vertices() with kInvalid for
  /// excluded vertices. Edge and vertex weights are preserved.
  static constexpr Vertex kInvalid = ~Vertex{0};
  Graph induced_subgraph(std::span<const Vertex> vertices,
                         std::vector<Vertex>* old_to_new = nullptr) const;

  /// True iff an undirected graph's arc lists are consistent (every arc
  /// has a reverse with equal weight) and no self-loops exist. Used by
  /// tests and debug assertions; O(m log m).
  bool check_symmetric() const;

  /// Structural equality: same CSR arrays, weights and directedness.
  /// Arc lists are sorted by the factories, so two graphs with the same
  /// edge set compare equal regardless of insertion order.
  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  std::vector<std::uint64_t> xadj_;  // size n+1
  std::vector<Arc> adj_;             // arcs, grouped by source
  std::vector<Weight> vwgt_;         // size n
  Weight total_vwgt_ = 0;
  Weight total_adjwgt_ = 0;
  bool directed_ = true;
};

}  // namespace ethshard::graph
