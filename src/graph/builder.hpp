// Incremental construction of the blockchain graph.
//
// The simulator feeds every call of every transaction into a GraphBuilder;
// parallel edges accumulate weight (§II-B: "The weight in each edge denotes
// the number of times the interaction happened") and vertex weights
// accumulate activity. Snapshots are immutable CSR Graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/slot_map.hpp"

namespace ethshard::graph {

/// What a single add_edge call created (beyond accumulating weight).
/// Lets callers that track distinct-edge counts skip their own hash
/// lookups: `new_undirected_edge` is true exactly when the unordered pair
/// {u, v} had never interacted before (always false for self-loops, which
/// the undirected view drops).
struct EdgeInsert {
  bool new_directed_edge = false;
  bool new_undirected_edge = false;
};

/// Mutable weighted directed multigraph with O(1) amortized edge
/// accumulation, plus a window layer over the same edges: their weight
/// since the last reset_window() and a separate per-vertex window
/// activity. Vertex ids must stay below 2^32 (the pair key packs two ids
/// into 64 bits) and the store below 2^32 - 1 distinct pairs (pair
/// numbers are 32-bit); the Ethereum graph through 2017 has ~5e7
/// vertices, far below both limits.
///
/// One flat store holds every distinct unordered pair {min, max} in
/// insertion order: its packed key, both directions' weights and its
/// window weight. A util::SlotMap maps the key to the pair's number, so
/// accumulating an edge costs a single probe and updates the cumulative
/// and the window weight together. Each non-loop pair also has one link
/// per endpoint, threading it into both endpoints' neighbor lists
/// (per-vertex head, tail and degree), so neighbor iteration needs no
/// per-vertex allocation. Snapshots walk the pair array once and rely on
/// Graph::from_csr's arc sort for deterministic output.
///
/// The window layer keeps the list of pairs touched since the last reset
/// and the list of vertices with window activity, so reset_window() and
/// build_window() cost O(window), not O(history).
class GraphBuilder {
 public:
  /// Adds a vertex with the given initial weight; returns its id.
  Vertex add_vertex(Weight weight = 1);

  /// Ensures vertices [0, count) exist, creating any missing ones with
  /// `default_weight`.
  void ensure_vertices(std::uint64_t count, Weight default_weight = 1);

  /// Accumulates weight onto the directed edge u→v (creating it at first
  /// use), in the whole graph and in the window. Preconditions: both
  /// endpoints exist, weight > 0.
  EdgeInsert add_edge(Vertex u, Vertex v, Weight weight = 1);

  /// Accumulates vertex activity weight.
  void add_vertex_weight(Vertex v, Weight weight);

  std::uint64_t num_vertices() const { return vwgt_.size(); }
  /// Number of distinct directed edges (parallel edges collapsed).
  std::uint64_t num_edges() const { return num_dir_edges_; }
  /// Number of distinct undirected non-loop edges — the |E| of the
  /// symmetrized view (the static edge-cut denominator).
  std::uint64_t num_undirected_edges() const { return num_und_edges_; }
  /// Number of distinct unordered pairs in the store, self-loops included.
  std::uint64_t num_pairs() const { return pairs_.size(); }
  /// Sum of all accumulated edge weights (= number of interactions).
  Weight total_edge_weight() const { return total_edge_weight_; }

  bool has_edge(Vertex u, Vertex v) const;
  /// Accumulated weight of u→v; 0 if absent.
  Weight edge_weight(Vertex u, Vertex v) const;
  Weight vertex_weight(Vertex v) const { return vwgt_[v]; }

  /// Number of distinct non-loop neighbors of v in the symmetrized view.
  std::uint64_t undirected_degree(Vertex v) const { return adj_[v].degree; }

  /// Visits the distinct non-loop neighbors of v in the symmetrized view
  /// as f(u), in insertion order. O(deg v). f must not mutate the builder.
  template <typename F>
  void for_each_undirected_neighbor(Vertex v, F&& f) const {
    for (std::uint32_t p = adj_[v].head; p != kNoPair;) {
      const Link& link = links_[p];
      const Vertex u = link.ends ^ v;
      f(u);
      p = v < u ? link.next_lo : link.next_hi;
    }
  }

  /// Visits every distinct undirected non-loop edge once as f(u, v) with
  /// u < v, in insertion order. O(pairs), a sequential sweep.
  template <typename F>
  void for_each_undirected_edge(F&& f) const {
    for (const Pair& pair : pairs_) {
      const Vertex lo = pair.key >> 32;
      const Vertex hi = pair.key & 0xffffffffu;
      if (lo != hi) f(lo, hi);
    }
  }

  /// Immutable directed snapshot (CSR). O(n + m).
  Graph build_directed() const;

  /// Immutable symmetrized snapshot: arc weights u→v and v→u merge into
  /// one undirected edge; self-loops dropped. This is the form consumed
  /// by partitioners. O(n + m), no hash probes.
  Graph build_undirected() const;

  /// Accumulates window activity onto v: the vertex weight of the window
  /// snapshot, kept apart from vertex_weight. Precondition: weight > 0.
  void add_window_weight(Vertex v, Weight weight);

  /// Symmetrized snapshot of the window: the edges added since the last
  /// reset_window() (all of them before the first reset), induced on the
  /// vertices with window activity, which are renumbered to [0, count) in
  /// ascending id order and written to `active` (local id i is
  /// active[i]). Vertex weights are the window activity; self-loops and
  /// edges with an inactive endpoint are dropped. `old_to_new` is
  /// caller-owned scratch so repeated calls do not reallocate; it must
  /// contain only Graph::kInvalid entries on entry (any size — it grows
  /// on demand) and is restored to that state before returning.
  /// O(window pairs + a log-linear sort of the active vertices).
  Graph build_window(std::vector<Vertex>& active,
                     std::vector<Vertex>& old_to_new) const;

  /// Starts a fresh window: zeroes the window weight of every pair and
  /// the window activity of every vertex touched since the last reset.
  /// The whole graph is untouched. O(window).
  void reset_window();

  /// Bytes the store holds (allocated capacity): the pair array, the
  /// SlotMap slots, the neighbor links, the per-vertex arrays and the
  /// window lists.
  std::uint64_t memory_bytes() const;

  void clear();

 private:
  static constexpr std::uint32_t kNoPair = 0xffffffffu;

  /// One distinct unordered pair (min, max): fwd = min→max (and the full
  /// weight of a self-loop), rev = max→min, window = both directions
  /// since the last reset_window().
  struct Pair {
    std::uint64_t key = 0;
    Weight fwd = 0;
    Weight rev = 0;
    Weight window = 0;
  };

  /// The same pair's place in min's and max's neighbor lists (unused for
  /// self-loops). Kept apart from Pair so that a list walk reads 12 bytes
  /// per step: from either endpoint v the other one is ends ^ v, and v is
  /// min exactly when it is the smaller of the two.
  struct Link {
    std::uint32_t ends = 0;  // min ^ max
    std::uint32_t next_lo = kNoPair;
    std::uint32_t next_hi = kNoPair;
  };

  /// A vertex's neighbor list: first and last pair, and its length.
  struct VertexLinks {
    std::uint32_t head = kNoPair;
    std::uint32_t tail = kNoPair;
    std::uint32_t degree = 0;
  };

  static std::uint64_t key(Vertex u, Vertex v);
  void link(Vertex v, std::uint32_t p);

  std::vector<Pair> pairs_;  // insertion order; index = pair number
  std::vector<Link> links_;  // parallel to pairs_
  util::SlotMap index_;      // packed key → pair number
  std::vector<Weight> vwgt_;
  std::vector<VertexLinks> adj_;
  std::vector<Weight> window_vwgt_;             // window activity
  std::vector<std::uint32_t> window_pairs_;     // window weight > 0
  std::vector<std::uint32_t> window_vertices_;  // window activity > 0
  Weight total_edge_weight_ = 0;
  std::uint64_t num_dir_edges_ = 0;
  std::uint64_t num_und_edges_ = 0;
};

}  // namespace ethshard::graph
