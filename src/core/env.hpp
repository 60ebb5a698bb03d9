// Read-only view of the simulation that sharding strategies consult when
// placing vertices and computing repartitions.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/types.hpp"
#include "util/sim_time.hpp"

namespace ethshard::core {

/// The activity subgraph since the last repartition, induced on the
/// vertices that were actually touched. Local vertex ids index the graph;
/// to_global maps them back to account ids.
struct WindowGraph {
  graph::Graph undirected;
  std::vector<graph::Vertex> to_global;
};

/// Strategy-facing view of the running simulation. Graph snapshots are
/// built on demand (they are expensive); counters are always current.
class SimulatorEnv {
 public:
  virtual ~SimulatorEnv() = default;

  virtual std::uint32_t k() const = 0;
  virtual util::Timestamp now() const = 0;

  /// Current assignment; size == number of accounts seen so far.
  virtual const partition::Partition& current_partition() const = 0;

  /// Vertices per shard (static balance numerator).
  virtual const std::vector<std::uint64_t>& shard_vertex_counts() const = 0;

  /// Cumulative activity per shard (dynamic load).
  virtual const std::vector<graph::Weight>& shard_loads() const = 0;

  /// Snapshot of the full cumulative graph, symmetrized, with *unit*
  /// vertex weights and frequency edge weights — exactly what the paper
  /// feeds METIS (§II-C: edge weights target dynamic edge-cut; vertex
  /// balance is static). The reference is to a cached snapshot rebuilt
  /// only when edges were added since the last call (O(n + m) then, O(1)
  /// otherwise); it stays valid until the next call.
  virtual const graph::Graph& cumulative_graph() const = 0;

  /// Snapshot of the interactions since the last repartition, induced on
  /// active vertices, symmetrized, with *activity* vertex weights — the
  /// R-METIS/TR-METIS/KL input. O(m_window) plus a sort of the active
  /// vertices; independent of the history's size.
  virtual WindowGraph window_graph() const = 0;
};

}  // namespace ethshard::core
