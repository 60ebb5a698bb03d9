// Unit and property tests for the graph module: builder accumulation,
// CSR invariants, symmetrization, induced subgraphs, generators, DOT.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/dot.hpp"
#include "graph/serialize.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ethshard::graph {
namespace {

// --------------------------------------------------------------- builder

TEST(GraphBuilder, AccumulatesParallelEdges) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 1);
  EXPECT_EQ(b.num_edges(), 2u);
  EXPECT_EQ(b.edge_weight(0, 1), 3u);
  EXPECT_EQ(b.edge_weight(1, 2), 1u);
  EXPECT_EQ(b.edge_weight(2, 1), 0u);
  EXPECT_EQ(b.total_edge_weight(), 4u);
}

TEST(GraphBuilder, DirectedSnapshot) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);
  const Graph g = b.build_directed();
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.total_edge_weight(), 5u);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_EQ(g.neighbors(0)[0].weight, 2u);
}

TEST(GraphBuilder, UndirectedMergesBothDirections) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);
  const Graph g = b.build_undirected();
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.total_edge_weight(), 5u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(GraphBuilder, UndirectedDropsSelfLoops) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 0, 5);
  b.add_edge(0, 1, 1);
  const Graph g = b.build_undirected();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.total_edge_weight(), 1u);
}

TEST(GraphBuilder, OneDirectionOnlyEdge) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(2, 0, 7);
  const Graph g = b.build_undirected();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.weighted_degree(0), 7u);
  EXPECT_EQ(g.weighted_degree(2), 7u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(GraphBuilder, VertexWeights) {
  GraphBuilder b;
  const Vertex v = b.add_vertex(3);
  b.add_vertex_weight(v, 4);
  const Graph g = b.build_directed();
  EXPECT_EQ(g.vertex_weight(v), 7u);
  EXPECT_EQ(g.total_vertex_weight(), 7u);
}

TEST(GraphBuilder, EdgeToMissingVertexThrows) {
  GraphBuilder b;
  b.ensure_vertices(1);
  EXPECT_THROW(b.add_edge(0, 5), util::CheckFailure);
}

TEST(GraphBuilder, ClearResets) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1);
  b.clear();
  EXPECT_EQ(b.num_vertices(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);
  EXPECT_EQ(b.total_edge_weight(), 0u);
}

TEST(GraphBuilder, EdgeInsertFlagsFirstUseOnly) {
  GraphBuilder b;
  b.ensure_vertices(3);
  const EdgeInsert first = b.add_edge(0, 1);
  EXPECT_TRUE(first.new_directed_edge);
  EXPECT_TRUE(first.new_undirected_edge);
  // The reverse direction is a new directed edge but the pair {0,1}
  // already interacted.
  const EdgeInsert reverse = b.add_edge(1, 0);
  EXPECT_TRUE(reverse.new_directed_edge);
  EXPECT_FALSE(reverse.new_undirected_edge);
  const EdgeInsert repeat = b.add_edge(0, 1, 4);
  EXPECT_FALSE(repeat.new_directed_edge);
  EXPECT_FALSE(repeat.new_undirected_edge);
  // Self-loops never create undirected edges.
  const EdgeInsert loop = b.add_edge(2, 2);
  EXPECT_TRUE(loop.new_directed_edge);
  EXPECT_FALSE(loop.new_undirected_edge);
  EXPECT_EQ(b.num_edges(), 3u);
  EXPECT_EQ(b.num_undirected_edges(), 1u);
}

std::vector<Vertex> neighbors_of(const GraphBuilder& b, Vertex v) {
  std::vector<Vertex> out;
  b.for_each_undirected_neighbor(v, [&](Vertex u) { out.push_back(u); });
  return out;
}

TEST(GraphBuilder, UndirectedNeighborsDistinctInInsertionOrder) {
  GraphBuilder b;
  b.ensure_vertices(4);
  b.add_edge(1, 3);
  b.add_edge(0, 1);
  b.add_edge(3, 1, 2);  // same pair as the first edge — no new neighbor
  b.add_edge(1, 1);     // self-loop — never a neighbor
  b.add_edge(1, 2);
  const std::vector<Vertex> n1 = neighbors_of(b, 1);
  ASSERT_EQ(n1.size(), 3u);
  EXPECT_EQ(b.undirected_degree(1), 3u);
  EXPECT_EQ(n1[0], 3u);
  EXPECT_EQ(n1[1], 0u);
  EXPECT_EQ(n1[2], 2u);
  ASSERT_EQ(neighbors_of(b, 3).size(), 1u);
  EXPECT_EQ(neighbors_of(b, 3)[0], 1u);
  EXPECT_TRUE(b.undirected_degree(2) == 1);
}

// A std::map model of the builder: per unordered pair both directions'
// weights and the order of first insertion (which fixes each vertex's
// neighbor sequence), plus the window, fed only the edges and activity
// since the last reset_window().
struct PairModel {
  Weight fwd = 0;  // min→max (and a self-loop's full weight)
  Weight rev = 0;  // max→min
  std::uint64_t order = 0;
};

struct BuilderModel {
  std::vector<Weight> vwgt;
  std::map<std::pair<Vertex, Vertex>, PairModel> pairs;
  std::map<std::pair<Vertex, Vertex>, Weight> window;
  std::map<Vertex, Weight> window_activity;
  std::uint64_t directed_edges = 0;
  Weight total = 0;

  Weight weight(Vertex u, Vertex v) const {
    const auto it = pairs.find(std::minmax(u, v));
    if (it == pairs.end()) return 0;
    return u <= v ? it->second.fwd : it->second.rev;
  }

  std::uint64_t undirected_edges() const {
    std::uint64_t n = 0;
    for (const auto& [key, pm] : pairs) n += key.first != key.second;
    return n;
  }

  std::vector<Vertex> neighbors(Vertex v) const {
    std::vector<std::pair<std::uint64_t, Vertex>> by_order;
    for (const auto& [key, pm] : pairs) {
      if (key.first == key.second) continue;
      if (key.first == v) by_order.emplace_back(pm.order, key.second);
      if (key.second == v) by_order.emplace_back(pm.order, key.first);
    }
    std::sort(by_order.begin(), by_order.end());
    std::vector<Vertex> out;
    for (const auto& entry : by_order) out.push_back(entry.second);
    return out;
  }

  Graph directed() const {
    std::vector<std::vector<Arc>> adj(vwgt.size());
    for (const auto& [key, pm] : pairs) {
      if (pm.fwd > 0) adj[key.first].push_back(Arc{key.second, pm.fwd});
      if (pm.rev > 0) adj[key.second].push_back(Arc{key.first, pm.rev});
    }
    return Graph::from_adjacency(std::move(adj), vwgt, /*directed=*/true);
  }

  Graph undirected() const {
    std::vector<std::vector<Arc>> adj(vwgt.size());
    for (const auto& [key, pm] : pairs) {
      if (key.first == key.second) continue;
      adj[key.first].push_back(Arc{key.second, pm.fwd + pm.rev});
      adj[key.second].push_back(Arc{key.first, pm.fwd + pm.rev});
    }
    return Graph::from_adjacency(std::move(adj), vwgt, /*directed=*/false);
  }

  /// The window graph induced on the active vertices (ascending ids).
  Graph window_graph(std::vector<Vertex>& active) const {
    active.clear();
    std::map<Vertex, Vertex> local;
    std::vector<Weight> vw;
    for (const auto& [v, w] : window_activity) {
      local[v] = active.size();
      active.push_back(v);
      vw.push_back(w);
    }
    std::vector<std::vector<Arc>> adj(active.size());
    for (const auto& [key, w] : window) {
      if (key.first == key.second || !local.count(key.first) ||
          !local.count(key.second))
        continue;
      adj[local[key.first]].push_back(Arc{local[key.second], w});
      adj[local[key.second]].push_back(Arc{local[key.first], w});
    }
    return Graph::from_adjacency(std::move(adj), std::move(vw),
                                 /*directed=*/false);
  }
};

void expect_matches_model(const GraphBuilder& b, const BuilderModel& m) {
  const Vertex n = m.vwgt.size();
  ASSERT_EQ(b.num_vertices(), n);
  EXPECT_EQ(b.num_pairs(), m.pairs.size());
  EXPECT_EQ(b.num_edges(), m.directed_edges);
  EXPECT_EQ(b.num_undirected_edges(), m.undirected_edges());
  EXPECT_EQ(b.total_edge_weight(), m.total);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      ASSERT_EQ(b.edge_weight(u, v), m.weight(u, v)) << u << "->" << v;
      ASSERT_EQ(b.has_edge(u, v), m.weight(u, v) > 0) << u << "->" << v;
    }
    const std::vector<Vertex> expected = m.neighbors(u);
    ASSERT_EQ(neighbors_of(b, u), expected) << "vertex " << u;
    ASSERT_EQ(b.undirected_degree(u), expected.size()) << "vertex " << u;
  }
  EXPECT_EQ(b.build_directed(), m.directed());
  EXPECT_EQ(b.build_undirected(), m.undirected());

  std::vector<Vertex> active;
  std::vector<Vertex> scratch;
  std::vector<Vertex> expected_active;
  EXPECT_EQ(b.build_window(active, scratch), m.window_graph(expected_active));
  EXPECT_EQ(active, expected_active);
  for (Vertex v : scratch) EXPECT_EQ(v, Graph::kInvalid);
}

TEST(GraphBuilder, MatchesMapModelAcrossGrowthAndWindowResets) {
  constexpr Vertex kN = 64;
  util::Rng rng(2024);
  GraphBuilder b;
  BuilderModel m;
  b.ensure_vertices(kN);
  m.vwgt.assign(kN, 1);

  auto add_window_weight = [&](Vertex v, Weight w) {
    b.add_window_weight(v, w);
    m.window_activity[v] += w;
  };

  for (int i = 0; i < 4000; ++i) {
    const Vertex u = rng.uniform(kN);
    const Vertex v = rng.uniform(16) == 0 ? u : rng.uniform(kN);
    const Weight w = 1 + rng.uniform(3);

    const auto key = std::minmax(u, v);
    const auto [it, fresh] =
        m.pairs.try_emplace(key, PairModel{0, 0, m.pairs.size()});
    Weight& dir = u == key.first ? it->second.fwd : it->second.rev;
    const bool new_directed = dir == 0;
    dir += w;
    m.directed_edges += new_directed;
    m.total += w;
    m.window[key] += w;

    const EdgeInsert ins = b.add_edge(u, v, w);
    ASSERT_EQ(ins.new_directed_edge, new_directed) << "call " << i;
    ASSERT_EQ(ins.new_undirected_edge, fresh && u != v) << "call " << i;

    // Usually both endpoints gain window activity, as in the simulator;
    // sometimes neither (their edge leaves the window snapshot), and now
    // and then a bystander does (an isolated active vertex).
    if (rng.uniform(10) != 0) {
      add_window_weight(u, w);
      if (v != u) add_window_weight(v, w);
    }
    if (rng.uniform(20) == 0) add_window_weight(rng.uniform(kN), 1);
    if (rng.uniform(50) == 0) {
      const Vertex x = rng.uniform(kN);
      b.add_vertex_weight(x, 2);
      m.vwgt[x] += 2;
    }

    if ((i + 1) % 700 == 0) {
      expect_matches_model(b, m);
      b.reset_window();
      m.window.clear();
      m.window_activity.clear();
    }
  }
  expect_matches_model(b, m);
  // The pair index starts at 64 SlotMap slots and doubles past 7/8 load,
  // so more than 448 pairs means at least three growths (64 → 512).
  EXPECT_GT(b.num_pairs(), 448u);
}

TEST(GraphBuilder, InducedMatchesWholeGraphInduced) {
  util::Rng rng(7);
  GraphBuilder b;
  b.ensure_vertices(30, 1);
  for (int i = 0; i < 200; ++i)
    b.add_edge(rng.uniform(30), rng.uniform(30), 1 + rng.uniform(5));
  std::vector<Vertex> keep;
  for (Vertex v = 0; v < 30; v += 2) keep.push_back(v);
  // Without a reset the window holds every edge, so activity on `keep`
  // makes the window snapshot the whole graph induced on `keep`.
  for (Vertex v : keep) b.add_window_weight(v, 1);

  std::vector<Vertex> active;
  std::vector<Vertex> scratch;  // grown on demand
  const Graph direct = b.build_window(active, scratch);
  const Graph via_snapshot = b.build_undirected().induced_subgraph(keep);
  EXPECT_EQ(active, keep);
  EXPECT_EQ(direct, via_snapshot);
  // The scratch contract: restored to all-kInvalid for the next call.
  for (Vertex v : scratch) EXPECT_EQ(v, Graph::kInvalid);
  EXPECT_EQ(b.build_window(active, scratch), via_snapshot);
}

TEST(GraphBuilder, InducedRejectsDirtyScratch) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1);
  std::vector<Vertex> scratch(3, Graph::kInvalid);
  scratch[2] = 0;  // stale mapping from a buggy caller
  // The window's active vertices are {1, 2}.
  b.add_window_weight(1, 1);
  b.add_window_weight(2, 1);
  std::vector<Vertex> active;
  EXPECT_THROW(b.build_window(active, scratch), util::CheckFailure);
}

TEST(GraphBuilder, ResetEdgesKeepsVerticesDropsEdges) {
  GraphBuilder b;
  b.ensure_vertices(3, 5);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 3);
  for (Vertex v = 0; v < 3; ++v) b.add_window_weight(v, 5);
  b.reset_window();
  std::vector<Vertex> active;
  std::vector<Vertex> scratch;
  const Graph window = b.build_window(active, scratch);
  EXPECT_EQ(b.num_vertices(), 3u);
  EXPECT_EQ(window.num_edges(), 0u);
  EXPECT_EQ(window.total_edge_weight(), 0u);
  // No vertex keeps window activity, so none (vertex 1 included) is in
  // the window snapshot.
  EXPECT_EQ(window.num_vertices(), 0u);
  EXPECT_TRUE(active.empty());
  // The whole graph keeps its edges and vertex weights.
  EXPECT_EQ(b.num_undirected_edges(), 2u);
  EXPECT_EQ(b.vertex_weight(1), 5u);
  EXPECT_EQ(neighbors_of(b, 1).size(), 2u);
  // The window is fully reusable after a reset.
  b.add_edge(2, 0, 7);
  b.add_window_weight(2, 1);
  b.add_window_weight(0, 1);
  const Graph next = b.build_window(active, scratch);
  EXPECT_EQ(next.num_edges(), 1u);
  ASSERT_EQ(next.neighbors(1).size(), 1u);  // local 1 = vertex 2
  EXPECT_EQ(next.neighbors(1)[0].weight, 7u);
  EXPECT_EQ(b.edge_weight(2, 0), 7u);
}

// ------------------------------------------------------------------ CSR

TEST(Graph, FromAdjacencySortsNeighbors) {
  std::vector<std::vector<Arc>> adj(3);
  adj[0] = {Arc{2, 1}, Arc{1, 1}};
  const Graph g =
      Graph::from_adjacency(std::move(adj), {1, 1, 1}, /*directed=*/true);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_EQ(g.neighbors(0)[1].to, 2u);
}

TEST(Graph, FromCsrValidatesOffsets) {
  EXPECT_THROW(
      Graph::from_csr({0, 2}, {Arc{0, 1}}, {1}, true),
      util::CheckFailure);
}

TEST(Graph, FromCsrRejectsOutOfRangeTarget) {
  EXPECT_THROW(Graph::from_csr({0, 1}, {Arc{5, 1}}, {1}, true),
               util::CheckFailure);
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, ToUndirectedOnDirectedTriangle) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 0, 3);
  const Graph d = b.build_directed();
  const Graph u = d.to_undirected();
  EXPECT_EQ(u.num_edges(), 3u);
  EXPECT_EQ(u.total_edge_weight(), 6u);
  EXPECT_TRUE(u.check_symmetric());
  EXPECT_EQ(u.total_vertex_weight(), d.total_vertex_weight());
}

TEST(Graph, BuildUndirectedMatchesToUndirected) {
  util::Rng rng(5);
  GraphBuilder b;
  b.ensure_vertices(50);
  for (int i = 0; i < 400; ++i) {
    const Vertex u = rng.uniform(50);
    const Vertex v = rng.uniform(50);
    b.add_edge(u, v, 1 + rng.uniform(4));
  }
  const Graph a = b.build_undirected();
  const Graph c = b.build_directed().to_undirected();
  ASSERT_EQ(a.num_vertices(), c.num_vertices());
  ASSERT_EQ(a.num_edges(), c.num_edges());
  EXPECT_EQ(a.total_edge_weight(), c.total_edge_weight());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nc = c.neighbors(v);
    ASSERT_EQ(na.size(), nc.size()) << "vertex " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].to, nc[i].to);
      EXPECT_EQ(na[i].weight, nc[i].weight);
    }
  }
}

// ------------------------------------------------------------- subgraph

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  const Graph g = make_path(5);  // 0-1-2-3-4
  const std::vector<Vertex> keep = {1, 2, 3};
  std::vector<Vertex> map;
  const Graph sub = g.induced_subgraph(keep, &map);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // 1-2, 2-3 survive
  EXPECT_EQ(map[0], Graph::kInvalid);
  EXPECT_EQ(map[1], 0u);
  EXPECT_EQ(map[4], Graph::kInvalid);
  EXPECT_TRUE(sub.check_symmetric());
}

TEST(Graph, InducedSubgraphPreservesWeights) {
  GraphBuilder b;
  b.ensure_vertices(3, 1);
  b.add_vertex_weight(1, 9);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 7);
  const Graph g = b.build_undirected();
  const Graph sub = g.induced_subgraph(std::vector<Vertex>{0, 1});
  EXPECT_EQ(sub.vertex_weight(1), 10u);
  EXPECT_EQ(sub.total_edge_weight(), 5u);
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  const Graph g = make_path(3);
  EXPECT_THROW(g.induced_subgraph(std::vector<Vertex>{0, 0}),
               util::CheckFailure);
}

TEST(Graph, InducedSubgraphEmptySelection) {
  const Graph g = make_path(3);
  const Graph sub = g.induced_subgraph(std::vector<Vertex>{});
  EXPECT_TRUE(sub.empty());
}

// ----------------------------------------------------------- generators

TEST(Generators, PathShape) {
  const Graph g = make_path(10);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(5), 2u);
}

TEST(Generators, CycleShape) {
  const Graph g = make_cycle(7);
  EXPECT_EQ(g.num_edges(), 7u);
  for (Vertex v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, CompleteShape) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(Generators, GridShape) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior
}

TEST(Generators, ErdosRenyiDensity) {
  util::Rng rng(9);
  const Graph g = make_erdos_renyi(100, 0.1, rng);
  const double expected = 0.1 * 100 * 99 / 2;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              0.25 * expected);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(Generators, BarabasiAlbertHasHubs) {
  util::Rng rng(13);
  const Graph g = make_barabasi_albert(500, 2, rng);
  EXPECT_EQ(g.num_vertices(), 500u);
  std::uint64_t max_deg = 0;
  for (Vertex v = 0; v < 500; ++v) max_deg = std::max(max_deg, g.degree(v));
  // Preferential attachment produces hubs far above the mean degree (~4).
  EXPECT_GT(max_deg, 20u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(Generators, PlantedPartitionCommunitySizes) {
  util::Rng rng(17);
  const Graph g = make_planted_partition(4, 25, 0.5, 0.01, rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_TRUE(g.check_symmetric());
}

TEST(Generators, TwoCliquesBridgeCount) {
  const Graph g = make_two_cliques(20, 3);
  const std::uint64_t clique_edges = 2 * (10 * 9 / 2);
  EXPECT_EQ(g.num_edges(), clique_edges + 3);
}

TEST(Generators, TwoCliquesRejectsTooManyBridges) {
  EXPECT_THROW(make_two_cliques(10, 6), util::CheckFailure);
}

// ------------------------------------------------------------------ dot

TEST(Dot, DirectedOutput) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1, 3);
  const std::string dot = to_dot(b.build_directed());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);
}

TEST(Dot, HidesUnitWeights) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1, 1);
  const std::string dot = to_dot(b.build_directed());
  // The weight-1 edge is emitted without a label attribute (node labels
  // still carry ids, so look at the edge statement specifically).
  EXPECT_NE(dot.find("v0 -> v1;"), std::string::npos);
  EXPECT_EQ(dot.find("v0 -> v1 [label"), std::string::npos);
}

TEST(Dot, ContractStyling) {
  GraphBuilder b;
  b.ensure_vertices(2);
  b.add_edge(0, 1);
  DotOptions opts;
  opts.is_contract = [](Vertex v) { return v == 1; };
  const std::string dot = to_dot(b.build_directed(), opts);
  EXPECT_NE(dot.find("v1 [label=\"1\", style=dashed]"), std::string::npos);
}

TEST(Dot, UndirectedEmitsEachEdgeOnce) {
  const std::string dot = to_dot(make_path(3));
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.find("v1 -- v2"), std::string::npos);
  EXPECT_EQ(dot.find("v1 -- v0"), std::string::npos);
}

// -------------------------------------------------------------- analysis

TEST(Analysis, SingleComponentPath) {
  const Components c = connected_components(make_path(6));
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.largest(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(c.component_of[v], 0u);
}

TEST(Analysis, DisjointCliquesAreSeparate) {
  GraphBuilder b;
  b.ensure_vertices(8);
  for (Vertex i = 0; i < 4; ++i)
    for (Vertex j = i + 1; j < 4; ++j) {
      b.add_edge(i, j);
      b.add_edge(4 + i, 4 + j);
    }
  const Components c = connected_components(b.build_undirected());
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.sizes[0], 4u);
  EXPECT_EQ(c.sizes[1], 4u);
  EXPECT_NE(c.component_of[0], c.component_of[5]);
}

TEST(Analysis, IsolatedVerticesAreSingletons) {
  GraphBuilder b;
  b.ensure_vertices(5);
  b.add_edge(0, 1);
  const Components c = connected_components(b.build_undirected());
  EXPECT_EQ(c.count(), 4u);  // {0,1} + three singletons
  EXPECT_EQ(c.largest(), 2u);
}

TEST(Analysis, WeakComponentsOnDirectedGraph) {
  // 0 → 1 ← 2: weakly one component even though no directed path 0→2.
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1);
  b.add_edge(2, 1);
  const Components c = connected_components(b.build_directed());
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.largest(), 3u);
}

TEST(Analysis, EmptyGraphComponents) {
  const Components c = connected_components(Graph{});
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.largest(), 0u);
}

TEST(Analysis, DegreeStatisticsOnStar) {
  GraphBuilder b;
  b.ensure_vertices(6);
  for (Vertex leaf = 1; leaf <= 4; ++leaf) b.add_edge(0, leaf);
  // vertex 5 isolated
  const DegreeStats s = degree_statistics(b.build_undirected());
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.max_degree_vertex, 0u);
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.isolated, 1u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 8.0 / 6.0);
  EXPECT_DOUBLE_EQ(s.median_degree, 1.0);
}

TEST(Analysis, DegreeStatisticsEmpty) {
  const DegreeStats s = degree_statistics(Graph{});
  EXPECT_EQ(s.max_degree, 0u);
  EXPECT_EQ(s.isolated, 0u);
}

TEST(Analysis, KCoreOfCliqueIsUniform) {
  const CoreDecomposition d = kcore_decomposition(make_complete(6));
  EXPECT_EQ(d.max_core, 5u);
  EXPECT_EQ(d.nucleus_size, 6u);
  for (std::uint64_t c : d.core_of) EXPECT_EQ(c, 5u);
}

TEST(Analysis, KCoreOfPathIsOne) {
  const CoreDecomposition d = kcore_decomposition(make_path(10));
  EXPECT_EQ(d.max_core, 1u);
  for (std::uint64_t c : d.core_of) EXPECT_EQ(c, 1u);
}

TEST(Analysis, KCoreSeparatesCliqueFromPendants) {
  // K5 with a pendant chain hanging off vertex 0.
  GraphBuilder b;
  b.ensure_vertices(8);
  for (Vertex i = 0; i < 5; ++i)
    for (Vertex j = i + 1; j < 5; ++j) b.add_edge(i, j);
  b.add_edge(0, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  const CoreDecomposition d = kcore_decomposition(b.build_undirected());
  EXPECT_EQ(d.max_core, 4u);
  EXPECT_EQ(d.nucleus_size, 5u);  // the clique
  EXPECT_EQ(d.core_of[5], 1u);
  EXPECT_EQ(d.core_of[7], 1u);
}

TEST(Analysis, KCoreStarIsOne) {
  GraphBuilder b;
  b.ensure_vertices(7);
  for (Vertex leaf = 1; leaf <= 6; ++leaf) b.add_edge(0, leaf);
  const CoreDecomposition d = kcore_decomposition(b.build_undirected());
  EXPECT_EQ(d.max_core, 1u);
  EXPECT_EQ(d.core_of[0], 1u);  // the hub peels with its leaves
}

TEST(Analysis, KCoreIsolatedVerticesAreZero) {
  GraphBuilder b;
  b.ensure_vertices(3);
  b.add_edge(0, 1);
  const CoreDecomposition d = kcore_decomposition(b.build_undirected());
  EXPECT_EQ(d.core_of[2], 0u);
  EXPECT_EQ(d.core_of[0], 1u);
}

TEST(Analysis, KCoreMonotoneUnderDegree) {
  // Core number never exceeds degree.
  util::Rng rng(93);
  const Graph g = make_barabasi_albert(300, 3, rng);
  const CoreDecomposition d = kcore_decomposition(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_LE(d.core_of[v], g.degree(v));
  EXPECT_GE(d.max_core, 3u);  // BA(m=3) has a >=3-core
}

TEST(Analysis, TriangleCountKnownGraphs) {
  EXPECT_EQ(clustering(make_complete(4)).triangles, 4u);
  EXPECT_EQ(clustering(make_complete(5)).triangles, 10u);
  EXPECT_EQ(clustering(make_path(10)).triangles, 0u);
  EXPECT_EQ(clustering(make_cycle(5)).triangles, 0u);
  EXPECT_EQ(clustering(make_cycle(3)).triangles, 1u);
}

TEST(Analysis, ClusteringCoefficientBounds) {
  // Complete graph: every wedge closes → coefficient 1.
  EXPECT_DOUBLE_EQ(clustering(make_complete(6)).global_coefficient, 1.0);
  // Star: no triangles.
  GraphBuilder b;
  b.ensure_vertices(5);
  for (Vertex leaf = 1; leaf <= 4; ++leaf) b.add_edge(0, leaf);
  EXPECT_DOUBLE_EQ(clustering(b.build_undirected()).global_coefficient,
                   0.0);
}

TEST(Analysis, TwoCliquesTriangles) {
  // Two K10 cliques joined by one bridge: 2 * C(10,3) triangles.
  const Graph g = make_two_cliques(20, 1);
  EXPECT_EQ(clustering(g).triangles, 2u * 120u);
}

TEST(Analysis, ClusteringEmptyGraph) {
  const ClusteringStats s = clustering(Graph{});
  EXPECT_EQ(s.triangles, 0u);
  EXPECT_DOUBLE_EQ(s.global_coefficient, 0.0);
}

// -------------------------------------------------------------- serialize

bool graphs_identical(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges() || a.directed() != b.directed())
    return false;
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    if (a.vertex_weight(v) != b.vertex_weight(v)) return false;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (na.size() != nb.size()) return false;
    for (std::size_t i = 0; i < na.size(); ++i)
      if (!(na[i] == nb[i])) return false;
  }
  return true;
}

TEST(Serialize, RoundTripUndirected) {
  util::Rng rng(811);
  const Graph g = make_barabasi_albert(120, 3, rng);
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, g);
  const Graph r = load_graph(buffer);
  EXPECT_TRUE(graphs_identical(g, r));
  EXPECT_TRUE(r.check_symmetric());
}

TEST(Serialize, RoundTripDirectedWithWeights) {
  GraphBuilder b;
  b.ensure_vertices(5, 3);
  b.add_edge(0, 1, 7);
  b.add_edge(1, 0, 2);
  b.add_edge(4, 2, 9);
  b.add_vertex_weight(3, 11);
  const Graph g = b.build_directed();
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, g);
  EXPECT_TRUE(graphs_identical(g, load_graph(buffer)));
}

TEST(Serialize, RoundTripEmptyGraph) {
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, Graph{});
  EXPECT_EQ(load_graph(buffer).num_vertices(), 0u);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  buffer << "NOPE and more bytes here to be safe";
  EXPECT_THROW(load_graph(buffer), util::CheckFailure);
}

TEST(Serialize, RejectsTruncation) {
  const Graph g = make_path(20);
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_graph(buffer, g);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::istringstream cut(bytes, std::ios::binary);
  EXPECT_THROW(load_graph(cut), util::CheckFailure);
}

TEST(Serialize, FileRoundTrip) {
  const Graph g = make_grid(6, 7);
  const std::string path = "/tmp/ethshard_graph_snapshot_test.bin";
  save_graph_file(path, g);
  EXPECT_TRUE(graphs_identical(g, load_graph_file(path)));
}

// --------------------------------------------------- randomized property

TEST(GraphProperty, UndirectedTotalsConsistent) {
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    GraphBuilder b;
    const std::uint64_t n = 10 + rng.uniform(40);
    b.ensure_vertices(n);
    const int m = static_cast<int>(rng.uniform(200));
    for (int i = 0; i < m; ++i)
      b.add_edge(rng.uniform(n), rng.uniform(n), 1 + rng.uniform(3));
    const Graph g = b.build_undirected();
    EXPECT_TRUE(g.check_symmetric());
    // Sum of weighted degrees equals twice the total edge weight.
    graph::Weight sum = 0;
    for (Vertex v = 0; v < n; ++v) sum += g.weighted_degree(v);
    EXPECT_EQ(sum, 2 * g.total_edge_weight());
  }
}

}  // namespace
}  // namespace ethshard::graph
