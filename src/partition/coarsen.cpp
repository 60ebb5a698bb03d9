#include "partition/coarsen.hpp"

#include <unordered_map>

#include "obs/obs.hpp"
#include "partition/parallel_contract.hpp"
#include "partition/parallel_match.hpp"
#include "util/check.hpp"

namespace ethshard::partition {

CoarseLevel coarsen_once(const graph::Graph& g, MatchingScheme scheme,
                         util::Rng& rng) {
  ETHSHARD_CHECK(!g.directed());
  const std::uint64_t n = g.num_vertices();

  constexpr graph::Vertex kUnmatched = graph::Graph::kInvalid;
  std::vector<graph::Vertex> match(n, kUnmatched);

  std::vector<graph::Vertex> order(n);
  for (graph::Vertex v = 0; v < n; ++v) order[v] = v;
  rng.shuffle(order);

  for (graph::Vertex v : order) {
    if (match[v] != kUnmatched) continue;
    graph::Vertex partner = v;  // default: singleton
    if (scheme == MatchingScheme::kHeavyEdge) {
      graph::Weight best = 0;
      for (const graph::Arc& a : g.neighbors(v)) {
        if (match[a.to] != kUnmatched || a.to == v) continue;
        if (a.weight > best) {
          best = a.weight;
          partner = a.to;
        }
      }
    } else {
      // Reservoir-sample one unmatched neighbour.
      std::uint64_t seen = 0;
      for (const graph::Arc& a : g.neighbors(v)) {
        if (match[a.to] != kUnmatched || a.to == v) continue;
        ++seen;
        if (rng.uniform(seen) == 0) partner = a.to;
      }
    }
    match[v] = partner;
    match[partner] = v;  // self-match when partner == v
  }

  // Number coarse vertices: the smaller endpoint of each pair owns the id.
  std::vector<graph::Vertex> fine_to_coarse(n, kUnmatched);
  graph::Vertex next = 0;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (fine_to_coarse[v] != kUnmatched) continue;
    fine_to_coarse[v] = next;
    fine_to_coarse[match[v]] = next;  // no-op for singletons
    ++next;
  }
  const std::uint64_t cn = next;

  // Aggregate coarse vertex weights and edges.
  std::vector<graph::Weight> cvwgt(cn, 0);
  for (graph::Vertex v = 0; v < n; ++v)
    cvwgt[fine_to_coarse[v]] += g.vertex_weight(v);

  std::unordered_map<std::uint64_t, graph::Weight> cedges;
  for (graph::Vertex v = 0; v < n; ++v) {
    const graph::Vertex cu = fine_to_coarse[v];
    for (const graph::Arc& a : g.neighbors(v)) {
      if (a.to <= v) continue;  // each undirected edge once
      const graph::Vertex cv = fine_to_coarse[a.to];
      if (cu == cv) continue;  // contracted away
      const graph::Vertex lo = std::min(cu, cv);
      const graph::Vertex hi = std::max(cu, cv);
      cedges[(lo << 32) | hi] += a.weight;
    }
  }

  // Build CSR for the coarse graph.
  std::vector<std::uint64_t> deg(cn, 0);
  for (const auto& [key, w] : cedges) {
    ++deg[key >> 32];
    ++deg[key & 0xFFFFFFFFULL];
  }
  std::vector<std::uint64_t> xadj(cn + 1, 0);
  for (std::uint64_t v = 0; v < cn; ++v) xadj[v + 1] = xadj[v] + deg[v];
  std::vector<graph::Arc> adj(xadj[cn]);
  std::vector<std::uint64_t> fill = xadj;
  for (const auto& [key, w] : cedges) {
    const graph::Vertex lo = key >> 32;
    const graph::Vertex hi = key & 0xFFFFFFFFULL;
    adj[fill[lo]++] = graph::Arc{hi, w};
    adj[fill[hi]++] = graph::Arc{lo, w};
  }

  CoarseLevel level;
  level.graph = graph::Graph::from_csr(std::move(xadj), std::move(adj),
                                       std::move(cvwgt), /*directed=*/false);
  level.fine_to_coarse = std::move(fine_to_coarse);
  return level;
}

std::vector<CoarseLevel> coarsen(const graph::Graph& g,
                                 std::uint64_t target_vertices,
                                 MatchingScheme scheme, util::Rng& rng) {
  std::vector<CoarseLevel> levels;
  const graph::Graph* cur = &g;
  while (cur->num_vertices() > target_vertices) {
    CoarseLevel next = coarsen_once(*cur, scheme, rng);
    // Matching stalls (e.g. star graphs) → stop rather than loop forever.
    if (next.graph.num_vertices() >
        static_cast<std::uint64_t>(0.95 * static_cast<double>(
                                              cur->num_vertices())))
      break;
    levels.push_back(std::move(next));
    cur = &levels.back().graph;
  }
  return levels;
}

std::vector<CoarseLevel> coarsen_mt(const graph::Graph& g,
                                    std::uint64_t target_vertices,
                                    MatchingScheme scheme, util::Rng& rng,
                                    std::size_t threads) {
  std::vector<CoarseLevel> levels;
  const graph::Graph* cur = &g;
  while (cur->num_vertices() > target_vertices) {
    ETHSHARD_OBS_SPAN("level");
    ETHSHARD_OBS_HIST("mlkp/level_vertices", cur->num_vertices());
    const std::uint64_t salt = rng.next();
    std::vector<graph::Vertex> match;
    {
      ETHSHARD_OBS_TIMER("mlkp/match_ms");
      ETHSHARD_OBS_SPAN("match");
      match = parallel_matching(*cur, scheme, salt, threads);
    }
    CoarseLevel next;
    {
      ETHSHARD_OBS_TIMER("mlkp/contract_ms");
      ETHSHARD_OBS_SPAN("contract");
      next = parallel_contract(*cur, match, threads);
    }
    // Shrink factor of this level; a value near 1 means matching stalled.
    ETHSHARD_OBS_HIST("mlkp/level_shrink",
                      static_cast<double>(next.graph.num_vertices()) /
                          static_cast<double>(cur->num_vertices()));
    // Matching stalls (e.g. star graphs) → stop rather than loop forever.
    if (next.graph.num_vertices() >
        static_cast<std::uint64_t>(0.95 * static_cast<double>(
                                              cur->num_vertices())))
      break;
    levels.push_back(std::move(next));
    cur = &levels.back().graph;
  }
  ETHSHARD_OBS_COUNT("mlkp/coarsen_levels", levels.size());
  return levels;
}

}  // namespace ethshard::partition
