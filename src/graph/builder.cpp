#include "graph/builder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ethshard::graph {

namespace {
constexpr std::uint64_t kIdLimit = std::uint64_t{1} << 32;
constexpr std::uint64_t kLoMask = 0xffffffffu;
}

std::uint64_t GraphBuilder::key(Vertex u, Vertex v) {
  return (u << 32) | v;
}

void GraphBuilder::link(Vertex v, std::uint32_t p) {
  VertexLinks& list = adj_[v];
  if (list.degree == 0) {
    list.head = p;
  } else {
    Link& tail = links_[list.tail];
    (v < (tail.ends ^ v) ? tail.next_lo : tail.next_hi) = p;
  }
  list.tail = p;
  ++list.degree;
}

Vertex GraphBuilder::add_vertex(Weight weight) {
  const Vertex id = vwgt_.size();
  ensure_vertices(id + 1, weight);
  return id;
}

void GraphBuilder::ensure_vertices(std::uint64_t count, Weight default_weight) {
  if (count <= vwgt_.size()) return;
  ETHSHARD_CHECK_MSG(count <= kIdLimit, "vertex id space exhausted");
  vwgt_.resize(count, default_weight);
  adj_.resize(count);
  window_vwgt_.resize(count, 0);
}

EdgeInsert GraphBuilder::add_edge(Vertex u, Vertex v, Weight weight) {
  ETHSHARD_CHECK(u < vwgt_.size() && v < vwgt_.size());
  ETHSHARD_CHECK(weight > 0);
  ETHSHARD_CHECK_MSG(pairs_.size() < kNoPair, "pair index space exhausted");
  const Vertex lo = std::min(u, v);
  const Vertex hi = std::max(u, v);
  const auto [slot, fresh] = index_.try_emplace(
      key(lo, hi), static_cast<std::uint32_t>(pairs_.size()));  // the probe
  const std::uint32_t p = slot;

  EdgeInsert ins;
  if (fresh) {
    pairs_.push_back(Pair{key(lo, hi)});
    links_.push_back(Link{static_cast<std::uint32_t>(lo ^ hi)});
    if (lo != hi) {
      link(lo, p);
      link(hi, p);
      ++num_und_edges_;
      ins.new_undirected_edge = true;
    }
  }
  Pair& pair = pairs_[p];
  if (pair.window == 0) window_pairs_.push_back(p);
  pair.window += weight;
  Weight& dir = (u == lo) ? pair.fwd : pair.rev;
  if (dir == 0) {
    ++num_dir_edges_;
    ins.new_directed_edge = true;
  }
  dir += weight;
  total_edge_weight_ += weight;
  return ins;
}

void GraphBuilder::add_vertex_weight(Vertex v, Weight weight) {
  ETHSHARD_CHECK(v < vwgt_.size());
  vwgt_[v] += weight;
}

bool GraphBuilder::has_edge(Vertex u, Vertex v) const {
  return edge_weight(u, v) > 0;
}

Weight GraphBuilder::edge_weight(Vertex u, Vertex v) const {
  const std::uint32_t* p = index_.find(key(std::min(u, v), std::max(u, v)));
  if (p == nullptr) return 0;
  return (u <= v) ? pairs_[*p].fwd : pairs_[*p].rev;
}

Graph GraphBuilder::build_directed() const {
  const std::uint64_t n = vwgt_.size();
  std::vector<std::uint64_t> xadj(n + 1, 0);
  for (const Pair& pair : pairs_) {
    if (pair.fwd > 0) ++xadj[(pair.key >> 32) + 1];
    if (pair.rev > 0) ++xadj[(pair.key & kLoMask) + 1];
  }
  for (Vertex v = 0; v < n; ++v) xadj[v + 1] += xadj[v];

  std::vector<Arc> adj(xadj[n]);
  std::vector<std::uint64_t> fill(xadj.begin(), xadj.end() - 1);
  for (const Pair& pair : pairs_) {
    const Vertex lo = pair.key >> 32;
    const Vertex hi = pair.key & kLoMask;
    if (pair.fwd > 0) adj[fill[lo]++] = Arc{hi, pair.fwd};
    if (pair.rev > 0) adj[fill[hi]++] = Arc{lo, pair.rev};
  }
  // from_csr sorts each arc list, so the snapshot does not depend on the
  // pair store's insertion order.
  return Graph::from_csr(std::move(xadj), std::move(adj), vwgt_,
                         /*directed=*/true);
}

Graph GraphBuilder::build_undirected() const {
  // Each non-loop pair is one arc at both endpoints: the list lengths are
  // the vertices' undirected degrees.
  const std::uint64_t n = vwgt_.size();
  std::vector<std::uint64_t> xadj(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) xadj[v + 1] = xadj[v] + adj_[v].degree;

  std::vector<Arc> adj(xadj[n]);
  std::vector<std::uint64_t> fill(xadj.begin(), xadj.end() - 1);
  for (const Pair& pair : pairs_) {
    const Vertex lo = pair.key >> 32;
    const Vertex hi = pair.key & kLoMask;
    if (lo == hi) continue;  // self-loops dropped from the symmetrized view
    const Weight w = pair.fwd + pair.rev;
    adj[fill[lo]++] = Arc{hi, w};
    adj[fill[hi]++] = Arc{lo, w};
  }
  return Graph::from_csr(std::move(xadj), std::move(adj), vwgt_,
                         /*directed=*/false);
}

void GraphBuilder::add_window_weight(Vertex v, Weight weight) {
  ETHSHARD_CHECK(v < vwgt_.size());
  ETHSHARD_CHECK(weight > 0);
  if (window_vwgt_[v] == 0)
    window_vertices_.push_back(static_cast<std::uint32_t>(v));
  window_vwgt_[v] += weight;
}

Graph GraphBuilder::build_window(std::vector<Vertex>& active,
                                 std::vector<Vertex>& old_to_new) const {
  active.assign(window_vertices_.begin(), window_vertices_.end());
  std::sort(active.begin(), active.end());
  if (old_to_new.size() < vwgt_.size())
    old_to_new.resize(vwgt_.size(), Graph::kInvalid);
  for (std::uint64_t i = 0; i < active.size(); ++i) {
    ETHSHARD_CHECK_MSG(old_to_new[active[i]] == Graph::kInvalid,
                       "dirty old_to_new scratch");
    old_to_new[active[i]] = i;
  }

  // nl == nh skips self-loops (and pairs with both ends inactive).
  const std::uint64_t sub_n = active.size();
  std::vector<std::uint64_t> xadj(sub_n + 1, 0);
  for (const std::uint32_t p : window_pairs_) {
    const Vertex nl = old_to_new[pairs_[p].key >> 32];
    const Vertex nh = old_to_new[pairs_[p].key & kLoMask];
    if (nl == nh || nl == Graph::kInvalid || nh == Graph::kInvalid) continue;
    ++xadj[nl + 1];
    ++xadj[nh + 1];
  }
  for (std::uint64_t i = 0; i < sub_n; ++i) xadj[i + 1] += xadj[i];

  std::vector<Arc> adj(xadj[sub_n]);
  std::vector<Weight> vw(sub_n);
  for (std::uint64_t i = 0; i < sub_n; ++i) vw[i] = window_vwgt_[active[i]];
  std::vector<std::uint64_t> fill(xadj.begin(), xadj.end() - 1);
  for (const std::uint32_t p : window_pairs_) {
    const Vertex nl = old_to_new[pairs_[p].key >> 32];
    const Vertex nh = old_to_new[pairs_[p].key & kLoMask];
    if (nl == nh || nl == Graph::kInvalid || nh == Graph::kInvalid) continue;
    adj[fill[nl]++] = Arc{nh, pairs_[p].window};
    adj[fill[nh]++] = Arc{nl, pairs_[p].window};
  }

  for (const Vertex v : active) old_to_new[v] = Graph::kInvalid;
  return Graph::from_csr(std::move(xadj), std::move(adj), std::move(vw),
                         /*directed=*/false);
}

void GraphBuilder::reset_window() {
  for (const std::uint32_t p : window_pairs_) pairs_[p].window = 0;
  for (const std::uint32_t v : window_vertices_) window_vwgt_[v] = 0;
  window_pairs_.clear();
  window_vertices_.clear();
}

std::uint64_t GraphBuilder::memory_bytes() const {
  return pairs_.capacity() * sizeof(Pair) +
         links_.capacity() * sizeof(Link) + index_.memory_bytes() +
         vwgt_.capacity() * sizeof(Weight) +
         adj_.capacity() * sizeof(VertexLinks) +
         window_vwgt_.capacity() * sizeof(Weight) +
         (window_pairs_.capacity() + window_vertices_.capacity()) *
             sizeof(std::uint32_t);
}

void GraphBuilder::clear() {
  pairs_.clear();
  links_.clear();
  index_.clear();
  vwgt_.clear();
  adj_.clear();
  window_vwgt_.clear();
  window_pairs_.clear();
  window_vertices_.clear();
  total_edge_weight_ = 0;
  num_dir_edges_ = 0;
  num_und_edges_ = 0;
}

}  // namespace ethshard::graph
