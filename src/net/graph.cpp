#include "net/graph.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace dynet::net {

namespace {

/// Plain union-find for component counting.
class UnionFind {
 public:
  explicit UnionFind(NodeId n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  NodeId find(NodeId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return false;
    }
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<NodeId> parent_;
};

/// Number of connected components of the subgraph on the nodes v with
/// keep(v) (`kept` of them), using only edges with both endpoints kept.
///
/// First tries to prove connectivity by marking: mark one endpoint of the
/// first usable edge, then walk the edge list, marking an endpoint exactly
/// when the other one is already marked (grow = seen[a] ^ seen[b]).  Every
/// node is marked through an edge to a marked node, so by induction the
/// marked set is always connected; reaching `kept` marked nodes proves the
/// subgraph connected.  Edge lists emitted in attach order (trees grown
/// leaf by leaf, paths, stars) finish in one pass; lexicographically sorted
/// lists (gnp) need a second pass for the nodes whose marked neighbours
/// were marked later in the list.  Marking both endpoints unconditionally
/// would be unsound ({(0,1),(2,3)} would look connected).  When
/// kProofPasses passes fall short, union-find gives the exact count.
constexpr int kProofPasses = 2;

template <typename Keep>
int countComponents(NodeId n, std::span<const Edge> edges, NodeId kept,
                    Keep keep) {
  const auto usable = [&keep](const Edge& e) { return keep(e.a) & keep(e.b); };
  const auto first = std::find_if(edges.begin(), edges.end(), usable);
  if (first == edges.end()) {
    return kept;
  }
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  seen[static_cast<std::size_t>(first->a)] = 1;
  NodeId marked = 1;
  for (int pass = 0; pass < kProofPasses && marked < kept; ++pass) {
    for (const Edge& e : edges) {
      std::uint8_t& sa = seen[static_cast<std::size_t>(e.a)];
      std::uint8_t& sb = seen[static_cast<std::size_t>(e.b)];
      const auto grow = static_cast<std::uint8_t>(usable(e) & (sa ^ sb));
      sa |= grow;
      sb |= grow;
      marked += grow;
    }
  }
  if (marked == kept) {
    return 1;
  }
  UnionFind uf(n);
  int components = kept;
  for (const Edge& e : edges) {
    if (usable(e) && uf.unite(e.a, e.b)) {
      --components;
    }
  }
  return components;
}

}  // namespace

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  DYNET_CHECK(num_nodes_ >= 1) << "graph needs at least one node";
  for (const Edge& e : edges_) {
    DYNET_CHECK(e.a >= 0 && e.a < num_nodes_ && e.b >= 0 && e.b < num_nodes_)
        << "edge (" << e.a << "," << e.b << ") out of range, n=" << num_nodes_;
    DYNET_CHECK(e.a != e.b) << "self-loop at " << e.a;
  }
}

void Graph::buildAdjacency() const {
  adj_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const Edge& e : edges_) {
    ++adj_offsets_[static_cast<std::size_t>(e.a) + 1];
    ++adj_offsets_[static_cast<std::size_t>(e.b) + 1];
  }
  for (std::size_t i = 1; i < adj_offsets_.size(); ++i) {
    adj_offsets_[i] += adj_offsets_[i - 1];
  }
  // Two stable counting-sort passes over the 2m arcs give every node its
  // neighbors in canonical ascending order (delivery walks neighbors() as a
  // ready-sorted sender list, and applyDelta() patches lists by merge).
  // Pass 1 buckets the arcs by target (arc {a, b} is stored as {source,
  // target}); pass 2 scatters them by source in one flat loop, so each
  // source's list fills in ascending target order.  Both passes share the
  // degree offsets: a node's in- and out-degree are equal.  The arc buffer
  // (2m x 8 bytes) is thread_local because a fresh allocation per build
  // nearly doubled the build on dense graphs (gnp, n=1024, 11.6k edges:
  // 288 vs 152 us).
  std::vector<std::int32_t> cursor(adj_offsets_.begin(),
                                   adj_offsets_.end() - 1);
  thread_local std::vector<Edge> by_target;
  by_target.resize(edges_.size() * 2);
  for (const Edge& e : edges_) {
    by_target[static_cast<std::size_t>(cursor[e.b]++)] = {e.a, e.b};
    by_target[static_cast<std::size_t>(cursor[e.a]++)] = {e.b, e.a};
  }
  std::copy(adj_offsets_.begin(), adj_offsets_.end() - 1, cursor.begin());
  adj_list_.resize(by_target.size());
  for (const Edge& arc : by_target) {
    adj_list_[static_cast<std::size_t>(cursor[arc.a]++)] = arc.b;
  }
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  DYNET_CHECK(v >= 0 && v < num_nodes_) << "node " << v << " out of range";
  ensureAdjacency();
  const auto begin = static_cast<std::size_t>(adj_offsets_[v]);
  const auto end = static_cast<std::size_t>(adj_offsets_[static_cast<std::size_t>(v) + 1]);
  return {adj_list_.data() + begin, end - begin};
}

void Graph::computeComponents() const {
  component_count_ = countComponents(num_nodes_, edges_, num_nodes_,
                                     [](NodeId) { return true; });
}

bool Graph::connected() const {
  ensureComponents();
  return *component_count_ == 1;
}

int Graph::componentCount() const {
  ensureComponents();
  return *component_count_;
}

void Graph::warm() const {
  ensureAdjacency();
  ensureComponents();
}

bool Graph::hasEdge(NodeId a, NodeId b) const {
  const auto ns = neighbors(a);
  return std::binary_search(ns.begin(), ns.end(), b);
}

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges, Unvalidated)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {}

GraphPtr Graph::applyDelta(std::span<const Edge> removed,
                           std::span<const Edge> added,
                           bool same_components) const {
  DYNET_CHECK(warmed()) << "applyDelta requires a warmed base graph";
  for (const Edge& e : added) {
    DYNET_CHECK(e.a >= 0 && e.a < num_nodes_ && e.b >= 0 && e.b < num_nodes_)
        << "added edge (" << e.a << "," << e.b << ") out of range, n="
        << num_nodes_;
    DYNET_CHECK(e.a != e.b) << "added self-loop at " << e.a;
  }

  // Patch the edge list with positional replacement so the resulting
  // sequence matches what a from-scratch rebuild in the same stable order
  // would emit (trace byte-identity depends on edges() order).
  std::vector<Edge> edges = edges_;
  std::vector<std::size_t> removed_at(removed.size());
  for (std::size_t i = 0; i < removed.size(); ++i) {
    std::size_t pos = edges.size();
    for (std::size_t j = 0; j < edges.size(); ++j) {
      if (edges[j] == removed[i] &&
          std::find(removed_at.begin(), removed_at.begin() + i, j) ==
              removed_at.begin() + i) {
        pos = j;
        break;
      }
    }
    DYNET_CHECK(pos < edges.size()) << "removed edge (" << removed[i].a << ","
                                    << removed[i].b << ") not present";
    removed_at[i] = pos;
  }
  const std::size_t paired = std::min(removed.size(), added.size());
  for (std::size_t i = 0; i < paired; ++i) {
    edges[removed_at[i]] = added[i];
  }
  for (std::size_t i = paired; i < added.size(); ++i) {
    edges.push_back(added[i]);
  }
  if (removed.size() > paired) {
    std::vector<std::size_t> holes(removed_at.begin() +
                                       static_cast<std::ptrdiff_t>(paired),
                                   removed_at.end());
    std::sort(holes.begin(), holes.end());
    std::size_t out = holes.front();
    std::size_t next_hole = 0;
    for (std::size_t j = holes.front(); j < edges.size(); ++j) {
      if (next_hole < holes.size() && j == holes[next_hole]) {
        ++next_hole;
        continue;
      }
      edges[out++] = edges[j];
    }
    edges.resize(out);
  }

  auto result = std::shared_ptr<Graph>(
      new Graph(num_nodes_, std::move(edges), Unvalidated{}));

  // A delta touching a large fraction of the graph is cheaper to rebuild;
  // leave the caches lazy and let first use pay the full build.
  if ((removed.size() + added.size()) * 2 > edges_.size() + 2) {
    return result;
  }

  // Patch the CSR adjacency: untouched nodes copy their (sorted) slice,
  // touched nodes re-merge theirs.
  std::vector<char> touched(static_cast<std::size_t>(num_nodes_), 0);
  for (const Edge& e : removed) {
    touched[static_cast<std::size_t>(e.a)] = 1;
    touched[static_cast<std::size_t>(e.b)] = 1;
  }
  for (const Edge& e : added) {
    touched[static_cast<std::size_t>(e.a)] = 1;
    touched[static_cast<std::size_t>(e.b)] = 1;
  }
  result->adj_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  result->adj_list_.resize(result->edges_.size() * 2);
  std::vector<NodeId> scratch;
  std::vector<NodeId> gone;  // removed neighbors of v, one entry per edge
  std::int32_t out = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    result->adj_offsets_[idx] = out;
    const std::size_t begin = static_cast<std::size_t>(adj_offsets_[idx]);
    const std::size_t end = static_cast<std::size_t>(adj_offsets_[idx + 1]);
    if (touched[idx] == 0) {
      std::copy(adj_list_.begin() + static_cast<std::ptrdiff_t>(begin),
                adj_list_.begin() + static_cast<std::ptrdiff_t>(end),
                result->adj_list_.begin() + out);
      out += static_cast<std::int32_t>(end - begin);
      continue;
    }
    scratch.clear();
    gone.clear();
    for (const Edge& e : removed) {
      if (e.a == v) {
        gone.push_back(e.b);
      } else if (e.b == v) {
        gone.push_back(e.a);
      }
    }
    for (std::size_t j = begin; j < end; ++j) {
      const NodeId u = adj_list_[j];
      const auto it = std::find(gone.begin(), gone.end(), u);
      if (it != gone.end()) {
        gone.erase(it);
        continue;
      }
      scratch.push_back(u);
    }
    DYNET_CHECK(gone.empty()) << "removed edge missing from node " << v
                              << "'s adjacency";
    for (const Edge& e : added) {
      if (e.a == v) {
        scratch.push_back(e.b);
      } else if (e.b == v) {
        scratch.push_back(e.a);
      }
    }
    std::sort(scratch.begin(), scratch.end());
    std::copy(scratch.begin(), scratch.end(),
              result->adj_list_.begin() + out);
    out += static_cast<std::int32_t>(scratch.size());
  }
  result->adj_offsets_[static_cast<std::size_t>(num_nodes_)] = out;
  result->adj_built_.store(true, std::memory_order_release);

  // Components: adding edges to a connected graph keeps it connected; any
  // removal (or a disconnected base) forces a full recompute, which stays
  // lazy until someone asks — unless the caller asserted the component
  // count survives this delta.
  if (component_count_.has_value() &&
      (same_components || (removed.empty() && *component_count_ == 1))) {
    result->component_count_ = *component_count_;
    result->components_ready_.store(true, std::memory_order_release);
  }
  return result;
}

bool connectedOn(const Graph& g, std::span<const char> alive) {
  const NodeId n = g.numNodes();
  DYNET_CHECK(static_cast<std::size_t>(n) == alive.size())
      << "alive mask size " << alive.size() << " != " << n << " nodes";
  NodeId live = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (alive[static_cast<std::size_t>(v)] != 0) {
      ++live;
    }
  }
  if (live <= 1) {
    return true;
  }
  return countComponents(n, g.edges(), live, [alive](NodeId v) {
           return alive[static_cast<std::size_t>(v)] != 0;
         }) == 1;
}

GraphPtr makePath(NodeId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1});
  }
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeRing(NodeId n) {
  DYNET_CHECK(n >= 3) << "ring needs >= 3 nodes";
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1});
  }
  edges.push_back({n - 1, 0});
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeStar(NodeId n, NodeId center) {
  DYNET_CHECK(center >= 0 && center < n) << "bad star center";
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId i = 0; i < n; ++i) {
    if (i != center) {
      edges.push_back({center, i});
    }
  }
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeClique(NodeId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      edges.push_back({i, j});
    }
  }
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeTorus(NodeId rows, NodeId cols) {
  DYNET_CHECK(rows >= 2 && cols >= 2) << "torus needs >= 2x2";
  const NodeId n = rows * cols;
  std::vector<Edge> edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      const NodeId right = id(r, (c + 1) % cols);
      const NodeId down = id((r + 1) % rows, c);
      if (right != id(r, c)) {
        edges.push_back({id(r, c), right});
      }
      if (down != id(r, c)) {
        edges.push_back({id(r, c), down});
      }
    }
  }
  // Deduplicate (2-wide dimensions create duplicate wrap edges).
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return std::pair(std::min(x.a, x.b), std::max(x.a, x.b)) <
           std::pair(std::min(y.a, y.b), std::max(y.a, y.b));
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const Edge& x, const Edge& y) {
                            return std::pair(std::min(x.a, x.b), std::max(x.a, x.b)) ==
                                   std::pair(std::min(y.a, y.b), std::max(y.a, y.b));
                          }),
              edges.end());
  return std::make_shared<Graph>(n, std::move(edges));
}

}  // namespace dynet::net
