#include "net/graph.h"

#include <algorithm>
#include <array>
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

namespace {

bool edgeLess(const Edge& x, const Edge& y) {
  return x.a != y.a ? x.a < y.a : x.b < y.b;
}

/// Bit of an edge value in patchEdgeList's 4096-bit removal filter; equal
/// edges always share a bit.
std::uint32_t filterBit(const Edge& e) {
  return (static_cast<std::uint32_t>(e.a) * 0x9E3779B1U ^
          static_cast<std::uint32_t>(e.b) * 0x85EBCA77U) >>
         20;
}

/// Both arcs {source, target} of every edge, sorted by (source, target):
/// a node's arcs form one run whose targets ascend like its CSR row.
std::vector<Edge> sortedArcs(std::span<const Edge> edges) {
  std::vector<Edge> arcs;
  arcs.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    arcs.push_back({e.a, e.b});
    arcs.push_back({e.b, e.a});
  }
  std::sort(arcs.begin(), arcs.end(), edgeLess);
  return arcs;
}

}  // namespace

std::optional<std::size_t> patchEdgeList(std::vector<Edge>& edges,
                                         std::span<const Edge> removed,
                                         std::span<const Edge> added) {
  // Removal indices grouped by edge value, each group in index order, so
  // the next unplaced removal of a value is its group's head plus the
  // number of slots the group already took.
  std::vector<std::uint32_t> order(removed.size());
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(),
                   [removed](std::uint32_t x, std::uint32_t y) {
                     return edgeLess(removed[x], removed[y]);
                   });
  std::array<std::uint64_t, 64> filter{};
  for (const Edge& e : removed) {
    const std::uint32_t bit = filterBit(e);
    filter[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(removed.size(), kUnplaced);
  std::vector<std::uint32_t> taken(removed.size(), 0);  // indexed by head
  std::size_t placed = 0;
  for (std::size_t j = 0; j < edges.size() && placed < removed.size(); ++j) {
    const Edge e = edges[j];
    const std::uint32_t bit = filterBit(e);
    if (((filter[bit >> 6] >> (bit & 63)) & 1) == 0) {
      continue;
    }
    const auto head = static_cast<std::size_t>(
        std::lower_bound(order.begin(), order.end(), e,
                         [removed](std::uint32_t i, const Edge& v) {
                           return edgeLess(removed[i], v);
                         }) -
        order.begin());
    if (head == order.size() || removed[order[head]] != e) {
      continue;  // a filter false positive
    }
    const std::size_t next = head + taken[head];
    if (next < order.size() && removed[order[next]] == e) {
      slot[order[next]] = j;
      ++taken[head];
      ++placed;
    }
  }
  if (placed < removed.size()) {
    return static_cast<std::size_t>(
        std::find(slot.begin(), slot.end(), kUnplaced) - slot.begin());
  }

  const std::size_t paired = std::min(removed.size(), added.size());
  for (std::size_t i = 0; i < paired; ++i) {
    edges[slot[i]] = added[i];
  }
  edges.insert(edges.end(), added.begin() + static_cast<std::ptrdiff_t>(paired),
               added.end());
  if (removed.size() > paired) {
    std::vector<std::size_t> holes(
        slot.begin() + static_cast<std::ptrdiff_t>(paired), slot.end());
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
  return std::nullopt;
}

void Graph::patchAdjacency(const Graph& base, std::span<const Edge> removed,
                           std::span<const Edge> added) const {
  const std::vector<Edge> gone = sortedArcs(removed);
  const std::vector<Edge> fresh = sortedArcs(added);
  const std::vector<std::int32_t>& old_offsets = base.adj_offsets_;
  const std::vector<NodeId>& old_list = base.adj_list_;
  adj_offsets_.resize(old_offsets.size());
  adj_list_.reserve(edges_.size() * 2);

  // Rows are appended in node order.  The untouched rows from `from` up to
  // the next touched node move with one copy, and their offsets all shift
  // by the same amount.
  NodeId from = 0;
  const auto copyRun = [&](NodeId to) {
    const auto lo = static_cast<std::size_t>(from);
    const auto hi = static_cast<std::size_t>(to);
    const auto shift =
        static_cast<std::int32_t>(adj_list_.size()) - old_offsets[lo];
    adj_list_.insert(adj_list_.end(), old_list.begin() + old_offsets[lo],
                     old_list.begin() + old_offsets[hi]);
    std::transform(old_offsets.begin() + static_cast<std::ptrdiff_t>(lo),
                   old_offsets.begin() + static_cast<std::ptrdiff_t>(hi),
                   adj_offsets_.begin() + static_cast<std::ptrdiff_t>(lo),
                   [shift](std::int32_t offset) { return offset + shift; });
  };

  std::vector<NodeId> kept;
  std::size_t gi = 0;
  std::size_t fi = 0;
  while (gi < gone.size() || fi < fresh.size()) {
    const NodeId v = std::min(gi < gone.size() ? gone[gi].a : num_nodes_,
                              fi < fresh.size() ? fresh[fi].a : num_nodes_);
    copyRun(v);
    const auto idx = static_cast<std::size_t>(v);
    adj_offsets_[idx] = static_cast<std::int32_t>(adj_list_.size());

    // Both the row and v's removed arcs ascend, so one merge-like walk
    // drops one row entry per removed arc.
    kept.clear();
    for (auto j = static_cast<std::size_t>(old_offsets[idx]);
         j < static_cast<std::size_t>(old_offsets[idx + 1]); ++j) {
      const NodeId u = old_list[j];
      if (gi < gone.size() && gone[gi].a == v && gone[gi].b == u) {
        ++gi;
        continue;
      }
      kept.push_back(u);
    }
    DYNET_CHECK(gi == gone.size() || gone[gi].a != v)
        << "removed edge missing from node " << v << "'s adjacency";

    // Merge v's added neighbours (ascending, each checked to be new) into
    // the kept ones.
    auto next_kept = kept.begin();
    for (const std::size_t first = fi; fi < fresh.size() && fresh[fi].a == v;
         ++fi) {
      const NodeId u = fresh[fi].b;
      DYNET_CHECK(!std::binary_search(kept.begin(), kept.end(), u) &&
                  (fi == first || fresh[fi - 1].b != u))
          << "added edge (" << v << "," << u << ") already present";
      const auto stop = std::lower_bound(next_kept, kept.end(), u);
      adj_list_.insert(adj_list_.end(), next_kept, stop);
      adj_list_.push_back(u);
      next_kept = stop;
    }
    adj_list_.insert(adj_list_.end(), next_kept, kept.end());
    from = v + 1;
  }
  copyRun(num_nodes_);
  adj_offsets_.back() = static_cast<std::int32_t>(adj_list_.size());
}

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

  // Positional replacement keeps edges() in the order a from-scratch
  // rebuild in the same stable order would emit (trace byte-identity
  // depends on it).
  std::vector<Edge> edges = edges_;
  const std::optional<std::size_t> missing =
      patchEdgeList(edges, removed, added);
  DYNET_CHECK(!missing.has_value())
      << "removed edge (" << removed[*missing].a << "," << removed[*missing].b
      << ") not present";

  auto result = std::shared_ptr<Graph>(
      new Graph(num_nodes_, std::move(edges), Unvalidated{}));

  // A delta touching a large fraction of the graph is cheaper to rebuild;
  // leave the caches lazy and let first use pay the full build.
  if ((removed.size() + added.size()) * 2 > edges_.size() + 2) {
    return result;
  }
  result->patchAdjacency(*this, removed, added);
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
