// Tests for graphs, connectivity, and the causal (dynamic) diameter.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/diameter.h"
#include "net/graph.h"
#include "util/check.h"

namespace dynet::net {
namespace {

TEST(Graph, AdjacencyMatchesEdges) {
  Graph g(5, {{0, 1}, {1, 2}, {1, 3}});
  EXPECT_EQ(g.neighbors(1).size(), 3u);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(4).size(), 0u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 0));
  EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(Graph, RejectsBadEdges) {
  EXPECT_THROW(Graph(3, {{0, 3}}), util::CheckError);
  EXPECT_THROW(Graph(3, {{1, 1}}), util::CheckError);
  EXPECT_THROW(Graph(0, {}), util::CheckError);
}

TEST(Graph, Connectivity) {
  EXPECT_TRUE(Graph(1, {}).connected());
  EXPECT_FALSE(Graph(2, {}).connected());
  EXPECT_TRUE(Graph(3, {{0, 1}, {1, 2}}).connected());
  Graph split(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(split.connected());
  EXPECT_EQ(split.componentCount(), 2);
}

TEST(GraphBuilders, Shapes) {
  EXPECT_TRUE(makePath(6)->connected());
  EXPECT_EQ(makePath(6)->numEdges(), 5u);
  EXPECT_TRUE(makeRing(6)->connected());
  EXPECT_EQ(makeRing(6)->numEdges(), 6u);
  EXPECT_TRUE(makeStar(6, 2)->connected());
  EXPECT_EQ(makeStar(6, 2)->neighbors(2).size(), 5u);
  EXPECT_EQ(makeClique(5)->numEdges(), 10u);
  auto torus = makeTorus(4, 5);
  EXPECT_TRUE(torus->connected());
  EXPECT_EQ(torus->neighbors(0).size(), 4u);
}

TEST(GraphBuilders, TorusTwoWideHasNoDuplicateEdges) {
  auto torus = makeTorus(2, 4);
  for (NodeId v = 0; v < torus->numNodes(); ++v) {
    auto ns = torus->neighbors(v);
    std::vector<NodeId> sorted(ns.begin(), ns.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
        << "duplicate neighbor at " << v;
  }
}

// ---------------------------------------------------------------------------
// Graph caches vs a naive reference: per-node std::sort adjacency and a
// plain union-find over the (optionally live-masked) edge list.

std::vector<std::vector<NodeId>> referenceNeighbors(
    NodeId n, std::span<const Edge> edges) {
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  for (const Edge& e : edges) {
    adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    adj[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
  }
  return adj;
}

/// Components of the subgraph on the nodes with alive[v] != 0 (all nodes
/// when `alive` is empty).
int referenceComponents(NodeId n, std::span<const Edge> edges,
                        std::span<const char> alive = {}) {
  const auto live = [&](NodeId v) {
    return alive.empty() || alive[static_cast<std::size_t>(v)] != 0;
  };
  std::vector<NodeId> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  const auto root = [&](NodeId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  int components = 0;
  for (NodeId v = 0; v < n; ++v) {
    components += live(v) ? 1 : 0;
  }
  for (const Edge& e : edges) {
    if (live(e.a) && live(e.b) && root(e.a) != root(e.b)) {
      parent[static_cast<std::size_t>(root(e.a))] = root(e.b);
      --components;
    }
  }
  return components;
}

void expectMatchesReference(const Graph& g, std::mt19937& rng) {
  const NodeId n = g.numNodes();
  const auto adj = referenceNeighbors(n, g.edges());
  for (NodeId v = 0; v < n; ++v) {
    const auto ns = g.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(ns.begin(), ns.end()),
              adj[static_cast<std::size_t>(v)])
        << "neighbors(" << v << "), n=" << n;
  }
  const int components = referenceComponents(n, g.edges());
  EXPECT_EQ(g.componentCount(), components) << "n=" << n;
  EXPECT_EQ(g.connected(), components == 1) << "n=" << n;
  // connectedOn counts only edges with both endpoints alive.
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  EXPECT_EQ(connectedOn(g, alive), components == 1) << "all alive, n=" << n;
  for (int trial = 0; trial < 8; ++trial) {
    for (char& a : alive) {
      a = static_cast<char>(rng() % 4 != 0);
    }
    EXPECT_EQ(connectedOn(g, alive),
              referenceComponents(n, g.edges(), alive) <= 1)
        << "masked trial " << trial << ", n=" << n;
  }
}

/// Random spanning tree in attach order: node v joins below a node < v, so
/// every edge has an endpoint already on the tree when it is listed.
/// Endpoint order within each edge is random.
std::vector<Edge> attachOrderTree(NodeId n, std::mt19937& rng) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) {
    const auto parent = static_cast<NodeId>(rng() % static_cast<unsigned>(v));
    edges.push_back(rng() % 2 == 0 ? Edge{parent, v} : Edge{v, parent});
  }
  return edges;
}

/// Random simple graph: each pair present with probability p, listed in a
/// random order.
std::vector<Edge> randomEdges(NodeId n, double p, std::mt19937& rng) {
  std::bernoulli_distribution coin(p);
  std::vector<Edge> edges;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (coin(rng)) {
        edges.push_back({a, b});
      }
    }
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  return edges;
}

TEST(GraphReference, AttachReversedAndShuffledTrees) {
  std::mt19937 rng(11);
  for (const NodeId n : {2, 3, 5, 17, 64, 257}) {
    std::vector<Edge> edges = attachOrderTree(n, rng);
    expectMatchesReference(Graph(n, edges), rng);
    std::reverse(edges.begin(), edges.end());
    expectMatchesReference(Graph(n, edges), rng);
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      std::shuffle(edges.begin(), edges.end(), rng);
      expectMatchesReference(Graph(n, edges), rng);
    }
  }
}

TEST(GraphReference, SeveralComponentsAndIsolatedNodes) {
  std::mt19937 rng(12);
  for (const NodeId n : {4, 9, 40, 200}) {
    // Up to four trees over a random node relabelling, listed in attach
    // order (forest) and shuffled; the unused labels stay isolated.
    std::vector<NodeId> label(static_cast<std::size_t>(n));
    std::iota(label.begin(), label.end(), 0);
    std::shuffle(label.begin(), label.end(), rng);
    std::vector<Edge> edges;
    NodeId next = 0;
    for (int tree = 0; tree < 4 && next < n; ++tree) {
      const auto size = std::min<NodeId>(
          n - next,
          1 + static_cast<NodeId>(rng() % static_cast<unsigned>(n / 3 + 1)));
      for (const Edge& e : attachOrderTree(size, rng)) {
        edges.push_back({label[static_cast<std::size_t>(next + e.a)],
                         label[static_cast<std::size_t>(next + e.b)]});
      }
      next += size;
    }
    expectMatchesReference(Graph(n, edges), rng);
    std::shuffle(edges.begin(), edges.end(), rng);
    expectMatchesReference(Graph(n, edges), rng);
    // Sparse random graphs: a mix of components, cycles and isolated nodes.
    for (const double p : {0.5 / n, 1.0 / n, 2.0 / n, 0.3}) {
      expectMatchesReference(Graph(n, randomEdges(n, p, rng)), rng);
    }
  }
}

TEST(GraphReference, TinyGraphs) {
  std::mt19937 rng(13);
  expectMatchesReference(Graph(1, {}), rng);
  EXPECT_EQ(Graph(1, {}).componentCount(), 1);
  expectMatchesReference(Graph(2, {}), rng);
  EXPECT_EQ(Graph(2, {}).componentCount(), 2);
  expectMatchesReference(Graph(2, {{1, 0}}), rng);
  EXPECT_TRUE(Graph(2, {{1, 0}}).connected());
}

TEST(GraphReference, EveryBuilder) {
  std::mt19937 rng(14);
  for (const NodeId n : {1, 2, 7, 64}) {
    expectMatchesReference(*makePath(n), rng);
    expectMatchesReference(*makeStar(n), rng);
    expectMatchesReference(*makeStar(n, n - 1), rng);
    expectMatchesReference(*makeStar(n, n / 2), rng);
    expectMatchesReference(*makeClique(n), rng);
    if (n >= 3) {
      expectMatchesReference(*makeRing(n), rng);
    }
  }
  for (const auto& [rows, cols] :
       {std::pair{2, 2}, {2, 5}, {3, 3}, {4, 5}, {16, 16}}) {
    expectMatchesReference(*makeTorus(rows, cols), rng);
  }
}

// The marking connectivity proof may only mark an endpoint whose partner
// is already marked.  Marking both endpoints of every edge would walk
// {(0,1),(2,3)} to 4 marked nodes and call two components one.
TEST(GraphReference, ProofDoesNotMarkUnreachedEdges) {
  Graph split(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(split.componentCount(), 2);
  EXPECT_FALSE(split.connected());
  std::vector<char> alive = {1, 1, 1, 1};
  EXPECT_FALSE(connectedOn(split, alive));
  // Joined only by the last edge: the pass must still reach all four.
  EXPECT_TRUE(Graph(4, {{0, 1}, {2, 3}, {1, 2}}).connected());
  // The first edge has a dead endpoint, so the proof starts elsewhere.
  Graph path(4, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<char> first_dead = {0, 1, 1, 1};
  EXPECT_TRUE(connectedOn(path, first_dead));
  std::vector<char> cut = {1, 1, 0, 1};
  EXPECT_FALSE(connectedOn(path, cut));
}

/// Path 0-1-...-(n-1) listed so the marking proof stalls: the first edge
/// sits at the far end and the rest run from node 0 toward it, so each
/// pass marks only one more node and the union-find fallback decides.
std::vector<Edge> stalledPathOrder(NodeId n) {
  std::vector<Edge> edges = {{n - 2, n - 1}};
  for (NodeId v = 0; v + 2 < n; ++v) {
    edges.push_back({v, v + 1});
  }
  return edges;
}

TEST(GraphReference, StalledProofFallsBackToUnionFind) {
  std::mt19937 rng(15);
  expectMatchesReference(Graph(64, stalledPathOrder(64)), rng);
  EXPECT_TRUE(Graph(64, stalledPathOrder(64)).connected());
  std::vector<Edge> cut = stalledPathOrder(64);
  cut.erase(cut.begin() + 10);
  EXPECT_EQ(Graph(64, cut).componentCount(), 2);
}

// ---------------------------------------------------------------------------
// Graph::applyDelta vs a naive reference: the positional patch as one
// first-match scan per removal, then a fresh Graph for the caches.

std::vector<Edge> referencePatch(std::vector<Edge> edges,
                                 std::span<const Edge> removed,
                                 std::span<const Edge> added) {
  std::vector<std::size_t> slots;
  for (const Edge& r : removed) {
    std::size_t j = 0;
    while (j < edges.size() &&
           (edges[j] != r ||
            std::find(slots.begin(), slots.end(), j) != slots.end())) {
      ++j;
    }
    EXPECT_LT(j, edges.size()) << "reference: removal not present";
    slots.push_back(j);
  }
  const std::size_t paired = std::min(removed.size(), added.size());
  for (std::size_t i = 0; i < paired; ++i) {
    edges[slots[i]] = added[i];
  }
  edges.insert(edges.end(), added.begin() + static_cast<std::ptrdiff_t>(paired),
               added.end());
  std::vector<std::size_t> holes(
      slots.begin() + static_cast<std::ptrdiff_t>(paired), slots.end());
  std::sort(holes.rbegin(), holes.rend());
  for (const std::size_t hole : holes) {
    edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(hole));
  }
  return edges;
}

/// Applies the delta to `base` (warmed) and checks edges() order, every
/// neighbors(v) and, after warm(), componentCount() against the reference.
/// Returns the patched graph.
GraphPtr expectDeltaMatchesReference(const GraphPtr& base,
                                     std::span<const Edge> removed,
                                     std::span<const Edge> added) {
  const std::vector<Edge> before(base->edges().begin(), base->edges().end());
  const GraphPtr got = base->applyDelta(removed, added);
  const std::vector<Edge> want_edges = referencePatch(before, removed, added);
  const std::vector<Edge> got_edges(got->edges().begin(), got->edges().end());
  EXPECT_TRUE(got_edges == want_edges)
      << "edges() order differs, " << removed.size() << " removed, "
      << added.size() << " added";
  const Graph want(base->numNodes(), want_edges);
  for (NodeId v = 0; v < base->numNodes(); ++v) {
    const auto g = got->neighbors(v);
    const auto w = want.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(g.begin(), g.end()),
              std::vector<NodeId>(w.begin(), w.end()))
        << "neighbors(" << v << ")";
  }
  got->warm();
  EXPECT_EQ(got->componentCount(), want.componentCount());
  return got;
}

/// Random edge list over `n` nodes with random endpoint order and some
/// edges listed twice (the constructor allows duplicates, and the patch
/// must treat equal slots by index).
std::vector<Edge> edgesWithDuplicates(NodeId n, double p, std::mt19937& rng) {
  std::vector<Edge> edges = randomEdges(n, p, rng);
  for (Edge& e : edges) {
    if (rng() % 2 == 0) {
      std::swap(e.a, e.b);
    }
  }
  const std::size_t copies = edges.size() / 6;
  for (std::size_t i = 0; i < copies; ++i) {
    const Edge e = edges[rng() % edges.size()];
    edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(
                                     rng() % (edges.size() + 1)),
                 e);
  }
  return edges;
}

/// A random delta on `edges`: `removals` distinct slots (so equal values
/// are removed twice when a duplicated edge is picked twice), in random
/// order, and `adds` fresh pairs absent from the list.
std::pair<std::vector<Edge>, std::vector<Edge>> randomDelta(
    NodeId n, const std::vector<Edge>& edges, std::size_t removals,
    std::size_t adds, std::mt19937& rng) {
  std::vector<std::size_t> slots(edges.size());
  std::iota(slots.begin(), slots.end(), 0);
  std::shuffle(slots.begin(), slots.end(), rng);
  std::vector<Edge> removed;
  for (std::size_t i = 0; i < std::min(removals, slots.size()); ++i) {
    removed.push_back(edges[slots[i]]);
  }
  const auto present = [&](NodeId a, NodeId b) {
    const auto same = [a, b](const Edge& e) {
      return (e.a == a && e.b == b) || (e.a == b && e.b == a);
    };
    return std::any_of(edges.begin(), edges.end(), same);
  };
  std::vector<Edge> added;
  for (int tries = 0; added.size() < adds && tries < 1000; ++tries) {
    const auto a = static_cast<NodeId>(rng() % static_cast<unsigned>(n));
    const auto b = static_cast<NodeId>(rng() % static_cast<unsigned>(n));
    const auto repeat = [a, b](const Edge& e) {
      return (e.a == a && e.b == b) || (e.a == b && e.b == a);
    };
    if (a == b || present(a, b) ||
        std::any_of(added.begin(), added.end(), repeat)) {
      continue;
    }
    added.push_back({a, b});
  }
  return {removed, added};
}

TEST(GraphDelta, MatchesReferenceOnRandomDeltas) {
  std::mt19937 rng(21);
  for (const NodeId n : {4, 12, 40, 150}) {
    for (int chain = 0; chain < 6; ++chain) {
      auto base = std::make_shared<const Graph>(
          n, edgesWithDuplicates(n, 4.0 / n + 0.05, rng));
      base->warm();
      // A chain of patches, each on the previous result: hole compaction
      // (more removals), appends (more adds), balanced and one-sided
      // deltas, small enough to stay on the patched path.
      for (int step = 0; step < 12; ++step) {
        const std::size_t budget = base->numEdges() / 4 + 1;
        const std::size_t removals = rng() % (budget + 1);
        const std::size_t adds = rng() % (budget + 1);
        const auto [removed, added] =
            randomDelta(n, std::vector<Edge>(base->edges().begin(),
                                             base->edges().end()),
                        removals, adds, rng);
        base = expectDeltaMatchesReference(base, removed, added);
      }
    }
  }
}

TEST(GraphDelta, EqualEdgesTakeSlotsInIndexOrder) {
  // (0,1) sits in slots 0, 2 and 4; removing it twice frees slots 0 and 2
  // (the first two), in removal order, whatever else the delta holds.
  auto base = std::make_shared<const Graph>(
      5, std::vector<Edge>{{0, 1}, {1, 2}, {0, 1}, {2, 3}, {0, 1}, {3, 4}});
  base->warm();
  const std::vector<Edge> removed = {{2, 3}, {0, 1}, {0, 1}};
  const std::vector<Edge> added = {{0, 4}, {1, 3}, {2, 4}};
  const GraphPtr got = expectDeltaMatchesReference(base, removed, added);
  const std::vector<Edge> want = {{1, 3}, {1, 2}, {2, 4},
                                  {0, 4}, {0, 1}, {3, 4}};
  EXPECT_TRUE(std::vector<Edge>(got->edges().begin(), got->edges().end()) ==
              want);
  // Fewer adds than removals: the unpaired slots close by a stable shift.
  const std::vector<Edge> one_add = {{1, 4}};
  const GraphPtr shrunk = expectDeltaMatchesReference(base, removed, one_add);
  const std::vector<Edge> want_shrunk = {{1, 2}, {1, 4}, {0, 1}, {3, 4}};
  EXPECT_TRUE(std::vector<Edge>(shrunk->edges().begin(),
                                shrunk->edges().end()) == want_shrunk);
}

TEST(GraphDelta, LargeDeltaFallsBackToLazyCaches) {
  std::mt19937 rng(22);
  auto base = std::make_shared<const Graph>(30, randomEdges(30, 0.2, rng));
  base->warm();
  const std::size_t m = base->numEdges();
  const auto [removed, added] =
      randomDelta(30, std::vector<Edge>(base->edges().begin(),
                                        base->edges().end()),
                  m / 2, m / 2, rng);
  ASSERT_GT((removed.size() + added.size()) * 2, m + 2);
  const GraphPtr got = base->applyDelta(removed, added);
  EXPECT_FALSE(got->warmed());  // nothing patched: first use builds
  expectDeltaMatchesReference(base, removed, added);
}

TEST(GraphDelta, ComponentCarryRules) {
  // Path 0-1-2-3-4-5 (connected) plus an edge list with two components.
  const GraphPtr path = makePath(6);
  path->warm();
  auto split = std::make_shared<const Graph>(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  split->warm();
  const std::vector<Edge> none;
  const std::vector<Edge> chord = {{0, 5}};
  const std::vector<Edge> cut = {{2, 3}};

  // 1. Adds only, on a connected graph: the count (1) carries over.
  const GraphPtr grown = path->applyDelta(none, chord);
  EXPECT_TRUE(grown->warmed());
  EXPECT_EQ(grown->componentCount(), 1);
  // Adds only on a disconnected graph may merge components: recomputed.
  const GraphPtr joined = split->applyDelta(none, chord);
  EXPECT_FALSE(joined->warmed());
  EXPECT_EQ(joined->componentCount(), 1);

  // 2. A removal without the caller's assertion: recomputed lazily.
  const GraphPtr halves = path->applyDelta(cut, none);
  EXPECT_FALSE(halves->warmed());
  EXPECT_EQ(halves->componentCount(), 2);

  // 3. same_components carries the base count across removals, unverified:
  // true for a swap that keeps a spanning tree, a lie for a plain cut.
  const GraphPtr swapped = path->applyDelta(cut, chord, true);
  EXPECT_TRUE(swapped->warmed());
  EXPECT_EQ(swapped->componentCount(), 1);
  const GraphPtr lie = path->applyDelta(cut, none, true);
  EXPECT_TRUE(lie->warmed());
  EXPECT_EQ(lie->componentCount(), 1);
  EXPECT_EQ(Graph(6, std::vector<Edge>(lie->edges().begin(),
                                       lie->edges().end()))
                .componentCount(),
            2);
}

void expectCheckMentions(const GraphPtr& base, const std::vector<Edge>& removed,
                         const std::vector<Edge>& added,
                         const std::string& needle) {
  try {
    base->applyDelta(removed, added);
    ADD_FAILURE() << "expected a CheckError mentioning '" << needle << "'";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message was: " << e.what();
  }
}

TEST(GraphDelta, MissingRemovalAndDuplicateAddFailLoudly) {
  const GraphPtr path = makePath(5);  // (0,1) (1,2) (2,3) (3,4)
  path->warm();
  // Absent, reversed, and removed more often than listed.
  expectCheckMentions(path, {{0, 2}}, {}, "removed edge (0,2) not present");
  expectCheckMentions(path, {{1, 0}}, {}, "removed edge (1,0) not present");
  expectCheckMentions(path, {{2, 3}, {2, 3}}, {},
                      "removed edge (2,3) not present");
  // Present in either orientation, or added twice in one delta.
  expectCheckMentions(path, {}, {{0, 1}}, "added edge (0,1) already present");
  expectCheckMentions(path, {}, {{2, 1}}, "added edge (1,2) already present");
  expectCheckMentions(path, {}, {{0, 4}, {4, 0}},
                      "added edge (0,4) already present");
  // Removing an edge and adding it back in the same delta is fine.
  const GraphPtr same = path->applyDelta({{{1, 2}}}, {{{1, 2}}});
  EXPECT_TRUE(std::equal(same->edges().begin(), same->edges().end(),
                         path->edges().begin(), path->edges().end()));
}

TEST(PatchEdgeList, ReportsFirstUnplacedRemovalAndLeavesListAlone) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 1}};
  const std::vector<Edge> before = edges;
  const std::vector<Edge> removed = {{0, 1}, {2, 3}, {0, 1}, {0, 1}};
  EXPECT_EQ(patchEdgeList(edges, removed, {}), std::optional<std::size_t>(1));
  EXPECT_TRUE(edges == before);
  const std::vector<Edge> thrice = {{0, 1}, {0, 1}, {0, 1}};
  EXPECT_EQ(patchEdgeList(edges, thrice, {}), std::optional<std::size_t>(2));
  EXPECT_TRUE(edges == before);
  EXPECT_EQ(patchEdgeList(edges, {}, {}), std::nullopt);
  EXPECT_TRUE(edges == before);
}

// Several threads race on the first neighbors()/connected() call of the
// same cold graphs; every thread must see the reference adjacency and
// count.  Each thread walks the graphs from a different start, so builds of
// different graphs also overlap on different threads (any scratch the
// builders share across graphs would be corrupted or flagged by TSan).  Run
// once with an order the marking proof finishes and once with an order
// that falls back to union-find.
void raceOnColdGraphs(NodeId n, const std::vector<Edge>& edges) {
  const auto adj = referenceNeighbors(n, edges);
  const int components = referenceComponents(n, edges);
  constexpr int kGraphs = 4;
  std::vector<GraphPtr> graphs;
  for (int i = 0; i < kGraphs; ++i) {
    graphs.push_back(std::make_shared<const Graph>(n, edges));
  }
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int& bad = mismatches[static_cast<std::size_t>(t)];
      start.arrive_and_wait();
      for (int i = 0; i < kGraphs; ++i) {
        const Graph& g = *graphs[static_cast<std::size_t>((t + i) % kGraphs)];
        // Half the threads touch connectivity first, half adjacency first.
        if (t % 2 == 0 && g.connected() != (components == 1)) {
          ++bad;
        }
        for (NodeId v = 0; v < n; ++v) {
          const auto ns = g.neighbors(v);
          const auto& want = adj[static_cast<std::size_t>(v)];
          if (!std::equal(ns.begin(), ns.end(), want.begin(), want.end())) {
            ++bad;
          }
        }
        if (g.componentCount() != components) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  for (const GraphPtr& g : graphs) {
    EXPECT_TRUE(g->warmed());
  }
}

TEST(GraphConcurrency, ColdGraphAttachOrder) {
  std::mt19937 rng(16);
  for (int round = 0; round < 20; ++round) {
    raceOnColdGraphs(2000, attachOrderTree(2000, rng));
  }
}

TEST(GraphConcurrency, ColdGraphUnionFindFallback) {
  for (int round = 0; round < 20; ++round) {
    raceOnColdGraphs(2000, stalledPathOrder(2000));
  }
}

TopologySeq repeat(GraphPtr g, int rounds) {
  return TopologySeq(static_cast<std::size_t>(rounds), std::move(g));
}

TEST(Diameter, StaticPath) {
  // A static path of n nodes has dynamic diameter n-1.
  for (const NodeId n : {2, 5, 9}) {
    const auto topo = repeat(makePath(n), n + 2);
    EXPECT_EQ(allSourcesEccentricity(topo, 0), n - 1) << "n=" << n;
  }
}

TEST(Diameter, StaticStarIsTwo) {
  const auto topo = repeat(makeStar(8), 5);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 2);
}

TEST(Diameter, StaticCliqueIsOne) {
  const auto topo = repeat(makeClique(6), 3);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 1);
}

TEST(Diameter, SingleNodeIsZero) {
  const auto topo = repeat(std::make_shared<Graph>(1, std::vector<Edge>{}), 2);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 0);
}

TEST(Diameter, HorizonTooShortReturnsMinusOne) {
  const auto topo = repeat(makePath(10), 3);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), -1);
  EXPECT_EQ(causalEccentricity(topo, 0, 0), -1);
}

TEST(Diameter, RotatingStarIsActuallySlow) {
  // Counter-intuitive but correct: a star whose center moves every round
  // has causal diameter Θ(n), NOT 2.  The old center loses its adjacency
  // before it can forward, so influence crawls along the center schedule
  // (or waits for the source's own center turn).
  TopologySeq topo;
  const NodeId n = 9;
  for (int r = 0; r < 3 * n; ++r) {
    topo.push_back(makeStar(n, static_cast<NodeId>(r % n)));
  }
  const int ecc = allSourcesEccentricity(topo, 0);
  EXPECT_GE(ecc, n - 1);
  EXPECT_LE(ecc, n + 1);
}

TEST(Diameter, AnchoredStarStaysConstant) {
  // With a permanent hub the dynamic diameter is 2 despite per-round churn.
  TopologySeq topo;
  const NodeId n = 9;
  for (int r = 0; r < 6; ++r) {
    topo.push_back(makeStar(n, 0));
  }
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 2);
}

TEST(Diameter, CausalEccentricityMatchesAllSources) {
  const auto topo = repeat(makePath(7), 10);
  int worst = 0;
  for (NodeId v = 0; v < 7; ++v) {
    worst = std::max(worst, causalEccentricity(topo, v, 0));
  }
  EXPECT_EQ(worst, allSourcesEccentricity(topo, 0));
}

TEST(Diameter, DynamicDiameterOverStartRounds) {
  // Path for 12 rounds, then clique: starting late is faster, so the
  // diameter over all starts is governed by the earliest start.
  TopologySeq topo;
  for (int r = 0; r < 12; ++r) {
    topo.push_back(makePath(6));
  }
  for (int r = 0; r < 12; ++r) {
    topo.push_back(makeClique(6));
  }
  EXPECT_EQ(dynamicDiameter(topo, 3), 5);
  EXPECT_EQ(allSourcesEccentricity(topo, 12), 1);
}

TEST(Diameter, TimeDependentEdgeWave) {
  // Edge i–(i+1) exists only in round i+1.  Influence from node 0 rides the
  // wave and covers the path in n-1 rounds; node n-1's influence can never
  // reach node 0 (its edges lie in the past), so its eccentricity is -1
  // within the horizon.
  const NodeId n = 5;
  TopologySeq topo;
  for (int r = 1; r <= 2 * n; ++r) {
    std::vector<Edge> edges;
    if (r <= n - 1) {
      edges.push_back({static_cast<NodeId>(r - 1), static_cast<NodeId>(r)});
    } else {
      edges.push_back({0, 1});  // keep the graph non-empty
    }
    topo.push_back(std::make_shared<Graph>(n, std::move(edges)));
  }
  EXPECT_EQ(causalEccentricity(topo, 0, 0), n - 1);
  EXPECT_EQ(causalEccentricity(topo, n - 1, 0), -1);
}

TEST(CausalReach, BudgetRespected) {
  const auto topo = repeat(makePath(8), 10);
  const auto bits = causalReach(topo, 0, 0, 3);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(bitmapTest(bits, v), v <= 3) << "v=" << v;
  }
}

TEST(CausalReach, StartRoundOffset) {
  // Clique in round 1, then empty-ish path: starting at round 1 (0-based
  // start_round=1) sees only the later graphs.
  TopologySeq topo;
  topo.push_back(makeClique(4));
  topo.push_back(makePath(4));
  topo.push_back(makePath(4));
  const auto from0 = causalReach(topo, 0, 0, 1);
  EXPECT_TRUE(bitmapTest(from0, 3));
  const auto from1 = causalReach(topo, 0, 1, 1);
  EXPECT_FALSE(bitmapTest(from1, 3));
  EXPECT_TRUE(bitmapTest(from1, 1));
}

}  // namespace
}  // namespace dynet::net
