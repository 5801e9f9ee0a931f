// Tests for graphs, connectivity, and the causal (dynamic) diameter.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <numeric>
#include <random>
#include <thread>
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
