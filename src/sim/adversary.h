// Adversary interface: fixes each round's topology.
//
// Per the model, the adversary acts *after* this round's coins are flipped;
// since actions are a deterministic function of state and coins, the engine
// passes the already-decided actions to the adversary.  Oblivious
// adversaries simply ignore them.
#pragma once

#include <span>

#include "net/graph.h"
#include "sim/process.h"

namespace dynet::sim {

struct RoundObservation {
  /// Actions every node decided for the current round.
  std::span<const Action> actions;
};

/// Result of the incremental topology protocol (topologyUpdate below).
struct TopologyUpdate {
  net::GraphPtr graph;
  /// True when `graph` was derived from the previous round's topology —
  /// the same GraphPtr reused, or a Graph::applyDelta patch — rather than
  /// built from scratch.  Feeds the topology/incremental_rounds metric.
  bool is_delta = false;
  // Best-effort delta size (0 for a same-graph reuse); observability only.
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Topology of `round` (1-based).  Must contain exactly numNodes() nodes
  /// and, per the model, be connected (the engine checks).
  virtual net::GraphPtr topology(Round round, const RoundObservation& obs) = 0;

  /// Incremental variant, offered first by the engine every round: fill
  /// `out` for `round` given `prev`, the graph this adversary returned for
  /// round - 1 (null in round 1).  Return false (the default) when there
  /// is no incremental path — the engine then falls back to topology().
  /// Contract: out.graph must be value-identical (same node count, same
  /// edges() sequence) to what topology() would have returned for the
  /// same round and observation (tests/fuzz_diff_test.cpp pins this for
  /// the zoo against a reference simulator that only calls topology()).
  virtual bool topologyUpdate(Round round, const RoundObservation& obs,
                              const net::GraphPtr& prev, TopologyUpdate& out) {
    (void)round;
    (void)obs;
    (void)prev;
    (void)out;
    return false;
  }

  virtual NodeId numNodes() const = 0;
};

}  // namespace dynet::sim
