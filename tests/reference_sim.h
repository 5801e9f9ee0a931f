// A deliberately naive reference simulator: the oracle the engine's
// optimized round loop is checked against (tests/fuzz_diff_test.cpp, the
// golden corpus) and nothing else.
//
// It implements the model's round rule (docs/MODEL.md) the slow, obvious
// way and shares none of the engine's round machinery:
//   * object processes built from the factory, never an SoA model;
//   * a fresh adversary->topology() call every round, never the
//     topologyUpdate delta path;
//   * per-round adjacency rebuilt from the graph's edge list, and each
//     receiver's sending neighbors collected and sorted, instead of walking
//     the CSR rows;
//   * fresh vectors for every round's actions, masks and inboxes.
// The semantics match sim::Engine exactly: message budget, fault
// injection (crash, restart, drop, corrupt), anonymous ports, duplex
// delivery and stop_when_all_done.  EngineConfig's recording, metrics and
// worker-count fields are ignored: the reference always records the full
// trace and has no sink.  tests/reference_sim_test.cpp pins the reference
// itself on hand-checked executions, so it is not merely a copy of the
// engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_injector.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/process.h"
#include "sim/trace.h"

namespace dynet::ref {

struct ReferenceRun {
  sim::RunResult result;
  /// Final per-node state machines (restarted nodes hold their fresh one).
  std::vector<std::unique_ptr<sim::Process>> processes;
  /// processes[v]->stateDigest() at the end of the run.
  std::vector<std::uint64_t> digests;
  /// Every executed round's topology and actions.
  sim::Trace trace;
};

/// factory.create(v, n) for every node, in node order.
std::vector<std::unique_ptr<sim::Process>> createProcesses(
    const sim::ProcessFactory& factory, sim::NodeId n);

/// Runs the model with `seed` feeding the per-(node, round) coin streams,
/// exactly as sim::Engine(factory, adversary, config, seed) with
/// `injector` attached (may be null) would.
ReferenceRun runReference(
    const sim::ProcessFactory& factory,
    std::unique_ptr<sim::Adversary> adversary, const sim::EngineConfig& config,
    std::uint64_t seed,
    std::shared_ptr<const faults::FaultInjector> injector = nullptr);

}  // namespace dynet::ref
