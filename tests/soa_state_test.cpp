// Structure-of-arrays state store: differential pins against the object
// path (PR: SoA state + many-worlds lanes).
//
// Four layers of evidence that the SoA state store (the factory
// constructor's default where a protocol has a model) changes HOW the
// engine executes a round, never WHAT it computes.  The object leg is the
// process-vector constructor:
//
//   * per-round lockstep: object and SoA engines stepped side by side must
//     agree on every node's stateDigest / done / output after EVERY round,
//     across the protocol x adversary grid — a much tighter pin than
//     end-of-run equality (a transient divergence that happens to
//     re-converge would still fail here).  The grid includes LEADERELECT on
//     sim::ProcessArrayModel, run across every stage boundary, so the done
//     byte it refreshes after delivery is compared every round;
//   * crash masks: the same lockstep under crash + restart fault plans,
//     so FaultPhase's liveness bookkeeping (including SoAModel::resetNode
//     on restart) is compared round by round, plus full fault accounting;
//   * fast paths: the no-liveness-fault FaultPhase skip (zero plans and
//     drop/corrupt-only plans) and the strided node_threads worker loop
//     must be byte-identical to their general/serial counterparts — the
//     strided case is the designated TSan target (.github/workflows/ci.yml
//     runs this binary with DYNET_THREADS=4 under -fsanitize=thread);
//   * many-worlds lanes: each of the 64 bit-packed flood trials of
//     protocols/manyworlds.h must reproduce its scalar engine run bit for
//     bit — RunResult, per-node token state, state digests — including a
//     partial final lane group, and BatchRunner::runLanes must merge lane
//     metrics into exactly the TrialSummary of the scalar BatchRunner::run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "protocols/flood.h"
#include "protocols/consensus_via_leader.h"
#include "protocols/gossip.h"
#include "protocols/leader_unknown_d.h"
#include "protocols/manyworlds.h"
#include "protocols/max_flood.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "sim/workspace.h"
#include "util/check.h"
#include "util/rng.h"
#include "reference_sim.h"

namespace dynet::sim {
namespace {

// Protocol kinds: 0 flood-det, 1 flood-rand, 2 max_flood, 3 gossip (column
// models), 4 leader_unknown_d and 5 consensus_unknown_d (both
// sim::ProcessArrayModel over LeaderElectProcess).
constexpr int kProtocolKinds = 6;
constexpr int kLeaderProtocol = 4;

/// LEADERELECT (and CONSENSUS via it) at lockstep size: N' = n, k = 4,
/// gamma = 1.
proto::LeaderConfig leaderConfig(NodeId n) {
  proto::LeaderConfig config;
  config.n_estimate = static_cast<double>(n);
  config.k = 4;
  config.gamma = 1;
  return config;
}

/// Round count for a lockstep run: the LEADERELECT kinds get enough rounds
/// to cross A→B→C→D→A (phase 0 and into phase 1's stage A); the rest keep
/// `rounds`.
Round lockstepRounds(int kind, NodeId n, Round rounds) {
  if (kind < kLeaderProtocol) {
    return rounds;
  }
  return std::max<Round>(
      rounds, proto::LeaderSchedule(leaderConfig(n)).phaseStart(1) + 8);
}

std::unique_ptr<ProcessFactory> makeProtocol(int kind, NodeId n,
                                             Round rounds) {
  switch (kind) {
    case 0:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kDeterministic, rounds / 2);
    case 1:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kRandomized, rounds / 2);
    case 2: {
      std::vector<std::uint64_t> values;
      for (NodeId v = 0; v < n; ++v) {
        values.push_back(static_cast<std::uint64_t>((v * 37 + 11) % 100));
      }
      return std::make_unique<proto::MaxFloodFactory>(std::move(values), 8,
                                                      rounds);
    }
    case 3:
      return std::make_unique<proto::GossipFactory>(/*total_tokens=*/6,
                                                    rounds);
    case kLeaderProtocol:
      return std::make_unique<proto::LeaderElectFactory>(leaderConfig(n),
                                                         /*master_seed=*/0x1E);
    default: {
      std::vector<std::uint64_t> inputs;
      for (NodeId v = 0; v < n; ++v) {
        inputs.push_back(static_cast<std::uint64_t>(v % 2));
      }
      return std::make_unique<proto::ConsensusViaLeaderFactory>(
          leaderConfig(n), /*master_seed=*/0x1E, std::move(inputs));
    }
  }
}

std::unique_ptr<Adversary> makeAdversary(int kind, NodeId n,
                                         std::uint64_t seed) {
  switch (kind) {
    case 0:
      return std::make_unique<adv::RotatingStarAdversary>(n);
    case 1:
      return std::make_unique<adv::EdgeChurnAdversary>(n, 2, seed);
    default:
      return std::make_unique<adv::RandomGraphAdversary>(n, 0.4, seed);
  }
}

void expectSameResult(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << what;
  EXPECT_EQ(a.all_done, b.all_done) << what;
  EXPECT_EQ(a.all_done_round, b.all_done_round) << what;
  EXPECT_EQ(a.done_round, b.done_round) << what;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << what;
  EXPECT_EQ(a.bits_sent, b.bits_sent) << what;
  EXPECT_EQ(a.bits_per_node, b.bits_per_node) << what;
  EXPECT_EQ(a.max_bits_per_node, b.max_bits_per_node) << what;
  EXPECT_EQ(a.bits_per_round, b.bits_per_round) << what;
  EXPECT_EQ(a.crashes, b.crashes) << what;
  EXPECT_EQ(a.restarts, b.restarts) << what;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << what;
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted) << what;
}

struct LockstepSpec {
  NodeId n = 14;
  Round rounds = 40;
  int protocol = 0;
  int adversary = 0;
  std::uint64_t seed = 0;
  const faults::FaultConfig* fc = nullptr;
  int node_threads = 1;
};

/// Steps an object engine and an SoA engine through the same run, failing
/// on the first round where any node's digest / done / output diverges.
void runLockstep(const LockstepSpec& s) {
  const std::unique_ptr<ProcessFactory> factory =
      makeProtocol(s.protocol, s.n, s.rounds);
  EngineConfig object_cfg;
  object_cfg.max_rounds = s.rounds;
  object_cfg.stop_when_all_done = false;
  object_cfg.check_connectivity = false;
  EngineConfig soa_cfg = object_cfg;
  soa_cfg.node_threads = s.node_threads;

  Engine object_engine(ref::createProcesses(*factory, s.n),
                       makeAdversary(s.adversary, s.n, s.seed), object_cfg,
                       s.seed);
  Engine soa_engine(*factory, makeAdversary(s.adversary, s.n, s.seed),
                    soa_cfg, s.seed);
  ASSERT_FALSE(object_engine.soaActive());
  ASSERT_TRUE(soa_engine.soaActive())
      << "protocol " << s.protocol << " lacks an SoA model";
  if (s.fc != nullptr) {
    const faults::FaultPlan plan(s.n, *s.fc, s.seed ^ 0xFA);
    object_engine.setFaultInjector(
        std::make_shared<const faults::FaultInjector>(plan, factory.get()));
    soa_engine.setFaultInjector(
        std::make_shared<const faults::FaultInjector>(plan, factory.get()));
  }
  for (Round r = 1; r <= s.rounds; ++r) {
    ASSERT_TRUE(object_engine.step());
    ASSERT_TRUE(soa_engine.step());
    for (NodeId v = 0; v < s.n; ++v) {
      ASSERT_EQ(object_engine.stateDigest(v), soa_engine.stateDigest(v))
          << "round " << r << " node " << v << " protocol " << s.protocol
          << " adversary " << s.adversary << " seed " << s.seed;
      ASSERT_EQ(object_engine.nodeDone(v), soa_engine.nodeDone(v))
          << "round " << r << " node " << v;
      ASSERT_EQ(object_engine.nodeOutput(v), soa_engine.nodeOutput(v))
          << "round " << r << " node " << v;
    }
    ASSERT_EQ(object_engine.allDone(), soa_engine.allDone()) << "round " << r;
  }
  expectSameResult(object_engine.result(), soa_engine.result(),
                   "protocol " + std::to_string(s.protocol) + " adversary " +
                       std::to_string(s.adversary));
}

TEST(SoAState, PerRoundDigestLockstepAcrossProtocolsAndAdversaries) {
  for (int protocol = 0; protocol < kProtocolKinds; ++protocol) {
    for (int adversary = 0; adversary < 3; ++adversary) {
      for (std::uint64_t seed : {0x51ull, 0x52ull}) {
        LockstepSpec s;
        s.protocol = protocol;
        s.rounds = lockstepRounds(protocol, s.n, s.rounds);
        s.adversary = adversary;
        s.seed = seed;
        runLockstep(s);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST(SoAState, CrashMasksConsistentUnderFaultPlans) {
  faults::FaultConfig fc;
  fc.crash_fraction = 0.3;
  fc.crash_window = 16;
  fc.restart = true;
  fc.restart_downtime = 6;
  fc.drop_prob = 0.15;
  fc.corrupt_prob = 0.1;
  // MaxFlood decodes arbitrary payloads, so mangled deliveries may arrive.
  fc.deliver_corrupted = true;
  for (int adversary = 0; adversary < 3; ++adversary) {
    for (std::uint64_t seed : {0x61ull, 0x62ull, 0x63ull}) {
      LockstepSpec s;
      s.protocol = 2;  // max_flood
      s.adversary = adversary;
      s.seed = seed;
      s.fc = &fc;
      runLockstep(s);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  // Gossip under crash/restart (but pristine payloads): exercises
  // SoAModel::resetNode's re-seeding of the held-token bitset.
  faults::FaultConfig crash_only = fc;
  crash_only.drop_prob = 0;
  crash_only.corrupt_prob = 0;
  crash_only.deliver_corrupted = false;
  LockstepSpec s;
  s.protocol = 3;
  s.adversary = 1;
  s.seed = 0x64;
  s.fc = &crash_only;
  runLockstep(s);
  if (HasFatalFailure()) {
    return;
  }
  // LEADERELECT under crash/restart and drops: sim::ProcessArrayModel
  // rebuilds a restarted node from the factory and refreshes its done byte.
  // Mangled payloads stay off: a corrupted tag reads past its message.
  faults::FaultConfig leader_faults = crash_only;
  leader_faults.drop_prob = 0.15;
  for (int adversary = 0; adversary < 3; ++adversary) {
    LockstepSpec leader;
    leader.protocol = kLeaderProtocol;
    leader.rounds = lockstepRounds(kLeaderProtocol, leader.n, leader.rounds);
    leader.adversary = adversary;
    leader.seed = 0x65;
    leader.fc = &leader_faults;
    runLockstep(leader);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Satellite pin: FaultPhase skips the per-trial liveness-mask re-init when
// the plan cannot affect liveness.  A zero plan and a drop/corrupt-only
// plan must both stay byte-identical to the general path — and the zero
// plan must match a run with no injector at all.
TEST(SoAState, NoLivenessFaultPlansAreByteIdentical) {
  const NodeId n = 14;
  const Round rounds = 40;
  const std::unique_ptr<ProcessFactory> factory = makeProtocol(2, n, rounds);
  const auto run = [&](const faults::FaultConfig* fc, bool soa) {
    EngineConfig cfg;
    cfg.max_rounds = rounds;
    cfg.stop_when_all_done = false;
    cfg.check_connectivity = false;
    auto engine_ptr =
        soa ? std::make_unique<Engine>(*factory, makeAdversary(1, n, 0x71),
                                       cfg, 0x71)
            : std::make_unique<Engine>(ref::createProcesses(*factory, n),
                                       makeAdversary(1, n, 0x71), cfg, 0x71);
    Engine& engine = *engine_ptr;
    if (fc != nullptr) {
      engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
          faults::FaultPlan(n, *fc, 0x71 ^ 0xFA), factory.get()));
    }
    RunResult result = engine.run();
    std::vector<std::uint64_t> digests;
    for (NodeId v = 0; v < n; ++v) {
      digests.push_back(engine.stateDigest(v));
    }
    return std::make_pair(std::move(result), std::move(digests));
  };

  const faults::FaultConfig zero_plan;  // all-zero: no faults at all
  faults::FaultConfig drop_only;
  drop_only.drop_prob = 0.2;
  drop_only.corrupt_prob = 0.1;
  drop_only.deliver_corrupted = true;

  const auto clean = run(nullptr, true);
  for (const bool soa : {false, true}) {
    const auto zero = run(&zero_plan, soa);
    expectSameResult(clean.first, zero.first, "zero plan soa=" +
                                                  std::to_string(soa));
    EXPECT_EQ(clean.second, zero.second) << "zero plan soa=" << soa;
  }
  // Drop-only plans take the mask-skip path yet still drop messages; the
  // object and SoA engines must agree exactly.
  const auto drop_object = run(&drop_only, false);
  const auto drop_soa = run(&drop_only, true);
  expectSameResult(drop_object.first, drop_soa.first, "drop-only plan");
  EXPECT_EQ(drop_object.second, drop_soa.second) << "drop-only plan";
  EXPECT_GT(drop_soa.first.messages_dropped, 0u)
      << "drop-only plan dropped nothing — the regression pin is vacuous";
}

// The strided worker loop (node_threads > 1) must be byte-identical to the
// serial loop.  CI runs this test under TSan to race-check the stride.
TEST(SoAState, StridedWorkersMatchSerial) {
  for (int protocol = 0; protocol < kProtocolKinds; ++protocol) {
    for (const int node_threads : {4, 0}) {
      LockstepSpec s;
      s.n = 48;
      s.protocol = protocol;
      s.rounds = lockstepRounds(protocol, s.n, s.rounds);
      s.adversary = 2;
      s.seed = 0x81;
      s.node_threads = node_threads;  // object leg stays serial
      runLockstep(s);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// sim::ProcessArrayModel keeps its objects in the workspace's SoAStore:
// Engine::process reaches them (a column model has none), and an engine
// destroyed after a later engine re-bound the same workspace leaves the
// later engine's objects alone.
TEST(ProcessArray, ObjectsReachableAndSharedWorkspaceSafe) {
  const NodeId n = 14;
  const Round rounds = lockstepRounds(kLeaderProtocol, n, 40);
  const std::unique_ptr<ProcessFactory> factory =
      makeProtocol(kLeaderProtocol, n, rounds);
  EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.stop_when_all_done = false;
  cfg.check_connectivity = false;
  Engine fresh(*factory, makeAdversary(1, n, 0x91), cfg, 0x91);
  fresh.run();

  EngineWorkspace ws;
  auto older = std::make_unique<Engine>(*factory, makeAdversary(1, n, 0x92),
                                        cfg, 0x92, &ws);
  older->run();
  Engine later(*factory, makeAdversary(1, n, 0x91), cfg, 0x91, &ws);
  older.reset();
  later.run();
  ASSERT_TRUE(later.soaActive());
  for (NodeId v = 0; v < n; ++v) {
    const auto* p =
        dynamic_cast<const proto::LeaderElectProcess*>(&later.process(v));
    ASSERT_NE(p, nullptr) << "node " << v;
    EXPECT_EQ(p->stateDigest(), fresh.stateDigest(v)) << "node " << v;
    EXPECT_EQ(later.stateDigest(v), fresh.stateDigest(v)) << "node " << v;
  }

  const std::unique_ptr<ProcessFactory> columns = makeProtocol(2, n, 40);
  Engine column_engine(*columns, makeAdversary(1, n, 0x93), cfg, 0x93);
  ASSERT_TRUE(column_engine.soaActive());
  EXPECT_THROW(column_engine.process(0), util::CheckError);
}

// ------------------------------------------------------- many-worlds lanes

net::TopologySeq rotatingStarCycle(NodeId n) {
  net::TopologySeq cycle;
  for (NodeId c = 0; c < n; ++c) {
    cycle.push_back(net::makeStar(n, c));
  }
  return cycle;
}

struct ScalarFloodRun {
  RunResult result;
  std::vector<char> has_token;
  std::vector<Round> token_round;
};

ScalarFloodRun runScalarFlood(const proto::ManyWorldsFloodSpec& spec,
                              const net::TopologySeq& cycle,
                              std::uint64_t seed) {
  proto::FloodFactory factory(spec.source, spec.token, spec.token_bits,
                              spec.mode, spec.halt_round);
  EngineConfig cfg;
  cfg.max_rounds = spec.max_rounds;
  cfg.stop_when_all_done = spec.stop_when_all_done;
  // The reference leg is the classic object engine.
  Engine engine(ref::createProcesses(factory, spec.num_nodes),
                std::make_unique<adv::PeriodicAdversary>(cycle), cfg, seed);
  ScalarFloodRun run;
  run.result = engine.run();
  for (NodeId v = 0; v < spec.num_nodes; ++v) {
    const auto& p =
        dynamic_cast<const proto::FloodProcess&>(engine.process(v));
    run.has_token.push_back(p.hasToken() ? 1 : 0);
    run.token_round.push_back(p.tokenRound());
  }
  return run;
}

TEST(ManyWorlds, LaneMatchesScalarEngineBitForBit) {
  proto::ManyWorldsFloodSpec spec;
  spec.num_nodes = 12;
  spec.source = 0;
  spec.token = 0x2a;
  spec.token_bits = 8;
  spec.mode = proto::FloodMode::kRandomized;
  spec.halt_round = 24;
  spec.max_rounds = 24;
  const net::TopologySeq cycle = rotatingStarCycle(spec.num_nodes);
  const std::uint64_t base_seed = 0xBEEF;

  // 96 trials in groups of 64: one full lane word plus a 32-lane partial
  // group, exercising the sub-word mask path.
  constexpr int kTrials = 96;
  std::size_t first = 0;
  while (first < kTrials) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(64, kTrials - first));
    const std::vector<proto::ManyWorldsLane> group =
        proto::runManyWorldsFlood(spec, cycle, base_seed, first, lanes);
    ASSERT_EQ(group.size(), static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const std::uint64_t seed =
          util::hashCombine(base_seed, first + static_cast<std::size_t>(l));
      const ScalarFloodRun scalar = runScalarFlood(spec, cycle, seed);
      const proto::ManyWorldsLane& lane = group[static_cast<std::size_t>(l)];
      expectSameResult(scalar.result, lane.result,
                       "trial " + std::to_string(first + l));
      EXPECT_EQ(scalar.has_token, lane.has_token)
          << "trial " << first + l;
      EXPECT_EQ(scalar.token_round, lane.token_round)
          << "trial " << first + l;
      // Digest-level equivalence via the shared floodStateDigest helper.
      for (NodeId v = 0; v < spec.num_nodes; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        EXPECT_EQ(proto::floodStateDigest(v, scalar.has_token[vi] != 0,
                                          scalar.token_round[vi]),
                  proto::floodStateDigest(v, lane.has_token[vi] != 0,
                                          lane.token_round[vi]))
            << "trial " << first + l << " node " << v;
      }
      if (HasFailure()) {
        return;
      }
    }
    first += static_cast<std::size_t>(lanes);
  }
}

TEST(ManyWorlds, RunLanesSummaryMatchesScalarBatch) {
  proto::ManyWorldsFloodSpec spec;
  spec.num_nodes = 10;
  spec.source = 0;
  spec.token = 0x2a;
  spec.token_bits = 8;
  spec.mode = proto::FloodMode::kRandomized;
  spec.halt_round = 20;
  spec.max_rounds = 20;
  const net::TopologySeq cycle = rotatingStarCycle(spec.num_nodes);
  const std::uint64_t base_seed = 0xCAFE;
  constexpr int kTrials = 96;  // partial final lane group

  BatchOptions options;
  options.threads = 1;
  BatchRunner scalar_runner(options);
  const MetricId m_msgs = scalar_runner.metricId("messages_sent");
  const MetricId m_reached = scalar_runner.metricId("nodes_reached");
  TrialSamples scalar_samples;
  scalar_runner.run(
      kTrials, base_seed,
      [&](std::uint64_t seed, EngineWorkspace& /*ws*/, TrialRecorder& rec) {
        const ScalarFloodRun run = runScalarFlood(spec, cycle, seed);
        rec.set(m_msgs, static_cast<double>(run.result.messages_sent));
        double reached = 0;
        for (const char h : run.has_token) {
          reached += h != 0 ? 1 : 0;
        }
        rec.set(m_reached, reached);
      },
      &scalar_samples);

  BatchRunner lane_runner(options);
  const MetricId l_msgs = lane_runner.metricId("messages_sent");
  const MetricId l_reached = lane_runner.metricId("nodes_reached");
  TrialSamples lane_samples;
  lane_runner.runLanes(
      kTrials, /*lane_width=*/64,
      [&](std::size_t first_trial, int lanes, LaneRecorder& rec) {
        const std::vector<proto::ManyWorldsLane> group =
            proto::runManyWorldsFlood(spec, cycle, base_seed, first_trial,
                                      lanes);
        for (int l = 0; l < lanes; ++l) {
          const proto::ManyWorldsLane& lane =
              group[static_cast<std::size_t>(l)];
          rec.set(l, l_msgs,
                  static_cast<double>(lane.result.messages_sent));
          double reached = 0;
          for (const char h : lane.has_token) {
            reached += h != 0 ? 1 : 0;
          }
          rec.set(l, l_reached, reached);
        }
      },
      &lane_samples);

  // Raw per-trial samples (trial order) must agree exactly — the summary
  // then agrees by construction.
  EXPECT_EQ(scalar_samples.metrics, lane_samples.metrics);
}

TEST(ManyWorlds, LaneOccupancy) {
  EXPECT_DOUBLE_EQ(proto::manyWorldsLaneOccupancy(64, 64), 1.0);
  EXPECT_DOUBLE_EQ(proto::manyWorldsLaneOccupancy(128, 64), 1.0);
  EXPECT_DOUBLE_EQ(proto::manyWorldsLaneOccupancy(96, 64), 0.75);
  EXPECT_DOUBLE_EQ(proto::manyWorldsLaneOccupancy(1, 64), 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(proto::manyWorldsLaneOccupancy(10, 10), 10.0 / 64.0);
}

// runLanes records the lane-packing shape under the reserved soa// prefix
// when BatchOptions carries a sink; the occupancy gauge must agree with
// proto::manyWorldsLaneOccupancy so the two definitions cannot drift.
TEST(ManyWorlds, RunLanesEmitsShapeGauges) {
  obs::MetricsSink sink;
  BatchOptions options;
  options.threads = 1;
  options.sink = &sink;
  BatchRunner runner(options);
  const MetricId m = runner.metricId("noop");
  runner.runLanes(/*trials=*/96, /*lane_width=*/64,
                  [&](std::size_t, int lanes, LaneRecorder& rec) {
                    for (int l = 0; l < lanes; ++l) {
                      rec.set(l, m, 0.0);
                    }
                  });
  auto& reg = sink.registry;
  EXPECT_DOUBLE_EQ(reg.gauge("soa//lane_width")->value, 64.0);
  EXPECT_DOUBLE_EQ(reg.gauge("soa//lane_groups")->value, 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("soa//lane_occupancy")->value,
                   proto::manyWorldsLaneOccupancy(96, 64));
}

}  // namespace
}  // namespace dynet::sim
