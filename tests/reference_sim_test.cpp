// Self-tests of the reference simulator (tests/reference_sim.h).
//
// The reference is the oracle for the engine's differential fuzz and the
// golden corpus, so it must be right on its own terms, not merely agree
// with the engine.  Each test below checks it against an execution worked
// out by hand from the model's round rule (docs/MODEL.md), without running
// sim::Engine at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/static_adversaries.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "net/graph.h"
#include "protocols/flood.h"
#include "reference_sim.h"

namespace dynet::ref {
namespace {

using sim::NodeId;
using sim::Round;

/// Sends its own id when `sends(self, round)` holds and records every
/// onDeliver call: the round, the sent flag, and the ids carried by the
/// delivered payloads in delivery order.
class RecorderProcess : public sim::Process {
 public:
  using SendRule = std::function<bool(NodeId, Round)>;
  struct Delivery {
    Round round;
    bool sent;
    std::vector<NodeId> payloads;
  };

  RecorderProcess(NodeId self, SendRule sends)
      : self_(self), sends_(std::move(sends)) {}

  sim::Action onRound(Round round, util::CoinStream& /*coins*/) override {
    sim::Action action;
    if (sends_(self_, round)) {
      action.send = true;
      action.msg = sim::MessageBuilder()
                       .put(static_cast<std::uint64_t>(self_), 16)
                       .build();
    }
    return action;
  }

  void onDeliver(Round round, bool sent,
                 std::span<const sim::Message> received) override {
    Delivery d{round, sent, {}};
    for (const sim::Message& msg : received) {
      sim::MessageReader reader(msg);
      d.payloads.push_back(static_cast<NodeId>(reader.get(16)));
    }
    deliveries.push_back(std::move(d));
  }

  std::vector<Delivery> deliveries;

 private:
  NodeId self_;
  SendRule sends_;
};

class RecorderFactory : public sim::ProcessFactory {
 public:
  explicit RecorderFactory(RecorderProcess::SendRule sends)
      : sends_(std::move(sends)) {}
  std::unique_ptr<sim::Process> create(NodeId node,
                                       NodeId /*num_nodes*/) const override {
    return std::make_unique<RecorderProcess>(node, sends_);
  }

 private:
  RecorderProcess::SendRule sends_;
};

const RecorderProcess& recorder(const ReferenceRun& run, NodeId v) {
  return dynamic_cast<const RecorderProcess&>(
      *run.processes[static_cast<std::size_t>(v)]);
}

sim::EngineConfig fixedRounds(Round rounds) {
  sim::EngineConfig config;
  config.max_rounds = rounds;
  config.stop_when_all_done = false;
  return config;
}

// Deterministic flood on the path 0-1-2-3-4 from node 0: holders always
// send and non-holders always receive, so node k hears node k-1 in round k
// and nobody earlier.  Round r has min(r, 5) holders sending 8 bits each.
TEST(ReferenceSim, DeterministicFloodOnPathReachesNodeKInRoundK) {
  const proto::FloodFactory factory(0, 0x2a, 8,
                                    proto::FloodMode::kDeterministic, 0);
  const ReferenceRun run = runReference(
      factory, std::make_unique<adv::StaticAdversary>(net::makePath(5)),
      fixedRounds(8), /*seed=*/1);
  for (NodeId k = 0; k < 5; ++k) {
    const auto& p = dynamic_cast<const proto::FloodProcess&>(
        *run.processes[static_cast<std::size_t>(k)]);
    EXPECT_TRUE(p.hasToken()) << "node " << k;
    EXPECT_EQ(p.tokenRound(), k) << "node " << k;
  }
  EXPECT_EQ(run.result.messages_sent, 1u + 2 + 3 + 4 + 5 + 5 + 5 + 5);
  EXPECT_EQ(run.result.bits_sent, 8 * run.result.messages_sent);
  EXPECT_EQ(run.result.bits_per_round,
            (std::vector<std::uint64_t>{8, 16, 24, 32, 40, 40, 40, 40}));
  EXPECT_EQ(run.result.rounds_executed, 8);
  EXPECT_EQ(run.trace.rounds(), 8);
}

// Everyone sends every round on the path 0-1-2.  Send-xor-receive: every
// node hears nothing.  Duplex: every node also hears its neighbors, in
// ascending sender order, with sent=true.
TEST(ReferenceSim, DuplexSenderHearsItsSendingNeighbors) {
  const RecorderFactory factory([](NodeId, Round) { return true; });
  for (const bool duplex : {false, true}) {
    sim::EngineConfig config = fixedRounds(2);
    config.duplex = duplex;
    const ReferenceRun run = runReference(
        factory, std::make_unique<adv::StaticAdversary>(net::makePath(3)),
        config, /*seed=*/2);
    const std::vector<std::vector<NodeId>> expected =
        duplex ? std::vector<std::vector<NodeId>>{{1}, {0, 2}, {1}}
               : std::vector<std::vector<NodeId>>{{}, {}, {}};
    for (NodeId v = 0; v < 3; ++v) {
      const auto& deliveries = recorder(run, v).deliveries;
      ASSERT_EQ(deliveries.size(), 2u) << "node " << v;
      for (const auto& d : deliveries) {
        EXPECT_TRUE(d.sent);
        EXPECT_EQ(d.payloads, expected[static_cast<std::size_t>(v)])
            << "node " << v << " round " << d.round << " duplex=" << duplex;
      }
    }
  }
}

// Node 2 crashes in round 3 and restarts in round 6: it gets no onDeliver
// in rounds 3..5, and its restarted state machine only sees rounds 6..8.
// Node 1 keeps hearing its neighbors, minus node 2 while it is down.
TEST(ReferenceSim, CrashedReceiverGetsNoDelivery) {
  // Nodes 0 and 2 always send, node 1 always receives.
  const RecorderFactory factory([](NodeId v, Round) { return v != 1; });
  faults::FaultConfig fc;
  fc.scripted_crashes = {{2, 3}};
  fc.scripted_restarts = {{2, 6}};
  const auto injector = std::make_shared<const faults::FaultInjector>(
      faults::FaultPlan(3, fc, 7), &factory);
  const ReferenceRun run = runReference(
      factory, std::make_unique<adv::StaticAdversary>(net::makeClique(3)),
      fixedRounds(8), /*seed=*/3, injector);
  EXPECT_EQ(run.result.crashes, 1u);
  EXPECT_EQ(run.result.restarts, 1u);
  std::vector<Round> rounds;
  for (const auto& d : recorder(run, 2).deliveries) {
    rounds.push_back(d.round);
  }
  EXPECT_EQ(rounds, (std::vector<Round>{6, 7, 8}));
  const auto& heard = recorder(run, 1).deliveries;
  ASSERT_EQ(heard.size(), 8u);
  for (const auto& d : heard) {
    const bool down = d.round >= 3 && d.round < 6;
    const std::vector<NodeId> expected =
        down ? std::vector<NodeId>{0} : std::vector<NodeId>{0, 2};
    EXPECT_EQ(d.payloads, expected) << "round " << d.round;
  }
}

// A drop-only plan: messages_dropped must equal the number of kDrop fates
// over exactly the deliveries the model attempts — every (sending neighbor,
// receiving node) pair of every round — recounted here from the trace.
TEST(ReferenceSim, DropOnlyPlanCountsEveryDropFate) {
  const RecorderFactory factory(
      [](NodeId v, Round r) { return (v * 7 + r * 3) % 5 < 2; });
  const NodeId n = 12;
  faults::FaultConfig fc;
  fc.drop_prob = 0.3;
  const faults::FaultPlan plan(n, fc, 0xD0);
  const ReferenceRun run = runReference(
      factory, std::make_unique<adv::RandomGraphAdversary>(n, 0.4, 5),
      fixedRounds(30), /*seed=*/4,
      std::make_shared<const faults::FaultInjector>(plan, &factory));
  std::uint64_t drops = 0;
  std::uint64_t delivered = 0;
  for (Round r = 1; r <= run.trace.rounds(); ++r) {
    const auto ri = static_cast<std::size_t>(r - 1);
    const auto& actions = run.trace.actions[ri];
    const net::Graph& g = *run.trace.topologies[ri];
    for (const net::Edge& e : g.edges()) {
      for (const auto& [u, v] : {std::pair{e.a, e.b}, std::pair{e.b, e.a}}) {
        if (!actions[static_cast<std::size_t>(u)].send ||
            actions[static_cast<std::size_t>(v)].send) {
          continue;
        }
        const bool dropped =
            plan.deliveryFate(u, v, r) == faults::FaultPlan::Fate::kDrop;
        drops += dropped ? 1 : 0;
        delivered += dropped ? 0 : 1;
      }
    }
  }
  EXPECT_GT(drops, 0u) << "the plan dropped nothing; the check is vacuous";
  EXPECT_EQ(run.result.messages_dropped, drops);
  EXPECT_EQ(run.result.messages_corrupted, 0u);
  std::uint64_t received = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& d : recorder(run, v).deliveries) {
      received += d.payloads.size();
    }
  }
  EXPECT_EQ(received, delivered);
}

// Anonymous mode changes only the order of each inbox: per node and round
// it is a permutation of the plain (ascending-sender) inbox, and at least
// one inbox actually moves.
TEST(ReferenceSim, AnonymousInboxIsAPermutationOfThePlainOne) {
  const RecorderFactory factory(
      [](NodeId v, Round r) { return (v + r) % 2 == 0; });
  const NodeId n = 8;
  const auto runWith = [&](bool anonymous) {
    sim::EngineConfig config = fixedRounds(12);
    config.anonymous = anonymous;
    return runReference(
        factory, std::make_unique<adv::StaticAdversary>(net::makeClique(n)),
        config, /*seed=*/5);
  };
  const ReferenceRun plain = runWith(false);
  const ReferenceRun anon = runWith(true);
  bool permuted = false;
  for (NodeId v = 0; v < n; ++v) {
    const auto& p = recorder(plain, v).deliveries;
    const auto& a = recorder(anon, v).deliveries;
    ASSERT_EQ(p.size(), a.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_TRUE(std::is_sorted(p[i].payloads.begin(), p[i].payloads.end()));
      std::vector<NodeId> sorted = a[i].payloads;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, p[i].payloads)
          << "node " << v << " round " << p[i].round;
      permuted = permuted || a[i].payloads != p[i].payloads;
    }
  }
  EXPECT_TRUE(permuted) << "anonymous mode never reordered an inbox";
}

}  // namespace
}  // namespace dynet::ref
