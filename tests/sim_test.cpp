// Engine semantics: round structure, send-xor-receive delivery, budget
// enforcement, connectivity checking, determinism, recording.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "adversary/static_adversaries.h"
#include "net/graph.h"
#include "protocols/max_flood.h"
#include "sim/engine.h"
#include "sim/message.h"
#include "sim/runner.h"
#include "util/check.h"

namespace dynet::sim {
namespace {

/// Scripted process: per round, a fixed send/receive decision and payload;
/// records everything delivered.
class Scripted : public Process {
 public:
  struct Step {
    bool send = false;
    std::uint64_t payload = 0;
  };

  Scripted(NodeId node, std::vector<Step> script, int payload_bits = 16)
      : node_(node), script_(std::move(script)), payload_bits_(payload_bits) {}

  Action onRound(Round round, util::CoinStream& /*coins*/) override {
    const auto& step = script_.at(static_cast<std::size_t>(round - 1));
    Action a;
    if (step.send) {
      a.send = true;
      a.msg = MessageBuilder().put(step.payload, payload_bits_).build();
    }
    return a;
  }

  void onDeliver(Round round, bool sent,
                 std::span<const Message> received) override {
    (void)round;
    sent_flags_.push_back(sent);
    std::vector<std::uint64_t> payloads;
    for (const Message& m : received) {
      MessageReader r(m);
      payloads.push_back(r.get(payload_bits_));
    }
    std::sort(payloads.begin(), payloads.end());
    deliveries_.push_back(payloads);
  }

  const std::vector<std::vector<std::uint64_t>>& deliveries() const {
    return deliveries_;
  }

 private:
  NodeId node_;
  std::vector<Step> script_;
  int payload_bits_;
  std::vector<bool> sent_flags_;
  std::vector<std::vector<std::uint64_t>> deliveries_;
};

std::vector<std::unique_ptr<Process>> scriptedNodes(
    const std::vector<std::vector<Scripted::Step>>& scripts) {
  std::vector<std::unique_ptr<Process>> ps;
  for (std::size_t v = 0; v < scripts.size(); ++v) {
    ps.push_back(std::make_unique<Scripted>(static_cast<NodeId>(v), scripts[v]));
  }
  return ps;
}

TEST(Message, BuildReadEquality) {
  Message a = MessageBuilder().put(5, 4).put(1, 1).build();
  Message b = MessageBuilder().put(5, 4).put(1, 1).build();
  Message c = MessageBuilder().put(5, 4).put(0, 1).build();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.bitSize(), 5);
  EXPECT_NE(a.digest(), c.digest());
  MessageReader r(a);
  EXPECT_EQ(r.get(4), 5u);
  EXPECT_EQ(r.get(1), 1u);
}

TEST(Engine, DeliveryMatrix) {
  // Path 0-1-2.  Round 1: node 0 and node 2 send, node 1 receives.
  // Round 2: node 1 sends, others receive.
  const std::vector<std::vector<Scripted::Step>> scripts = {
      {{true, 100}, {false, 0}},
      {{false, 0}, {true, 200}},
      {{true, 300}, {false, 0}},
  };
  auto ps = scriptedNodes(scripts);
  std::vector<const Scripted*> views;
  for (const auto& p : ps) {
    views.push_back(static_cast<const Scripted*>(p.get()));
  }
  EngineConfig config;
  config.max_rounds = 2;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps), std::make_unique<adv::StaticAdversary>(net::makePath(3)),
                config, 1);
  engine.run();
  // Node 1, round 1: received both 100 and 300.
  EXPECT_EQ(views[1]->deliveries()[0], (std::vector<std::uint64_t>{100, 300}));
  // Senders received nothing in round 1.
  EXPECT_TRUE(views[0]->deliveries()[0].empty());
  EXPECT_TRUE(views[2]->deliveries()[0].empty());
  // Round 2: 0 and 2 each get 200 from node 1.
  EXPECT_EQ(views[0]->deliveries()[1], (std::vector<std::uint64_t>{200}));
  EXPECT_EQ(views[2]->deliveries()[1], (std::vector<std::uint64_t>{200}));
  EXPECT_TRUE(views[1]->deliveries()[1].empty());
  EXPECT_EQ(engine.result().messages_sent, 3u);
  EXPECT_EQ(engine.result().bits_sent, 48u);
}

TEST(Engine, ReceiverWithNoSendingNeighborGetsEmpty) {
  const std::vector<std::vector<Scripted::Step>> scripts = {
      {{false, 0}},
      {{false, 0}},
  };
  auto ps = scriptedNodes(scripts);
  const auto* v0 = static_cast<const Scripted*>(ps[0].get());
  EngineConfig config;
  config.max_rounds = 1;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps), std::make_unique<adv::StaticAdversary>(net::makePath(2)),
                config, 1);
  engine.run();
  EXPECT_TRUE(v0->deliveries()[0].empty());
}

/// The CheckError text `f` throws ("" when it returns normally).
template <typename F>
std::string checkText(F f) {
  try {
    f();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "";
}

/// Sends a well-formed 240-bit message every round (over the default
/// budget, within a raised explicit one).
class WideSender : public Process {
 public:
  Action onRound(Round, util::CoinStream&) override {
    Action a;
    a.send = true;
    MessageBuilder b;
    for (int i = 0; i < 4; ++i) {
      b.put((std::uint64_t{1} << 60) - 1, 60);
    }
    a.msg = b.build();
    return a;
  }
  void onDeliver(Round, bool, std::span<const Message>) override {}
};

// The engine's budget check names the node, round, size and budget.  (The
// message must be well-formed: a value wider than its field would trip
// BitWriter's own check inside onRound before the engine sees it.)
TEST(Engine, BudgetViolationAborts) {
  std::vector<std::unique_ptr<Process>> ps;
  ps.push_back(std::make_unique<WideSender>());
  ps.push_back(std::make_unique<WideSender>());
  EngineConfig config;
  Engine engine(std::move(ps), std::make_unique<adv::StaticAdversary>(net::makePath(2)),
                config, 1);
  const std::string what = checkText([&] { engine.step(); });
  EXPECT_NE(what.find("a.msg.bitSize() <= ctx.budget_bits"), std::string::npos)
      << what;
  EXPECT_NE(what.find("— node 0 round 1 message of 240 bits exceeds budget 72"),
            std::string::npos)
      << what;
}

TEST(Engine, ExplicitBudgetOverridesDefault) {
  // A 240-bit message violates the default N=2 budget (72 bits) but is
  // legal once an explicit msg_budget_bits admits it...
  std::vector<std::unique_ptr<Process>> ps;
  ps.push_back(std::make_unique<WideSender>());
  ps.push_back(std::make_unique<WideSender>());
  EngineConfig config;
  config.msg_budget_bits = 240;
  config.max_rounds = 1;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps), std::make_unique<adv::StaticAdversary>(net::makePath(2)),
                config, 1);
  EXPECT_EQ(engine.budgetBits(), 240);
  engine.run();
  EXPECT_EQ(engine.result().messages_sent, 2u);

  // ...and a tighter explicit budget still aborts the round.
  std::vector<std::unique_ptr<Process>> ps2;
  ps2.push_back(std::make_unique<WideSender>());
  ps2.push_back(std::make_unique<WideSender>());
  EngineConfig tight;
  tight.msg_budget_bits = 239;
  Engine strict(std::move(ps2),
                std::make_unique<adv::StaticAdversary>(net::makePath(2)), tight, 1);
  EXPECT_THROW(strict.step(), util::CheckError);
}

// accountSentAction tests the budget in one branch and raises from an
// out-of-line formatter shared by both engine paths; BudgetViolationAborts
// pins its text on the object path, this test on the SoA path.
TEST(Engine, OverBudgetMessageOnSoAPath) {
  // Max-flood sends key (3 bits at n = 4) + value (8 bits) = 11 bits.
  proto::MaxFloodFactory factory({1, 2, 3, 4}, 8, /*total_rounds=*/20);
  EngineConfig config;
  config.msg_budget_bits = 10;
  Engine engine(factory,
                std::make_unique<adv::StaticAdversary>(net::makePath(4)),
                config, 1);
  ASSERT_TRUE(engine.soaActive());
  const std::string what = checkText([&] { engine.run(); });
  EXPECT_NE(what.find("a.msg.bitSize() <= ctx.budget_bits"), std::string::npos)
      << what;
  EXPECT_NE(what.find(" message of 11 bits exceeds budget 10"),
            std::string::npos)
      << what;
}

TEST(Engine, ExplicitBudgetAboveCapacityRejected) {
  std::vector<std::unique_ptr<Process>> ps;
  ps.push_back(std::make_unique<WideSender>());
  EngineConfig config;
  config.msg_budget_bits = Message::kCapacityBits + 1;
  EXPECT_THROW(Engine(std::move(ps),
                      std::make_unique<adv::StaticAdversary>(net::makePath(1)),
                      config, 1),
               util::CheckError);
}

TEST(Engine, DefaultBudgetScalesWithLogN) {
  EXPECT_EQ(defaultBudgetBits(2), 64 + 8);
  EXPECT_EQ(defaultBudgetBits(1024), 64 + 80);
  EXPECT_GT(defaultBudgetBits(1 << 20), defaultBudgetBits(1 << 10));
}

/// Adversary returning a disconnected topology.
class BrokenAdversary : public Adversary {
 public:
  explicit BrokenAdversary(NodeId n) : n_(n) {}
  net::GraphPtr topology(Round, const RoundObservation&) override {
    return std::make_shared<net::Graph>(n_, std::vector<net::Edge>{});
  }
  NodeId numNodes() const override { return n_; }

 private:
  NodeId n_;
};

TEST(Engine, DisconnectedTopologyRejected) {
  const std::vector<std::vector<Scripted::Step>> scripts = {{{false, 0}},
                                                            {{false, 0}}};
  auto ps = scriptedNodes(scripts);
  EngineConfig config;
  Engine engine(std::move(ps), std::make_unique<BrokenAdversary>(2), config, 1);
  EXPECT_THROW(engine.step(), util::CheckError);
}

/// Connected for the first `good_rounds` rounds, then disconnected.
class EventuallyBrokenAdversary : public Adversary {
 public:
  EventuallyBrokenAdversary(NodeId n, Round good_rounds)
      : n_(n), good_rounds_(good_rounds) {}
  net::GraphPtr topology(Round round, const RoundObservation&) override {
    if (round <= good_rounds_) {
      return net::makePath(n_);
    }
    return std::make_shared<net::Graph>(n_, std::vector<net::Edge>{});
  }
  NodeId numNodes() const override { return n_; }

 private:
  NodeId n_;
  Round good_rounds_;
};

TEST(Engine, MidRunDisconnectionRejected) {
  const std::vector<std::vector<Scripted::Step>> scripts = {
      {{false, 0}, {false, 0}, {false, 0}},
      {{false, 0}, {false, 0}, {false, 0}}};
  auto ps = scriptedNodes(scripts);
  EngineConfig config;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps),
                std::make_unique<EventuallyBrokenAdversary>(2, 2), config, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_TRUE(engine.step());
  EXPECT_THROW(engine.step(), util::CheckError);
  EXPECT_EQ(engine.result().rounds_executed, 2);
}

TEST(Engine, DisconnectedToleratedWhenCheckOff) {
  const std::vector<std::vector<Scripted::Step>> scripts = {{{false, 0}},
                                                            {{false, 0}}};
  auto ps = scriptedNodes(scripts);
  EngineConfig config;
  config.check_connectivity = false;
  config.max_rounds = 1;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps), std::make_unique<BrokenAdversary>(2), config, 1);
  engine.run();
  EXPECT_EQ(engine.result().rounds_executed, 1);
}

/// Process that sends iff its per-round coin says so, payload = coin bits;
/// used to verify deterministic replay.
class CoinEcho : public Process {
 public:
  Action onRound(Round, util::CoinStream& coins) override {
    Action a;
    if (coins.coin()) {
      a.send = true;
      a.msg = MessageBuilder().put(coins.u64() & 0xffff, 16).build();
    }
    return a;
  }
  void onDeliver(Round, bool, std::span<const Message> received) override {
    for (const Message& m : received) {
      digest_ = util::hashCombine(digest_, m.digest());
    }
  }
  std::uint64_t stateDigest() const override { return digest_; }

 private:
  std::uint64_t digest_ = 0;
};

std::uint64_t runCoinEcho(std::uint64_t seed) {
  std::vector<std::unique_ptr<Process>> ps;
  for (int v = 0; v < 8; ++v) {
    ps.push_back(std::make_unique<CoinEcho>());
  }
  EngineConfig config;
  config.max_rounds = 50;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps), std::make_unique<adv::StaticAdversary>(net::makeRing(8)),
                config, seed);
  engine.run();
  std::uint64_t h = 0;
  for (NodeId v = 0; v < 8; ++v) {
    h = util::hashCombine(h, engine.process(v).stateDigest());
  }
  return h;
}

TEST(Engine, DeterministicReplay) {
  EXPECT_EQ(runCoinEcho(7), runCoinEcho(7));
  EXPECT_NE(runCoinEcho(7), runCoinEcho(8));
}

TEST(Engine, RecordsTopologiesAndActions) {
  const std::vector<std::vector<Scripted::Step>> scripts = {
      {{true, 1}, {false, 0}}, {{false, 0}, {true, 2}}};
  auto ps = scriptedNodes(scripts);
  EngineConfig config;
  config.max_rounds = 2;
  config.stop_when_all_done = false;
  config.record_topologies = true;
  config.record_actions = true;
  Engine engine(std::move(ps), std::make_unique<adv::StaticAdversary>(net::makePath(2)),
                config, 1);
  engine.run();
  ASSERT_EQ(engine.topologies().size(), 2u);
  ASSERT_EQ(engine.actionTrace().size(), 2u);
  EXPECT_TRUE(engine.actionTrace()[0][0].send);
  EXPECT_FALSE(engine.actionTrace()[0][1].send);
  EXPECT_TRUE(engine.actionTrace()[1][1].send);
}

TEST(Engine, PeriodicAdversaryCycles) {
  const std::vector<std::vector<Scripted::Step>> scripts = {
      {{true, 9}, {true, 9}, {true, 9}},
      {{false, 0}, {false, 0}, {false, 0}},
      {{false, 0}, {false, 0}, {false, 0}},
  };
  auto ps = scriptedNodes(scripts);
  const auto* v2 = static_cast<const Scripted*>(ps[2].get());
  std::vector<net::GraphPtr> period = {
      std::make_shared<net::Graph>(3, std::vector<net::Edge>{{0, 1}, {1, 2}}),
      std::make_shared<net::Graph>(3, std::vector<net::Edge>{{0, 2}, {1, 2}}),
  };
  EngineConfig config;
  config.max_rounds = 3;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps),
                std::make_unique<adv::PeriodicAdversary>(period), config, 1);
  engine.run();
  // Node 2 is adjacent to sender 0 only in rounds 2 (and not 1, 3).
  EXPECT_TRUE(v2->deliveries()[0].empty());
  EXPECT_EQ(v2->deliveries()[1], (std::vector<std::uint64_t>{9}));
  EXPECT_TRUE(v2->deliveries()[2].empty());
}

TEST(Engine, PerNodeBitAccounting) {
  // Path 0-1-2; node 0 sends a 16-bit payload both rounds, node 1 sends in
  // round 2 only, node 2 never.
  const std::vector<std::vector<Scripted::Step>> scripts = {
      {{true, 1}, {true, 2}},
      {{false, 0}, {true, 3}},
      {{false, 0}, {false, 0}},
  };
  auto ps = scriptedNodes(scripts);
  EngineConfig config;
  config.max_rounds = 2;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps), std::make_unique<adv::StaticAdversary>(net::makePath(3)),
                config, 1);
  engine.run();
  EXPECT_EQ(engine.result().bits_per_node[0], 32u);
  EXPECT_EQ(engine.result().bits_per_node[1], 16u);
  EXPECT_EQ(engine.result().bits_per_node[2], 0u);
  EXPECT_EQ(engine.result().bits_sent, 48u);
}

TEST(Runner, AggregatesMetrics) {
  const TrialSummary summary = runTrials(16, 99, [](std::uint64_t seed) {
    return std::map<std::string, double>{
        {"seedmod", static_cast<double>(seed % 7)}, {"one", 1.0}};
  });
  EXPECT_EQ(summary.metrics.at("one").count(), 16u);
  EXPECT_DOUBLE_EQ(summary.metrics.at("one").mean(), 1.0);
  EXPECT_EQ(summary.metrics.at("seedmod").count(), 16u);
}

TEST(Runner, DistinctSeedsPerTrial) {
  const TrialSummary summary = runTrials(32, 5, [](std::uint64_t seed) {
    return std::map<std::string, double>{
        {"low32", static_cast<double>(seed & 0xffffffffu)}};
  });
  EXPECT_GT(summary.metrics.at("low32").stddev(), 0.0);
}

}  // namespace
}  // namespace dynet::sim
