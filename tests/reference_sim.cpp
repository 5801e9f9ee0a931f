#include "reference_sim.h"

#include <algorithm>
#include <utility>

#include "net/graph.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::ref {

using sim::Action;
using sim::Message;
using sim::NodeId;
using sim::Round;

std::vector<std::unique_ptr<sim::Process>> createProcesses(
    const sim::ProcessFactory& factory, NodeId n) {
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (NodeId v = 0; v < n; ++v) {
    processes.push_back(factory.create(v, n));
  }
  return processes;
}

namespace {

// The anonymous-mode port permutation: a Fisher-Yates shuffle of the
// canonical inbox keyed on (seed, receiver, round).
void anonShuffle(std::vector<Message>& inbox, std::uint64_t seed, NodeId v,
                 Round round) {
  util::Rng rng(util::hashCombine(
      util::hashCombine(seed ^ 0x616e6f6e706f7274ULL,
                        static_cast<std::uint64_t>(v)),
      static_cast<std::uint64_t>(round)));
  for (std::size_t i = inbox.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.below(i));
    std::swap(inbox[i - 1], inbox[j]);
  }
}

}  // namespace

ReferenceRun runReference(
    const sim::ProcessFactory& factory,
    std::unique_ptr<sim::Adversary> adversary, const sim::EngineConfig& config,
    std::uint64_t seed, std::shared_ptr<const faults::FaultInjector> injector) {
  const NodeId n = adversary->numNodes();
  const auto np = static_cast<std::size_t>(n);
  const int budget = config.msg_budget_bits > 0 ? config.msg_budget_bits
                                                : sim::defaultBudgetBits(n);
  DYNET_CHECK(budget <= Message::kCapacityBits) << "budget " << budget;
  if (injector != nullptr) {
    DYNET_CHECK(injector->plan().numNodes() == n) << "fault plan size";
  }
  ReferenceRun run;
  run.processes = createProcesses(factory, n);
  run.trace.num_nodes = n;
  sim::RunResult& result = run.result;
  result.done_round.assign(np, -1);
  result.bits_per_node.assign(np, 0);
  std::vector<char> crash_counted(np, 0);

  for (Round round = 1; round <= config.max_rounds; ++round) {
    if (config.stop_when_all_done && result.all_done) {
      break;
    }
    // 1. Faults: restarts re-create state, crashed nodes sit the round out.
    std::vector<char> alive(np, 1);
    if (injector != nullptr) {
      for (NodeId v = 0; v < n; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (injector->restartsAt(v, round)) {
          run.processes[vi] = injector->freshProcess(v, n);
          crash_counted[vi] = 0;
          ++result.restarts;
        }
        if (injector->isCrashed(v, round)) {
          if (crash_counted[vi] == 0) {
            crash_counted[vi] = 1;
            ++result.crashes;
          }
          alive[vi] = 0;
        }
      }
    }

    // 2. Coins flip and every live node decides to send or to receive.
    std::vector<Action> actions(np);
    const std::uint64_t bits_before = result.bits_sent;
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (alive[vi] == 0) {
        continue;
      }
      util::CoinStream coins(seed, static_cast<std::uint64_t>(v),
                             static_cast<std::uint64_t>(round));
      actions[vi] = run.processes[vi]->onRound(round, coins);
      if (actions[vi].send) {
        const auto bits = static_cast<std::uint64_t>(actions[vi].msg.bitSize());
        DYNET_CHECK(actions[vi].msg.bitSize() <= budget)
            << "node " << v << " round " << round << " exceeds the budget";
        ++result.messages_sent;
        result.bits_sent += bits;
        result.bits_per_node[vi] += bits;
        result.max_bits_per_node =
            std::max(result.max_bits_per_node, result.bits_per_node[vi]);
      }
    }

    // 3. The adversary picks the topology, seeing the actions.
    const net::GraphPtr g =
        adversary->topology(round, sim::RoundObservation{actions});
    DYNET_CHECK(g != nullptr && g->numNodes() == n) << "bad topology";
    if (config.check_connectivity) {
      if (injector != nullptr && config.relax_connectivity_to_live &&
          injector->plan().hasCrashes()) {
        DYNET_CHECK(net::connectedOn(*g, alive)) << "round " << round;
      } else {
        DYNET_CHECK(g->connected()) << "round " << round;
      }
    }
    run.trace.topologies.push_back(g);
    run.trace.actions.push_back(actions);

    // 4. Delivery: each live receiver (or, under duplex, each live node)
    // gets its sending neighbors' messages in ascending sender order,
    // filtered through the fault fates, then port-shuffled if anonymous.
    std::vector<std::vector<NodeId>> adjacent(np);
    for (const net::Edge& e : g->edges()) {
      adjacent[static_cast<std::size_t>(e.a)].push_back(e.b);
      adjacent[static_cast<std::size_t>(e.b)].push_back(e.a);
    }
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (alive[vi] == 0) {
        continue;
      }
      const bool sent = actions[vi].send;
      if (sent && !config.duplex) {
        run.processes[vi]->onDeliver(round, true, {});
        continue;
      }
      std::vector<NodeId> senders;
      for (const NodeId u : adjacent[vi]) {
        if (actions[static_cast<std::size_t>(u)].send) {
          senders.push_back(u);
        }
      }
      std::sort(senders.begin(), senders.end());
      std::vector<Message> inbox;
      for (const NodeId u : senders) {
        const Message& msg = actions[static_cast<std::size_t>(u)].msg;
        const auto fate = injector != nullptr
                              ? injector->deliveryFate(u, v, round)
                              : faults::FaultPlan::Fate::kDeliver;
        if (fate == faults::FaultPlan::Fate::kDrop) {
          ++result.messages_dropped;
        } else if (fate == faults::FaultPlan::Fate::kCorrupt) {
          ++result.messages_corrupted;
          if (injector->plan().config().deliver_corrupted) {
            inbox.push_back(injector->corrupted(msg, u, v, round));
          }
        } else {
          inbox.push_back(msg);
        }
      }
      if (config.anonymous) {
        anonShuffle(inbox, seed, v, round);
      }
      run.processes[vi]->onDeliver(round, sent, inbox);
    }

    // 5. Accounting: done rounds, the bit series, the all-done check
    // (crashed nodes cannot hold the run open).
    bool all_live_done = true;
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const bool done = run.processes[vi]->done();
      if (done && result.done_round[vi] < 0) {
        result.done_round[vi] = round;
      }
      const bool crashed = injector != nullptr && injector->isCrashed(v, round);
      all_live_done = all_live_done && (done || crashed);
    }
    result.rounds_executed = round;
    result.bits_per_round.push_back(result.bits_sent - bits_before);
    if (!result.all_done && all_live_done) {
      result.all_done = true;
      result.all_done_round = round;
    }
  }
  for (const auto& p : run.processes) {
    run.digests.push_back(p->stateDigest());
  }
  return run;
}

}  // namespace dynet::ref
