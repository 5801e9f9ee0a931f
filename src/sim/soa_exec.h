// Strided compute / delivery loops shared by every SoAModel.
//
// Both loops walk the flat node arrays with the classic strided-worker
// pattern (worker w handles nodes w, w + T, w + 2T, ... — the
// Z80_Simulator ThreadSimulateTransistors idiom): adjacent workers touch
// adjacent cache lines, no partitioning state is needed, and T == 1 (the
// default) gets a dedicated serial loop with zero dispatch cost.
//
// The serial (T == 1) specializations are where the SoA path earns its
// keep against the object engine:
//   * compute fuses send-side accounting into the walk instead of
//     re-reading the whole Action array in a second pass, and collects the
//     round's senders (ascending) into EngineWorkspace::soa_senders;
//   * models receive the per-node coin *key* and derive only the draws
//     they actually make (util::CoinStream::firstCoin), so a flood
//     non-holder pays zero hashing;
//   * fault-free delivery flips to a *push* walk over that sender list —
//     cost proportional to the senders' degree sum instead of a full
//     neighbor scan per receiver.  Byte-identity holds because the outer
//     loop is ascending in sender id, so any fixed receiver still sees its
//     messages in ascending sender order (exactly the pull order: sorted
//     neighbor lists filtered by send), and cross-node reads still touch
//     only frozen sender state (send-xor-receive).  The per-node
//     afterDeliver tail is replaced by the model's afterDeliverAllClean
//     bulk hook, sound because every live node gets the hook in a
//     fault-free round and no model hook reads what it writes.
//
// Race-freedom argument for T > 1 (checked under TSan by
// tests/soa_state_test.cpp in CI):
//   * compute: computeNode(v) writes only node v's columns, its action
//     slot, and draws from node v's private coin stream — disjoint per
//     worker by construction.  Send accounting stays a serial ascending
//     pass after the join so counter updates land in object-path order.
//   * delivery: a receiver mutates only its own columns; cross-node reads
//     touch only *senders'* action payloads and state columns, and a sender
//     receives nothing this round (send-xor-receive), so no worker writes
//     what another reads.  Fault counters accumulate per worker and merge
//     after the join.
//
// The loops reproduce the object path exactly: same live-mask gating, same
// CoinStream streams, same canonical ascending-sender delivery order (the
// Graph neighbor lists are sorted), same drop/corrupt fates and accounting.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "faults/fault_injector.h"
#include "net/graph.h"
#include "obs/metrics.h"
#include "sim/phase.h"
#include "sim/soa.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynet::sim {

/// Raises the over-budget CheckError for accountSentAction; out of line so
/// the per-send hot path carries one compare and a call, not the formatting,
/// and [[noreturn]] so the counters stay in registers across the branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void sentActionOverBudget(
    const RoundContext& ctx, NodeId v, const Action& a) {
  DYNET_CHECK(a.msg.bitSize() <= ctx.budget_bits)
      << "node " << v << " round " << ctx.round << " message of "
      << a.msg.bitSize() << " bits exceeds budget " << ctx.budget_bits;
  std::abort();  // unreachable: called only when the check fails
}

/// Send-side accounting shared by the object and SoA compute paths: budget
/// check, global/per-node bit counters, and the bits_per_send histogram.
/// Must run in ascending node order so histogram observations land in the
/// object-path sequence.
inline void accountSentAction(RoundContext& ctx, RunResult& result, NodeId v,
                              const Action& a) {
  const auto idx = static_cast<std::size_t>(v);
  if (a.msg.bitSize() > ctx.budget_bits) [[unlikely]] {
    sentActionOverBudget(ctx, v, a);
  }
  ++result.messages_sent;
  result.bits_sent += static_cast<std::uint64_t>(a.msg.bitSize());
  result.bits_per_node[idx] += static_cast<std::uint64_t>(a.msg.bitSize());
  if (result.bits_per_node[idx] > result.max_bits_per_node) {
    result.max_bits_per_node = result.bits_per_node[idx];
  }
  if (ctx.obs != nullptr) {
    ctx.obs->bits_per_send->observe(static_cast<double>(a.msg.bitSize()));
  }
}

/// ComputePhase body over a model providing
///   computeNode(RoundContext&, NodeId v, std::uint64_t node_key)
/// which must fully assign ctx.ws->actions[v] (receivers included — a stale
/// payload from an earlier round would break action-trace byte-identity)
/// and derive any coins it draws from the node key via
/// util::CoinStream::roundKey / firstCoin / fromRoundKey, reproducing the
/// object path's CoinStream::fromNodeKey(node_key, round) stream draw for
/// draw.
///
/// Handles send accounting for every worker count: fused into the serial
/// walk when T == 1, a separate ascending pass after the join otherwise.
template <typename Model>
void soaComputeAll(RoundContext& ctx, Model& model) {
  EngineWorkspace& ws = *ctx.ws;
  RunResult& result = *ctx.result;
  const int workers = soaStrideWorkers(*ctx.config);
  const std::uint64_t* const keys = ws.coin_keys.data();
  Action* const actions = ws.actions.data();
  if (workers == 1) {
    if (!ctx.faulty) {
      ws.soa_senders.clear();
      for (NodeId v = 0; v < ctx.n; ++v) {
        model.computeNode(ctx, v, keys[static_cast<std::size_t>(v)]);
        const Action& a = actions[static_cast<std::size_t>(v)];
        if (a.send) {
          accountSentAction(ctx, result, v, a);
          ws.soa_senders.push_back(v);
        }
      }
    } else {
      for (NodeId v = 0; v < ctx.n; ++v) {
        const auto idx = static_cast<std::size_t>(v);
        if (ws.alive[idx] == 0) {
          actions[idx] = Action{};
          continue;
        }
        model.computeNode(ctx, v, keys[idx]);
        if (actions[idx].send) {
          accountSentAction(ctx, result, v, actions[idx]);
        }
      }
    }
    return;
  }
  const auto worker = [&](std::size_t w) {
    for (NodeId v = static_cast<NodeId>(w); v < ctx.n;
         v += static_cast<NodeId>(workers)) {
      const auto idx = static_cast<std::size_t>(v);
      if (ctx.faulty && ws.alive[idx] == 0) {
        actions[idx] = Action{};
        continue;
      }
      model.computeNode(ctx, v, keys[idx]);
    }
  };
  util::ThreadPool::shared().parallelFor(static_cast<std::size_t>(workers),
                                         worker);
  for (NodeId v = 0; v < ctx.n; ++v) {
    const Action& a = actions[static_cast<std::size_t>(v)];
    if (a.send) {
      accountSentAction(ctx, result, v, a);
    }
  }
}

/// DeliveryPhase body over a model providing
///   onMessage(RoundContext&, NodeId v, NodeId u, const Message&, bool
///             pristine)   — one delivered message, ascending sender order;
///                           pristine is false only for corrupted copies
///   afterDeliver(RoundContext&, NodeId v, bool sent)
///                         — end-of-delivery hook (the tail of onDeliver)
///   afterDeliverAllClean(RoundContext&)
///                         — bulk equivalent of calling afterDeliver on
///                           every node after all messages landed; used only
///                           on the fault-free serial (push) path, so it may
///                           assume every node is live.  Models whose
///                           afterDeliver depends on per-node interleaving
///                           with onMessage must not take the push path.
/// Crashed nodes get neither call, exactly like the object path.
template <typename Model>
void soaDeliverAll(RoundContext& ctx, Model& model) {
  EngineWorkspace& ws = *ctx.ws;
  RunResult& result = *ctx.result;
  const net::Graph& g = *ctx.topology;
  const Action* const actions = ws.actions.data();
  const int workers = soaStrideWorkers(*ctx.config);
  if (workers == 1 && !ctx.faulty) {
    // Fault-free serial push walk over the sender list soaComputeAll
    // collected this round.  Loop interchange from the pull scan: outer
    // ascending senders, inner the sender's (sorted) neighbors, so every
    // receiver still takes its onMessage calls in ascending sender order
    // while non-senders' neighbor lists are never walked at all.  No
    // drop/corrupt fates are possible fault-free.
    for (const NodeId u : ws.soa_senders) {
      const Message& msg = actions[static_cast<std::size_t>(u)].msg;
      for (const NodeId v : g.neighbors(u)) {
        if (!actions[static_cast<std::size_t>(v)].send) {
          model.onMessage(ctx, v, u, msg, /*pristine=*/true);
        }
      }
    }
    model.afterDeliverAllClean(ctx);
    return;
  }
  ws.stride_dropped.assign(static_cast<std::size_t>(workers), 0);
  ws.stride_corrupted.assign(static_cast<std::size_t>(workers), 0);
  const auto worker = [&](std::size_t w) {
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    for (NodeId v = static_cast<NodeId>(w); v < ctx.n;
         v += static_cast<NodeId>(workers)) {
      const auto vi = static_cast<std::size_t>(v);
      if (ctx.faulty && ws.alive[vi] == 0) {
        continue;  // crashed: no delivery
      }
      if (actions[vi].send) {
        model.afterDeliver(ctx, v, true);
        continue;
      }
      if (!ctx.faulty) {
        for (const NodeId u : g.neighbors(v)) {
          const Action& a = actions[static_cast<std::size_t>(u)];
          if (a.send) {
            model.onMessage(ctx, v, u, a.msg, /*pristine=*/true);
          }
        }
      } else {
        for (const NodeId u : g.neighbors(v)) {
          const Action& a = actions[static_cast<std::size_t>(u)];
          if (!a.send) {
            continue;
          }
          const auto fate = ctx.injector->deliveryFate(u, v, ctx.round);
          if (fate == faults::FaultPlan::Fate::kDrop) {
            ++dropped;
            continue;
          }
          if (fate == faults::FaultPlan::Fate::kCorrupt) {
            ++corrupted;
            if (!ctx.injector->plan().config().deliver_corrupted) {
              continue;  // link-layer CRC catches it
            }
            const Message mangled =
                ctx.injector->corrupted(a.msg, u, v, ctx.round);
            model.onMessage(ctx, v, u, mangled, /*pristine=*/false);
            continue;
          }
          model.onMessage(ctx, v, u, a.msg, /*pristine=*/true);
        }
      }
      model.afterDeliver(ctx, v, false);
    }
    ws.stride_dropped[w] = dropped;
    ws.stride_corrupted[w] = corrupted;
  };
  if (workers == 1) {
    worker(0);
  } else {
    util::ThreadPool::shared().parallelFor(static_cast<std::size_t>(workers),
                                           worker);
  }
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  for (int w = 0; w < workers; ++w) {
    dropped += ws.stride_dropped[static_cast<std::size_t>(w)];
    corrupted += ws.stride_corrupted[static_cast<std::size_t>(w)];
  }
  if (dropped != 0) {
    result.messages_dropped += dropped;
    if (ctx.obs != nullptr) {
      ctx.obs->messages_dropped->inc(dropped);
    }
  }
  if (corrupted != 0) {
    result.messages_corrupted += corrupted;
    if (ctx.obs != nullptr) {
      ctx.obs->messages_corrupted->inc(corrupted);
    }
  }
}

}  // namespace dynet::sim
