// Contiguous-process SoA model: a protocol's own Process class on the SoA
// engine path, with its rule written once.
//
// ProcessArrayModel<P> keeps every node's state machine in one
// std::vector<P> of a `final` Process class (an SoAStore object column, so
// BatchRunner trials reuse its capacity) and drives it through the
// shared SoA loops (sim/soa_exec.h): serial fused send accounting, the
// fault-free push delivery walk over the round's senders, and the strided
// node_threads workers.  Because P is final, onRound and receive resolve
// statically — no per-node virtual dispatch, no per-node heap pointer to
// chase, and no per-receiver inbox copy.  The object path runs the very
// same P through the Process interface, so there is no second copy of the
// protocol to keep in sync.
//
// Contract on P (docs/ARCHITECTURE.md "SoA state store"):
//   * `final`, derived from Process, move-assignable;
//   * `void receive(const Message&)` handles one delivered message, and
//     P::onDeliver is exactly a loop over receive with no tail: the
//     model calls receive per delivered message in the canonical order and
//     nothing for a sender (send-xor-receive), so a P whose onDeliver reads
//     `round` or `sent`, or does work after the loop, cannot use it;
//   * done() may change inside onRound as well as inside receive (LEADERELECT
//     declares its leader on a stage-D exit in onRound), so the done column
//     is refreshed for every live node after delivery.
// The engine refuses the SoA path under anonymous and duplex runs for this
// model as for every other, so neither mode reaches it.
#pragma once

#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/soa.h"
#include "sim/soa_exec.h"
#include "util/rng.h"

namespace dynet::sim {

template <typename P>
class ProcessArrayModel final : public SoAModel {
  static_assert(std::is_base_of_v<Process, P>, "P must be a Process");
  static_assert(std::is_final_v<P>,
                "P must be final so onRound/receive resolve statically");

 public:
  /// `make(v)` builds node v's initial state machine: once per node in
  /// bind(), and again for a restarted node in resetNode().  It must build
  /// exactly what the protocol factory's create(v, n) builds.
  explicit ProcessArrayModel(std::function<P(NodeId)> make)
      : make_(std::move(make)) {}
  // The objects die with the model, as they would with an object-path
  // engine; the array's capacity stays in the store for the next trial.
  ~ProcessArrayModel() override {
    if (store_ != nullptr && store_->epoch() == epoch_) {
      nodes_->clear();
    }
  }
  ProcessArrayModel(const ProcessArrayModel&) = delete;
  ProcessArrayModel& operator=(const ProcessArrayModel&) = delete;

  void bind(NodeId num_nodes, SoAStore& store) override {
    const auto np = static_cast<std::size_t>(num_nodes);
    store_ = &store;
    epoch_ = store.epoch();
    nodes_ = &store.objectColumn<P>(0);
    nodes_->reserve(np);
    done_ = &store.byteColumn(0);
    done_->assign(np, 0);
    for (NodeId v = 0; v < num_nodes; ++v) {
      nodes_->push_back(make_(v));
      refreshDone(v);
    }
  }

  void computeAll(RoundContext& ctx) override { soaComputeAll(ctx, *this); }
  void deliverAll(RoundContext& ctx) override { soaDeliverAll(ctx, *this); }

  // soaComputeAll / soaDeliverAll hooks.
  void computeNode(RoundContext& ctx, NodeId v, std::uint64_t node_key) {
    const auto vi = static_cast<std::size_t>(v);
    util::CoinStream coins = util::CoinStream::fromNodeKey(
        node_key, static_cast<std::uint64_t>(ctx.round));
    ctx.ws->actions[vi] = (*nodes_)[vi].onRound(ctx.round, coins);
  }
  void onMessage(RoundContext& /*ctx*/, NodeId v, NodeId /*u*/,
                 const Message& msg, bool /*pristine*/) {
    (*nodes_)[static_cast<std::size_t>(v)].receive(msg);
  }
  void afterDeliver(RoundContext& /*ctx*/, NodeId v, bool /*sent*/) {
    refreshDone(v);
  }
  void afterDeliverAllClean(RoundContext& /*ctx*/) {
    for (NodeId v = 0; v < static_cast<NodeId>(nodes_->size()); ++v) {
      refreshDone(v);
    }
  }

  void resetNode(NodeId v) override {
    (*nodes_)[static_cast<std::size_t>(v)] = make_(v);
    refreshDone(v);
  }

  bool done(NodeId v) const override {
    return (*done_)[static_cast<std::size_t>(v)] != 0;
  }
  const char* doneData() const override { return done_->data(); }
  std::uint64_t output(NodeId v) const override { return at(v).output(); }
  std::uint64_t stateDigest(NodeId v) const override {
    return at(v).stateDigest();
  }
  void exportMetrics(
      NodeId v,
      std::vector<std::pair<std::string, double>>& out) const override {
    at(v).exportMetrics(out);
  }
  const Process* process(NodeId v) const override { return &at(v); }

 private:
  const P& at(NodeId v) const {
    return (*nodes_)[static_cast<std::size_t>(v)];
  }
  void refreshDone(NodeId v) {
    (*done_)[static_cast<std::size_t>(v)] = at(v).done() ? 1 : 0;
  }

  std::function<P(NodeId)> make_;
  std::vector<P>* nodes_ = nullptr;
  std::vector<char>* done_ = nullptr;
  const SoAStore* store_ = nullptr;
  std::uint64_t epoch_ = 0;  // store_->epoch() when bound
};

}  // namespace dynet::sim
