// Structure-of-arrays protocol state.
//
// The object path gives every node a heap-allocated Process; at n = 10^5+
// the per-node virtual dispatch and pointer-chasing layout dominate the
// round loop (data layout, not allocation, is the hot path).  The SoA path
// keeps protocol state in flat per-field arrays instead: one SoAModel per
// engine owns columns like `has_token[n]` or `best_key[n]` that live inside
// the EngineWorkspace's SoAStore, so BatchRunner trials reuse the capacity
// exactly like every other workspace vector.
//
// Contract (docs/ARCHITECTURE.md "SoA state store & many-worlds lanes"):
//   * A protocol opts in by overriding ProcessFactory::createSoA.  The
//     default returns null, which makes the factory-constructed engine
//     fall back to the object path.
//   * The SoA execution of a protocol must be byte-identical to its object
//     execution: same actions, same RunResult, same stateDigest per node,
//     same exported metrics.  tests/soa_state_test.cpp locksteps the two
//     representations round by round; tests/fuzz_diff_test.cpp and the
//     golden corpus pin the full artifact bytes.
//   * Columns are plain vectors indexed by node: any cross-node read during
//     delivery may only touch *senders'* state, which the send-xor-receive
//     model guarantees is not written during the phase — that is what makes
//     the strided worker loop (sim/soa_exec.h) race-free.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "sim/process.h"

namespace dynet::sim {

struct EngineConfig;
struct RoundContext;

/// Pooled column storage for one SoAModel, owned by the EngineWorkspace.
/// Models grab columns by (type, slot) in bind(); slots are private to the
/// model (a workspace backs one engine at a time, and reset() clears all
/// data), so different protocols may reuse the same slot numbers.  Like
/// every other workspace member, reset() drops data but keeps capacity.
/// Pools are deques so the returned column references stay valid when a
/// later bind() call grows the pool — models hold them for the whole run.
class SoAStore {
 public:
  std::vector<std::uint64_t>& u64Column(std::size_t slot) {
    return at(u64_, slot);
  }
  std::vector<std::int32_t>& i32Column(std::size_t slot) {
    return at(i32_, slot);
  }
  std::vector<char>& byteColumn(std::size_t slot) { return at(bytes_, slot); }
  std::vector<Message>& messageColumn(std::size_t slot) {
    return at(messages_, slot);
  }
  /// A column of model-defined objects (sim/process_array.h keeps its
  /// Process objects here, so their array is allocated once per workspace
  /// rather than once per trial).  A slot last used with another type is
  /// replaced.
  template <typename T>
  std::vector<T>& objectColumn(std::size_t slot) {
    std::unique_ptr<ObjectPool>& pool = at(objects_, slot);
    auto* typed = dynamic_cast<TypedPool<T>*>(pool.get());
    if (typed == nullptr) {
      auto fresh = std::make_unique<TypedPool<T>>();
      typed = fresh.get();
      pool = std::move(fresh);
    }
    return typed->column;
  }

  void reset() {
    for (auto& c : u64_) {
      c.clear();
    }
    for (auto& c : i32_) {
      c.clear();
    }
    for (auto& c : bytes_) {
      c.clear();
    }
    for (auto& c : messages_) {
      c.clear();
    }
    for (auto& c : objects_) {
      if (c != nullptr) {
        c->clear();
      }
    }
    ++epoch_;
  }

  /// Counts reset() calls.  A model that must release its columns when it
  /// dies compares this with the value it was bound under, so an engine
  /// destroyed after a later engine re-bound the store leaves the later
  /// engine's columns alone.
  std::uint64_t epoch() const { return epoch_; }

 private:
  struct ObjectPool {
    virtual ~ObjectPool() = default;
    virtual void clear() = 0;
  };
  template <typename T>
  struct TypedPool final : ObjectPool {
    void clear() override { column.clear(); }
    std::vector<T> column;
  };

  template <typename Column>
  static Column& at(std::deque<Column>& pool, std::size_t slot) {
    while (pool.size() <= slot) {
      pool.emplace_back();
    }
    return pool[slot];
  }

  std::deque<std::vector<std::uint64_t>> u64_;
  std::deque<std::vector<std::int32_t>> i32_;
  std::deque<std::vector<char>> bytes_;
  std::deque<std::vector<Message>> messages_;
  std::deque<std::unique_ptr<ObjectPool>> objects_;
  std::uint64_t epoch_ = 0;
};

/// One protocol's flat-array execution: the SoA counterpart of the whole
/// Process vector.  Created by ProcessFactory::createSoA, bound to the
/// workspace's SoAStore by the engine, driven by the phase pipeline.
class SoAModel {
 public:
  virtual ~SoAModel();

  /// Allocates and initializes this run's columns inside `store`.  Called
  /// once by the engine after the workspace reset, before round 1.
  virtual void bind(NodeId num_nodes, SoAStore& store) = 0;

  /// ComputePhase body: fill ctx.ws->actions[v] for every node (crashed
  /// nodes get Action{}).  Implementations call soaComputeAll
  /// (sim/soa_exec.h), which handles the live mask, per-node CoinStream
  /// construction, and the strided worker dispatch.
  virtual void computeAll(RoundContext& ctx) = 0;

  /// DeliveryPhase body: deliver sender messages through the fault filter.
  /// Implementations call soaDeliverAll (sim/soa_exec.h), which reproduces
  /// the canonical ascending-sender order, drop/corrupt fates, and
  /// accounting of the object path.
  virtual void deliverAll(RoundContext& ctx) = 0;

  /// Fault restart: node v's state becomes exactly what bind() gave it
  /// (the SoA analogue of FaultInjector::freshProcess).
  virtual void resetNode(NodeId v) = 0;

  // Per-node read-side mirror of the Process API.
  virtual bool done(NodeId v) const = 0;
  virtual std::uint64_t output(NodeId v) const = 0;
  virtual std::uint64_t stateDigest(NodeId v) const = 0;

  /// Raw num_nodes-wide done byte column (nonzero == done(v)), or null when
  /// the model has no flat representation.  ObservePhase and allLiveDone
  /// scan the bytes directly instead of making n virtual done() calls per
  /// round; the default keeps exotic models correct, just slower.
  virtual const char* doneData() const { return nullptr; }

  /// Mirror of Process::exportMetrics; must append the same (key, value)
  /// pairs the object path would for node v.
  virtual void exportMetrics(
      NodeId v, std::vector<std::pair<std::string, double>>& out) const;

  /// Node v's Process object when the model keeps one per node
  /// (sim/process_array.h), so Engine::process works on both paths; null
  /// for column models, which have no objects.
  virtual const Process* process(NodeId v) const {
    (void)v;
    return nullptr;
  }
};

/// Resolved stride width for the intra-trial worker loops:
/// config.node_threads of 1 is the serial loop (the default; BatchRunner
/// already parallelizes across trials), 0 means "one worker per shared-pool
/// thread", and k > 1 pins exactly k workers.
int soaStrideWorkers(const EngineConfig& config);

}  // namespace dynet::sim
