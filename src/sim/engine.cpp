#include "sim/engine.h"

#include "faults/fault_injector.h"
#include "obs/prof.h"
#include "obs/sink.h"
#include "sim/phase.h"
#include "sim/soa.h"
#include "sim/workspace.h"
#include "util/check.h"

namespace dynet::sim {

int defaultBudgetBits(NodeId num_nodes) {
  DYNET_CHECK(num_nodes >= 1) << "num_nodes=" << num_nodes;
  return 64 + 8 * util::bitWidthFor(static_cast<std::uint64_t>(num_nodes));
}

Engine::Engine(std::vector<std::unique_ptr<Process>> processes,
               std::unique_ptr<Adversary> adversary, EngineConfig config,
               std::uint64_t seed, EngineWorkspace* workspace)
    : processes_(std::move(processes)),
      adversary_(std::move(adversary)),
      config_(config),
      seed_(seed) {
  DYNET_CHECK(!processes_.empty()) << "no processes";
  DYNET_CHECK(adversary_ != nullptr) << "no adversary";
  DYNET_CHECK(adversary_->numNodes() == static_cast<NodeId>(processes_.size()))
      << "adversary nodes " << adversary_->numNodes() << " != processes "
      << processes_.size();
  n_ = static_cast<NodeId>(processes_.size());
  init(workspace);
}

Engine::Engine(const ProcessFactory& factory,
               std::unique_ptr<Adversary> adversary, EngineConfig config,
               std::uint64_t seed, EngineWorkspace* workspace)
    : adversary_(std::move(adversary)), config_(config), seed_(seed) {
  DYNET_CHECK(adversary_ != nullptr) << "no adversary";
  n_ = adversary_->numNodes();
  DYNET_CHECK(n_ >= 1) << "adversary has " << n_ << " nodes";
  // Anonymous mode keeps the object path: SoA models address state by
  // real node id, which is exactly what the mode hides.  Duplex mode does
  // too: the SoA delivery loops implement send-xor-receive only.
  if (!config_.anonymous && !config_.duplex) {
    soa_ = factory.createSoA(n_);
  }
  if (soa_ == nullptr) {
    processes_.reserve(static_cast<std::size_t>(n_));
    for (NodeId v = 0; v < n_; ++v) {
      processes_.push_back(factory.create(v, n_));
    }
  }
  init(workspace);
}

void Engine::init(EngineWorkspace* workspace) {
  budget_bits_ = config_.msg_budget_bits > 0 ? config_.msg_budget_bits
                                             : defaultBudgetBits(n_);
  DYNET_CHECK(budget_bits_ <= Message::kCapacityBits)
      << "budget " << budget_bits_ << " exceeds message capacity";
  const auto np = static_cast<std::size_t>(n_);
  result_.done_round.assign(np, -1);
  result_.bits_per_node.assign(np, 0);
  if (workspace != nullptr) {
    ws_ = workspace;
  } else {
    owned_ws_ = std::make_unique<EngineWorkspace>();
    ws_ = owned_ws_.get();
  }
  ws_->reset();
  if (soa_ != nullptr) {
    soa_->bind(n_, ws_->soa);
  }
  pipeline_ = makeDefaultPipeline();
  if (config_.metrics != nullptr) {
    obs_ = std::make_unique<EngineObs>(config_.metrics);
    config_.metrics->registry.gauge("engine/num_nodes")
        ->set(static_cast<double>(n_));
    config_.metrics->registry.gauge("engine/budget_bits")
        ->set(static_cast<double>(budget_bits_));
  }
}

Engine::~Engine() {
  // A model may keep objects in the workspace's SoAStore
  // (sim/process_array.h): release it while an owned workspace still exists.
  soa_.reset();
}

const Process& Engine::process(NodeId v) const {
  if (soa_ == nullptr) {
    return *processes_[static_cast<std::size_t>(v)];
  }
  const Process* p = soa_->process(v);
  DYNET_CHECK(p != nullptr)
      << "process(" << v << ") on a column SoA model; use nodeDone/"
      << "nodeOutput/stateDigest, which work on both representations";
  return *p;
}

bool Engine::nodeDone(NodeId v) const {
  return soa_ != nullptr ? soa_->done(v)
                         : processes_[static_cast<std::size_t>(v)]->done();
}

std::uint64_t Engine::nodeOutput(NodeId v) const {
  return soa_ != nullptr ? soa_->output(v)
                         : processes_[static_cast<std::size_t>(v)]->output();
}

std::uint64_t Engine::stateDigest(NodeId v) const {
  return soa_ != nullptr
             ? soa_->stateDigest(v)
             : processes_[static_cast<std::size_t>(v)]->stateDigest();
}

void Engine::setFaultInjector(
    std::shared_ptr<const faults::FaultInjector> injector) {
  DYNET_CHECK(round_ == 0) << "fault injector attached mid-run";
  if (injector != nullptr) {
    DYNET_CHECK(injector->plan().numNodes() == n_)
        << "fault plan nodes " << injector->plan().numNodes()
        << " != processes " << n_;
  }
  injector_ = std::move(injector);
  if (injector_ != nullptr) {
    ws_->crash_counted.assign(static_cast<std::size_t>(n_), 0);
  }
}

bool Engine::allDone() const {
  if (soa_ != nullptr) {
    return allLiveDone(*soa_, n_, injector_.get(), round_);
  }
  return allLiveDone(processes_, injector_.get(), round_);
}

bool Engine::step() {
  if (round_ >= config_.max_rounds) {
    return false;
  }
  ++round_;

  RoundContext ctx;
  ctx.processes = &processes_;
  ctx.adversary = adversary_.get();
  ctx.config = &config_;
  ctx.injector = injector_.get();
  ctx.ws = ws_;
  ctx.result = &result_;
  ctx.topologies = &topologies_;
  ctx.action_trace = &actions_;
  ctx.obs = obs_.get();
  ctx.seed = seed_;
  ctx.budget_bits = budget_bits_;
  ctx.n = n_;
  ctx.soa = soa_.get();

  ctx.round = round_;
  ctx.faulty = injector_ != nullptr;
  ctx.bits_before = result_.bits_sent;
  ctx.messages_before = result_.messages_sent;
  obs::TraceWriter* tracer = obs_ != nullptr ? obs_->trace : nullptr;
  ctx.span_start = tracer != nullptr ? tracer->nowUs() : 0.0;

  for (const auto& phase : pipeline_) {
    phase->run(ctx);
  }
  return true;
}

void Engine::finalizeMetrics() {
  if (obs_ == nullptr) {
    return;
  }
  auto& reg = obs_->sink->registry;
  reg.gauge("engine/rounds")->set(static_cast<double>(result_.rounds_executed));
  reg.gauge("engine/all_done")->set(result_.all_done ? 1.0 : 0.0);
  reg.gauge("engine/all_done_round")
      ->set(static_cast<double>(result_.all_done_round));
  reg.gauge("engine/max_bits_per_node")
      ->set(static_cast<double>(result_.max_bits_per_node));
  // Execution-shape gauges (reserved soa// prefix, docs/OBSERVABILITY.md):
  // which state representation ran and how the strided worker loops were
  // shaped.  The only metrics allowed to differ between the object and SoA
  // paths.
  const int stride_workers = soa_ != nullptr ? soaStrideWorkers(config_) : 1;
  reg.gauge("soa//active")->set(soa_ != nullptr ? 1.0 : 0.0);
  reg.gauge("soa//stride_workers")->set(static_cast<double>(stride_workers));
  std::uint64_t stride_imbalance = 0;
  if (stride_workers > 1) {
    // Live nodes per stride class (max - min): how uneven the last live
    // mask leaves the worker loops.
    std::vector<std::uint64_t> per_class(
        static_cast<std::size_t>(stride_workers), 0);
    const bool masked = injector_ != nullptr &&
                        ws_->alive.size() == static_cast<std::size_t>(n_);
    for (NodeId v = 0; v < n_; ++v) {
      if (!masked || ws_->alive[static_cast<std::size_t>(v)] != 0) {
        ++per_class[static_cast<std::size_t>(v % stride_workers)];
      }
    }
    std::uint64_t lo = per_class[0];
    std::uint64_t hi = per_class[0];
    for (const std::uint64_t c : per_class) {
      lo = c < lo ? c : lo;
      hi = c > hi ? c : hi;
    }
    stride_imbalance = hi - lo;
  }
  reg.gauge("soa//stride_imbalance")
      ->set(static_cast<double>(stride_imbalance));
  obs::Series* node_bits = reg.series("node/bits_sent");
  obs::Series* node_done = reg.series("node/done_round");
  std::vector<std::pair<std::string, double>> exported;
  for (NodeId v = 0; v < n_; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    node_bits->setAt(idx, static_cast<double>(result_.bits_per_node[idx]));
    node_done->setAt(idx, static_cast<double>(result_.done_round[idx]));
    exported.clear();
    if (soa_ != nullptr) {
      soa_->exportMetrics(v, exported);
    } else {
      processes_[idx]->exportMetrics(exported);
    }
    for (const auto& [key, value] : exported) {
      reg.series("node/" + key)->setAt(idx, value);
    }
  }
}

RunResult Engine::run() {
  DYNET_PROF("engine/run");
  while (round_ < config_.max_rounds) {
    if (config_.stop_when_all_done && result_.all_done) {
      break;
    }
    step();
  }
  finalizeMetrics();
  return result_;
}

}  // namespace dynet::sim
