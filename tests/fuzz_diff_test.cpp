// Differential fuzz: the engine against the naive reference simulator.
//
// The engine runs the model's round rule through optimized machinery: the
// structure-of-arrays state store, the incremental topology cache
// (Adversary::topologyUpdate), and a delivery loop that walks sorted CSR
// rows.  tests/reference_sim.h runs the same rule the slow, obvious way.
// Every sampled (adversary, protocol, fault plan, mode) config runs three
// ways, and all three must be BYTE-IDENTICAL in RunResult fields, per-node
// state digests and serialized traces:
//   * the factory engine (the SoA model where the protocol has one and the
//     mode allows it),
//   * the process-vector engine (object processes),
//   * the reference.
// The two engines must also write the same metrics.json, modulo the
// reserved `soa/` prefix that reports how the work was done rather than
// what the protocol did.
//
// Budget: the default config count keeps the test inside the tier-1 ctest
// `--quick` budget (a few seconds).  Set DYNET_FUZZ_CONFIGS=<count> to
// fuzz harder (e.g. 500 configs overnight); the sampled stream is stable,
// so a failure reproduces from its printed config index alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "adversary/trace_adversary.h"
#include "dataset/trace.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "lowerbound/distance_lb.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "protocols/diameter_approx.h"
#include "protocols/distance_bfs.h"
#include "protocols/flood.h"
#include "protocols/leader_unknown_d.h"
#include "protocols/max_flood.h"
#include "protocols/oracles.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/env.h"
#include "util/rng.h"
#include "reference_sim.h"

namespace dynet::sim {
namespace {

struct FuzzConfig {
  NodeId n = 0;
  Round rounds = 0;
  int adversary = 0;       // index into the zoo below
  // 0 flood-det, 1 flood-rand, 2 max_flood, 3 babbler, 4 leader_unknown_d,
  // 5 diam_exact, 6 diam_2approx, 7 diam_32approx (5+ run under
  // EngineConfig::duplex).
  int protocol = 0;
  std::uint64_t adv_seed = 0;
  std::uint64_t run_seed = 0;
  bool with_sink = false;
  bool anonymous = false;  // sampled only for send-xor-receive protocols
  bool faulty = false;
  faults::FaultConfig fc;
};

constexpr int kAdversaryKinds = 12;
constexpr int kProtocolKinds = 8;
constexpr int kLeaderProtocol = 4;
constexpr int kFirstDuplexProtocol = 5;

/// The paper's LEADERELECT at fuzz size: N' = n, a small k and gamma = 1
/// keep its stage schedule short enough for sampleConfig to run it through
/// a whole phase.
proto::LeaderConfig leaderConfig(const FuzzConfig& c) {
  proto::LeaderConfig config;
  config.n_estimate = static_cast<double>(c.n);
  config.k = 2 + static_cast<int>(c.run_seed % 3);
  config.gamma = 1;
  return config;
}

/// bk_gadget antenna length for a config (also used by the min-n clamp in
/// sampleConfig, so it must be a pure function of adv_seed).
int bkStretch(const FuzzConfig& c) {
  return static_cast<int>(c.adv_seed % 3);
}

std::unique_ptr<Adversary> makeAdversary(const FuzzConfig& c) {
  switch (c.adversary) {
    case 0:
      return std::make_unique<adv::StaticAdversary>(net::makePath(c.n));
    case 1:
      return std::make_unique<adv::StaticAdversary>(net::makeStar(c.n));
    case 2:
      return std::make_unique<adv::RandomTreeAdversary>(c.n, c.adv_seed);
    case 3:
      return std::make_unique<adv::RotatingStarAdversary>(c.n);
    case 4:
      return std::make_unique<adv::AnchoredStarAdversary>(c.n, c.adv_seed);
    case 5:
      return std::make_unique<adv::ShufflePathAdversary>(c.n, c.adv_seed);
    case 6:
      return std::make_unique<adv::IntervalAdversary>(c.n, 6, c.adv_seed);
    case 7:
      return std::make_unique<adv::EdgeChurnAdversary>(
          c.n, 1 + static_cast<int>(c.adv_seed % 4), c.adv_seed);
    case 8:
      return std::make_unique<adv::RandomGraphAdversary>(
          c.n, 0.2 + 0.1 * static_cast<double>(c.adv_seed % 5), c.adv_seed);
    case 10: {
      const lb::AchBitGadget gadget(c.n, /*width=*/0, c.adv_seed,
                                    /*intersect=*/c.adv_seed % 2 == 0);
      return std::make_unique<adv::StaticAdversary>(gadget.graph());
    }
    case 11: {
      const lb::BkApproxGadget gadget(c.n, /*width=*/0, bkStretch(c),
                                      c.adv_seed,
                                      /*orthogonal=*/(c.adv_seed / 2) % 2 == 0);
      return std::make_unique<adv::StaticAdversary>(gadget.graph());
    }
    default: {
      // Dataset replay: a synthetic trace deliberately SHORTER than the run
      // (c.rounds/3) so every end policy wraps/clamps/mirrors mid-run, with
      // the policy and seeded round-offset drawn from adv_seed.  This pulls
      // the whole dataset→TraceAdversary delta pipeline under the fuzz.
      const sim::Round trace_rounds = std::max<sim::Round>(4, c.rounds / 3);
      auto trace = std::make_shared<const dataset::CompiledTrace>(
          dataset::randomTrace(c.n, trace_rounds,
                               1 + static_cast<int>(c.adv_seed % 3),
                               c.adv_seed));
      adv::TraceReplayOptions options;
      switch (c.adv_seed % 3) {
        case 0: options.policy = adv::TraceReplayOptions::EndPolicy::kWrap; break;
        case 1: options.policy = adv::TraceReplayOptions::EndPolicy::kClamp; break;
        default: options.policy = adv::TraceReplayOptions::EndPolicy::kMirror;
      }
      options.seeded_offset = (c.adv_seed / 3) % 2 == 0;
      options.seed = c.adv_seed;
      return std::make_unique<adv::TraceAdversary>(std::move(trace), options);
    }
  }
}

std::unique_ptr<ProcessFactory> makeFactory(const FuzzConfig& c) {
  switch (c.protocol) {
    case 0:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kDeterministic, c.rounds / 2);
    case 1:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kRandomized, c.rounds / 2);
    case 2: {
      std::vector<std::uint64_t> values;
      for (NodeId v = 0; v < c.n; ++v) {
        values.push_back(static_cast<std::uint64_t>((v * 37 + 11) % 100));
      }
      return std::make_unique<proto::MaxFloodFactory>(std::move(values), 8,
                                                      c.rounds);
    }
    case 3:
      return std::make_unique<proto::RandomBabblerFactory>(20);
    case kLeaderProtocol:
      return std::make_unique<proto::LeaderElectFactory>(leaderConfig(c),
                                                         c.adv_seed);
    case 5:
      return std::make_unique<proto::DiamExactFactory>();
    case 6:
      return std::make_unique<proto::Diam2ApproxFactory>(0);
    default:
      return std::make_unique<proto::Diam32ApproxFactory>(c.adv_seed);
  }
}

/// Deterministic config #index from the master stream.  Sampling draws a
/// fixed count of values per config, so config i is reproducible without
/// replaying configs 0..i-1.
FuzzConfig sampleConfig(std::uint64_t master_seed, int index) {
  util::Rng rng(util::hashCombine(master_seed, static_cast<std::uint64_t>(index)));
  FuzzConfig c;
  c.n = static_cast<NodeId>(8 + rng.below(17));  // 8..24
  c.rounds = static_cast<Round>(30 + rng.below(41));  // 30..70
  c.adversary = static_cast<int>(rng.below(kAdversaryKinds));
  c.protocol = static_cast<int>(rng.below(kProtocolKinds));
  c.adv_seed = rng.u64();
  c.run_seed = rng.u64();
  c.with_sink = rng.below(3) == 0;
  c.faulty = rng.below(2) == 0;
  if (c.faulty) {
    c.fc.drop_prob = 0.1 * static_cast<double>(rng.below(4));        // 0..0.3
    c.fc.corrupt_prob = 0.1 * static_cast<double>(rng.below(2));     // 0/0.1
    // FloodProcess DYNET_CHECKs foreign tokens and a mangled LEADERELECT
    // tag reads past its message's end, so mangled payloads may only reach
    // protocols that tolerate them.
    c.fc.deliver_corrupted =
        c.protocol >= 2 && c.protocol != kLeaderProtocol && rng.below(2) == 0;
    c.fc.crash_fraction = 0.25 * static_cast<double>(rng.below(2));  // 0/0.25
    c.fc.crash_window = c.rounds / 2;
    c.fc.restart = rng.below(2) == 0;
    c.fc.restart_downtime = 8;
  }
  // Anonymous ports (EngineConfig::anonymous) on a quarter of the
  // send-xor-receive configs; the distance protocols run duplex, where the
  // mode is not meaningful.
  c.anonymous = c.protocol < kFirstDuplexProtocol && rng.below(4) == 0;
  // Guaranteed crash-restart coverage: every fourth config exercises
  // mid-run restarts regardless of the random draws above, so the fuzz
  // always sees a node whose state machine is torn down and re-created
  // mid-run (tests/faults_test.cpp pins a scripted instance of the same
  // scenario).
  if (index % 4 == 1) {
    c.faulty = true;
    c.fc.crash_fraction = std::max(c.fc.crash_fraction, 0.25);
    c.fc.crash_window = std::max<Round>(1, c.rounds / 2);
    c.fc.restart = true;
    c.fc.restart_downtime = 8;
  }
  // The gadget families throw below their minimum size instead of clamping
  // (tests/lowerbound_chain_test.cpp), so the sampler clamps for them.
  if (c.adversary == 10) {
    c.n = std::max(c.n, lb::AchBitGadget::minNodes(0));
  } else if (c.adversary == 11) {
    c.n = std::max(c.n, lb::BkApproxGadget::minNodes(0, bkStretch(c)));
  }
  // The diam_* schedules are affine in n; give them room to cross their
  // phase boundaries (lazy phase-2 init, top-k selection) mid-fuzz.
  if (c.protocol >= kFirstDuplexProtocol) {
    c.rounds = std::max<Round>(c.rounds, 3 * c.n + 8);
  }
  // LEADERELECT runs phases 0-2 (every stage boundary A→B→C→D→A, three
  // times) into phase 3's stage A: long enough that about a third of the
  // configs elect a leader, so done transitions are compared too.
  if (c.protocol == kLeaderProtocol) {
    const proto::LeaderSchedule schedule(leaderConfig(c));
    c.rounds = std::max<Round>(c.rounds, schedule.phaseStart(3) + 8);
  }
  return c;
}

std::string describeConfig(const FuzzConfig& c, int index) {
  std::ostringstream out;
  out << "config " << index << ": n=" << c.n << " rounds=" << c.rounds
      << " adversary=" << c.adversary << " protocol=" << c.protocol
      << " adv_seed=" << c.adv_seed << " run_seed=" << c.run_seed
      << " sink=" << c.with_sink << " anonymous=" << c.anonymous
      << " faulty=" << c.faulty;
  return out.str();
}

struct TrialArtifacts {
  RunResult result;
  std::vector<std::uint64_t> digests;
  std::string trace;
  std::string metrics_json;  // engines only; reserved-prefix lines stripped

  /// Everything but metrics_json, which the reference does not produce.
  bool sameRun(const TrialArtifacts& y) const {
    const RunResult& a = result;
    const RunResult& b = y.result;
    return a.rounds_executed == b.rounds_executed &&
           a.all_done == b.all_done && a.all_done_round == b.all_done_round &&
           a.done_round == b.done_round &&
           a.messages_sent == b.messages_sent && a.bits_sent == b.bits_sent &&
           a.bits_per_node == b.bits_per_node &&
           a.max_bits_per_node == b.max_bits_per_node &&
           a.bits_per_round == b.bits_per_round && a.crashes == b.crashes &&
           a.restarts == b.restarts &&
           a.messages_dropped == b.messages_dropped &&
           a.messages_corrupted == b.messages_corrupted &&
           digests == y.digests && trace == y.trace;
  }
};

/// Drops every line mentioning a reserved-prefix metric.  `soa/` reports
/// which state representation and worker shape executed, and is the ONLY
/// metric family allowed to differ between the SoA and object engines.
/// Both register the same protocol-level names, so stripping is symmetric
/// and the remainders stay comparable.
std::string stripReservedMetrics(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"soa/") != std::string::npos) {
      continue;
    }
    out << line << '\n';
  }
  return out.str();
}

EngineConfig fuzzEngineConfig(const FuzzConfig& c) {
  EngineConfig config;
  config.max_rounds = c.rounds;
  config.record_topologies = true;
  config.record_actions = true;
  config.stop_when_all_done = false;
  // Random crash schedules on random topologies routinely disconnect the
  // live subgraph; the fuzzer compares implementations on arbitrary
  // inputs, it does not certify model validity — so the model's
  // connectivity guard is off here (and off identically on every path).
  config.check_connectivity = false;
  // Distance protocols are specified in full-duplex broadcast CONGEST.
  config.duplex = c.protocol >= kFirstDuplexProtocol;
  config.anonymous = c.anonymous;
  return config;
}

std::shared_ptr<const faults::FaultInjector> fuzzInjector(
    const FuzzConfig& c, const ProcessFactory& factory) {
  if (!c.faulty) {
    return nullptr;
  }
  return std::make_shared<const faults::FaultInjector>(
      faults::FaultPlan(c.n, c.fc, c.run_seed * 0x9E3779B97F4A7C15ULL + 0xFA),
      &factory);
}

std::string serializedTrace(const Trace& trace) {
  std::ostringstream out;
  writeTrace(out, trace);
  return out.str();
}

/// One engine run: the factory constructor when `objects` is false, the
/// process-vector constructor when it is true.
TrialArtifacts runEngine(const FuzzConfig& c, bool objects) {
  const std::unique_ptr<ProcessFactory> factory = makeFactory(c);
  obs::MetricsSink sink;
  EngineConfig config = fuzzEngineConfig(c);
  config.metrics = c.with_sink ? &sink : nullptr;
  std::unique_ptr<Engine> engine =
      objects ? std::make_unique<Engine>(ref::createProcesses(*factory, c.n),
                                         makeAdversary(c), config, c.run_seed)
              : std::make_unique<Engine>(*factory, makeAdversary(c), config,
                                         c.run_seed);
  engine->setFaultInjector(fuzzInjector(c, *factory));
  TrialArtifacts artifacts;
  artifacts.result = engine->run();
  for (NodeId v = 0; v < c.n; ++v) {
    artifacts.digests.push_back(engine->stateDigest(v));
  }
  artifacts.trace = serializedTrace(traceFromEngine(*engine));
  if (c.with_sink) {
    std::ostringstream json;
    sink.registry.writeJson(json);
    artifacts.metrics_json = stripReservedMetrics(json.str());
  }
  return artifacts;
}

TrialArtifacts runReferenceConfig(const FuzzConfig& c) {
  const std::unique_ptr<ProcessFactory> factory = makeFactory(c);
  ref::ReferenceRun run =
      ref::runReference(*factory, makeAdversary(c), fuzzEngineConfig(c),
                        c.run_seed, fuzzInjector(c, *factory));
  TrialArtifacts artifacts;
  artifacts.result = std::move(run.result);
  artifacts.digests = std::move(run.digests);
  artifacts.trace = serializedTrace(run.trace);
  return artifacts;
}

int configCount() {
  // Unset: the --quick budget (a few seconds of tier-1 ctest time).
  // Set-but-garbage fails loudly instead of silently fuzzing 100 configs —
  // an overnight DYNET_FUZZ_CONFIGS=5OO run must not quietly do nothing.
  return static_cast<int>(
      util::envInt("DYNET_FUZZ_CONFIGS", 100, 1, 100'000'000));
}

TEST(FuzzDiff, EnginePathsMatchReferenceByteForByte) {
  const std::uint64_t master_seed = 0xF02Dull;
  const int count = configCount();
  for (int i = 0; i < count; ++i) {
    const FuzzConfig c = sampleConfig(master_seed, i);
    const TrialArtifacts reference = runReferenceConfig(c);
    const TrialArtifacts factory_engine = runEngine(c, /*objects=*/false);
    const TrialArtifacts object_engine = runEngine(c, /*objects=*/true);
    EXPECT_TRUE(factory_engine.sameRun(reference))
        << describeConfig(c, i) << " [factory engine vs reference]";
    EXPECT_TRUE(object_engine.sameRun(reference))
        << describeConfig(c, i) << " [process-vector engine vs reference]";
    EXPECT_EQ(factory_engine.metrics_json, object_engine.metrics_json)
        << describeConfig(c, i) << " [metrics.json, factory vs objects]";
    if (HasFailure()) {
      break;  // one reproducible config is enough to debug
    }
  }
}

// The stripper itself is load-bearing for the comparisons above: pin that
// it removes exactly the reserved-prefix lines and nothing else.
TEST(FuzzDiff, ReservedMetricStripping) {
  const std::string json =
      "{\n"
      "    \"engine/rounds\": 5,\n"
      "    \"topology/full_builds\": 5,\n"
      "    \"soa//active\": 1,\n"
      "    \"flood/has_token\": 1\n"
      "}\n";
  EXPECT_EQ(stripReservedMetrics(json),
            "{\n    \"engine/rounds\": 5,\n    \"topology/full_builds\": 5,"
            "\n    \"flood/has_token\": 1\n}\n");
}

}  // namespace
}  // namespace dynet::sim
