// Golden-corpus regression: canonical run digests pinned to files.
//
// One canonical run per protocol family plus one per lower-bound
// construction (Γ = CFloodNetwork, Λ = ConsensusNetwork on a DISJ=1
// instance, Υ = ConsensusNetwork on a DISJ=0 instance).  Each run's
// artifacts — RunResult fields, per-node state digests, and an FNV-1a
// digest of the serialized trace — are written as key=value lines and
// compared byte-for-byte against `tests/golden/<name>.golden`.
//
// Unlike the differential fuzz test (which compares the engine against the
// reference simulator and so would miss a bug shared by both), the corpus
// pins today's behaviour against the repository history: any engine,
// protocol, adversary, or trace-format change that shifts a canonical run
// fails here with a readable key-level diff.  Each canonical run is
// rendered twice — by the engine and by the naive reference simulator
// (tests/reference_sim.h) — and both renderings must equal the same
// .golden file.
//
// Regenerate intentionally with scripts/regen_golden.sh (which runs this
// binary with DYNET_REGEN_GOLDEN=1) and commit the .golden diff alongside
// the change that explains it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "adversary/trace_adversary.h"
#include "cc/disjointness_cp.h"
#include "dataset/compiled_format.h"
#include "dataset/text_format.h"
#include "dataset/trace.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "lowerbound/composition.h"
#include "lowerbound/distance_lb.h"
#include "net/graph.h"
#include "protocols/cflood.h"
#include "protocols/counting.h"
#include "protocols/diameter_approx.h"
#include "protocols/distance_bfs.h"
#include "protocols/flood.h"
#include "protocols/gossip.h"
#include "protocols/hear_from_n.h"
#include "protocols/max_flood.h"
#include "protocols/oracles.h"
#include "protocols/resilient_flood.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "reference_sim.h"

#ifndef DYNET_GOLDEN_DIR
#error "DYNET_GOLDEN_DIR must point at tests/golden"
#endif

namespace dynet {
namespace {

/// FNV-1a over the serialized trace.  Deliberately not std::hash (which is
/// implementation-defined and may differ across standard libraries): the
/// .golden files must mean the same bytes on every toolchain.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::string joined(const std::vector<T>& xs) {
  std::ostringstream out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out << (i == 0 ? "" : ",") << xs[i];
  }
  return out.str();
}

/// The canonical artifact rendering: stable key=value lines, one per
/// field, so a golden mismatch reads as a field-level diff in gtest
/// output rather than an opaque hash flip.
std::string renderArtifacts(const sim::RunResult& r,
                            const std::vector<std::uint64_t>& digests,
                            const sim::Trace& run_trace) {
  std::ostringstream out;
  out << "rounds_executed=" << r.rounds_executed << "\n";
  out << "all_done=" << (r.all_done ? 1 : 0) << "\n";
  out << "all_done_round=" << r.all_done_round << "\n";
  out << "done_round=" << joined(r.done_round) << "\n";
  out << "messages_sent=" << r.messages_sent << "\n";
  out << "bits_sent=" << r.bits_sent << "\n";
  out << "bits_per_node=" << joined(r.bits_per_node) << "\n";
  out << "max_bits_per_node=" << r.max_bits_per_node << "\n";
  out << "bits_per_round=" << joined(r.bits_per_round) << "\n";
  out << "crashes=" << r.crashes << "\n";
  out << "restarts=" << r.restarts << "\n";
  out << "messages_dropped=" << r.messages_dropped << "\n";
  out << "messages_corrupted=" << r.messages_corrupted << "\n";
  std::uint64_t state = 1469598103934665603ull;
  for (const std::uint64_t digest : digests) {
    state = util::hashCombine(state, digest);
  }
  out << "state_digest=" << state << "\n";
  std::ostringstream trace;
  sim::writeTrace(trace, run_trace);
  out << "trace_fnv1a=" << fnv1a(trace.str()) << "\n";
  return out.str();
}

sim::EngineConfig canonicalConfig(sim::Round rounds) {
  sim::EngineConfig config;
  config.max_rounds = rounds;
  config.record_topologies = true;
  config.record_actions = true;
  config.stop_when_all_done = false;
  return config;
}

/// A maker of fresh adversaries built from copies of `args`: the engine and
/// the reference each need their own adversary for the same canonical run.
template <typename A, typename... Args>
auto freshAdversary(Args... args) {
  return [=] { return std::make_unique<A>(args...); };
}

/// One canonical run rendered by the engine and by the reference.
struct Rendered {
  std::string engine;
  std::string reference;
};

/// `make_adversary` is called twice: each simulator gets a fresh adversary.
template <typename MakeAdversary>
Rendered runCanonical(const sim::ProcessFactory& factory,
                      MakeAdversary make_adversary, sim::Round rounds,
                      std::uint64_t seed,
                      const faults::FaultConfig* fc = nullptr,
                      bool duplex = false) {
  std::unique_ptr<sim::Adversary> adversary = make_adversary();
  const sim::NodeId n = adversary->numNodes();
  std::shared_ptr<const faults::FaultInjector> injector;
  if (fc != nullptr) {
    injector = std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(n, *fc, seed ^ 0xFA), &factory);
  }
  // Factory construction takes the SoA model where one exists, so the
  // .golden files pin the SoA engine against the repository history and
  // the reference pins the object semantics.
  sim::EngineConfig config = canonicalConfig(rounds);
  config.duplex = duplex;
  sim::Engine engine(factory, std::move(adversary), config, seed);
  engine.setFaultInjector(injector);
  const sim::RunResult r = engine.run();
  std::vector<std::uint64_t> digests;
  for (sim::NodeId v = 0; v < n; ++v) {
    digests.push_back(engine.stateDigest(v));
  }
  Rendered rendered;
  rendered.engine = renderArtifacts(r, digests, sim::traceFromEngine(engine));
  const ref::ReferenceRun reference =
      ref::runReference(factory, make_adversary(), config, seed, injector);
  rendered.reference =
      renderArtifacts(reference.result, reference.digests, reference.trace);
  return rendered;
}

/// Compares both renderings against DYNET_GOLDEN_DIR/<name>.golden, or
/// rewrites the file from the engine rendering when DYNET_REGEN_GOLDEN is
/// set (the reference is then still checked against the engine).
void expectGolden(const std::string& name, const Rendered& rendered) {
  const std::string path = std::string(DYNET_GOLDEN_DIR) + "/" + name + ".golden";
  EXPECT_EQ(rendered.engine, rendered.reference)
      << "engine and reference simulator disagree on " << name;
  if (std::getenv("DYNET_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered.engine;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run scripts/regen_golden.sh";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), rendered.engine)
      << "engine run drifted from " << path
      << " — if intentional, regenerate via scripts/regen_golden.sh and "
         "commit the diff";
  EXPECT_EQ(expected.str(), rendered.reference)
      << "reference simulator run drifted from " << path;
}

// ------------------------------------------------------------- protocols

TEST(GoldenCorpus, FloodDeterministicOnEdgeChurn) {
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                              /*halt_round=*/40);
  expectGolden("flood_det_edge_churn",
               runCanonical(factory,
                            freshAdversary<adv::EdgeChurnAdversary>(20, 2, 7),
                            /*rounds=*/48, /*seed=*/0xA001));
}

TEST(GoldenCorpus, FloodRandomizedOnRandomGraph) {
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kRandomized,
                              /*halt_round=*/40);
  expectGolden(
      "flood_rand_random_graph",
      runCanonical(factory,
                   freshAdversary<adv::RandomGraphAdversary>(18, 0.4, 5),
                   /*rounds=*/48, /*seed=*/0xA002));
}

TEST(GoldenCorpus, MaxFloodOnRotatingStar) {
  std::vector<std::uint64_t> values;
  for (int v = 0; v < 16; ++v) {
    values.push_back(static_cast<std::uint64_t>((v * 37 + 11) % 100));
  }
  proto::MaxFloodFactory factory(values, 8, /*total_rounds=*/40);
  expectGolden("max_flood_rotating_star",
               runCanonical(factory,
                            freshAdversary<adv::RotatingStarAdversary>(16),
                            /*rounds=*/48, /*seed=*/0xA003));
}

TEST(GoldenCorpus, CFloodOnShufflePath) {
  proto::CFloodFactory factory(0, 0x15, 8, proto::FloodMode::kDeterministic,
                               /*wait_rounds=*/15);
  expectGolden("cflood_shuffle_path",
               runCanonical(factory,
                            freshAdversary<adv::ShufflePathAdversary>(16, 3),
                            /*rounds=*/40, /*seed=*/0xA004));
}

TEST(GoldenCorpus, CountingOnIntervalAdversary) {
  proto::CountingFactory factory(/*k=*/2, /*total_rounds=*/60,
                                 /*master_seed=*/0xC0);
  expectGolden("counting_interval",
               runCanonical(factory,
                            freshAdversary<adv::IntervalAdversary>(12, 6, 4),
                            /*rounds=*/60, /*seed=*/0xA005));
}

TEST(GoldenCorpus, HearFromNOnAnchoredStar) {
  proto::HearFromNFactory factory(/*k=*/8, /*max_rounds=*/60,
                                  /*master_seed=*/0xB1, /*epsilon=*/0.1);
  expectGolden("hear_from_n_anchored_star",
               runCanonical(factory,
                            freshAdversary<adv::AnchoredStarAdversary>(14, 6),
                            /*rounds=*/60, /*seed=*/0xA006));
}

TEST(GoldenCorpus, GossipOnRandomTree) {
  proto::GossipFactory factory(/*total_tokens=*/4, /*total_rounds=*/56);
  expectGolden("gossip_random_tree",
               runCanonical(factory,
                            freshAdversary<adv::RandomTreeAdversary>(14, 8),
                            /*rounds=*/56, /*seed=*/0xA007));
}

TEST(GoldenCorpus, BabblerUnderFaults) {
  proto::RandomBabblerFactory factory(20);
  faults::FaultConfig fc;
  fc.drop_prob = 0.2;
  fc.corrupt_prob = 0.1;
  fc.deliver_corrupted = true;
  fc.crash_fraction = 0.25;
  fc.crash_window = 24;
  fc.restart = true;
  fc.restart_downtime = 8;
  expectGolden(
      "babbler_faulted_random_graph",
      runCanonical(factory,
                   freshAdversary<adv::RandomGraphAdversary>(16, 0.5, 9),
                   /*rounds=*/48, /*seed=*/0xA008, &fc));
}

// ------------------------------------------- distance protocols (duplex)

// The diam_* runs pin the full-duplex delivery path (EngineConfig::duplex)
// against the repository history — none of the other corpus entries reach
// it — together with the gadget constructions they are designed to decide.

TEST(GoldenCorpus, DiamExactOnAchGadget) {
  const lb::AchBitGadget gadget(20, /*width=*/0, /*seed=*/0xD1,
                                /*intersect=*/true);
  proto::DiamExactFactory factory;
  expectGolden(
      "diam_exact_ach_gadget",
      runCanonical(factory,
                   freshAdversary<adv::StaticAdversary>(gadget.graph()),
                   /*rounds=*/proto::DiamExactProcess::scheduleRounds(20) + 1,
                   /*seed=*/0xA00A, nullptr, /*duplex=*/true));
}

TEST(GoldenCorpus, Diam2ApproxOnBkGadget) {
  const lb::BkApproxGadget gadget(24, /*width=*/0, /*stretch=*/1,
                                  /*seed=*/0xD2, /*orthogonal=*/false);
  proto::Diam2ApproxFactory factory(0);
  expectGolden(
      "diam_2approx_bk_gadget",
      runCanonical(factory,
                   freshAdversary<adv::StaticAdversary>(gadget.graph()),
                   /*rounds=*/proto::Diam2ApproxProcess::scheduleRounds(24) + 1,
                   /*seed=*/0xA00B, nullptr, /*duplex=*/true));
}

TEST(GoldenCorpus, Diam32ApproxOnTorus) {
  proto::Diam32ApproxFactory factory(/*seed=*/0xD3);
  expectGolden(
      "diam_32approx_torus",
      runCanonical(
          factory,
          freshAdversary<adv::StaticAdversary>(net::makeTorus(4, 5)),
          /*rounds=*/proto::Diam32ApproxProcess::scheduleRounds(20) + 1,
          /*seed=*/0xA00C, nullptr, /*duplex=*/true));
}

// ------------------------------------------------------ dataset replay

// Pins the full dataset pipeline against the repository history: text
// parse of the committed fixture (label interning, interval merging,
// bucketing), compilation to the delta timeline, the content hash of the
// canonical serialization, and a flood replay through TraceAdversary.
// Any drift in parser semantics, compiled layout, or replay order fails
// here even if text and cache paths drift together (which the
// differential checks cannot see).
TEST(GoldenCorpus, TraceReplayFixture) {
  const std::string path =
      std::string(DYNET_GOLDEN_DIR) + "/fixture.events";
  // Parse straight from text — no sidecar cache read/write, so the golden
  // dir stays pristine and the rendering exercises the parser every run.
  const dataset::CompiledTrace trace =
      dataset::compile(dataset::parseEventListFile(path));
  std::ostringstream header;
  header << "num_nodes=" << trace.num_nodes << "\n";
  header << "num_rounds=" << trace.rounds << "\n";
  header << "content_hash=" << dataset::contentHash(trace) << "\n";
  auto shared = std::make_shared<const dataset::CompiledTrace>(trace);
  adv::TraceReplayOptions options;
  options.policy = adv::TraceReplayOptions::EndPolicy::kMirror;
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                              /*halt_round=*/40);
  Rendered rendered = runCanonical(
      factory,
      freshAdversary<adv::TraceAdversary>(shared, options),
      /*rounds=*/48, /*seed=*/0xA009);
  rendered.engine = header.str() + rendered.engine;
  rendered.reference = header.str() + rendered.reference;
  expectGolden("trace_replay_fixture", rendered);
}

// ------------------------------------------- lower-bound constructions

template <typename Network>
Rendered runLowerBoundReference(const Network& network, std::uint64_t seed) {
  proto::RandomBabblerFactory babbler(24);
  return runCanonical(
      babbler, [&] { return network.referenceAdversary(); }, network.horizon(),
      seed);
}

TEST(GoldenCorpus, GammaCFloodNetworkReferenceRun) {
  util::Rng rng(31);
  const cc::Instance inst = cc::randomInstance(2, 9, rng, /*force=*/1);
  const lb::CFloodNetwork network(inst);
  expectGolden("gamma_cflood_network",
               runLowerBoundReference(network, /*seed=*/0xB001));
}

TEST(GoldenCorpus, LambdaConsensusNetworkDisj1ReferenceRun) {
  util::Rng rng(33);
  const cc::Instance inst = cc::randomInstance(2, 9, rng, /*force=*/1);
  const lb::ConsensusNetwork network(inst);
  expectGolden("lambda_consensus_network_disj1",
               runLowerBoundReference(network, /*seed=*/0xB002));
}

TEST(GoldenCorpus, UpsilonConsensusNetworkDisj0ReferenceRun) {
  util::Rng rng(35);
  const cc::Instance inst = cc::randomInstance(2, 9, rng, /*force=*/0);
  const lb::ConsensusNetwork network(inst);
  expectGolden("upsilon_consensus_network_disj0",
               runLowerBoundReference(network, /*seed=*/0xB003));
}

}  // namespace
}  // namespace dynet
