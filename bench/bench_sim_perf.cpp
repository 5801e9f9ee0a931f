// E9 — infrastructure throughput (google-benchmark): round-engine
// node-rounds/sec across adversaries, dynamic-diameter solves, and the
// Γ/Λ adversary edge generation that dominates reduction runs.
//
// A second, non-google-benchmark family of modes compares engine
// configurations pairwise (invoked as `bench_sim_perf [--quick] MODE...`,
// any subset; results for all requested modes land in one
// BENCH_sim_perf.json, override with --json-out=PATH; add
// --metrics-out=PATH for a metrics.json with the soa// execution-shape
// gauges the lane dispatch records — see docs/OBSERVABILITY.md):
//
//   batch-vs-sequential  trials/sec of the historical sequential loop
//                        (fresh Engine and workspace per seed, per-round
//                        star construction, map-merged metrics, one
//                        thread) against sim::BatchRunner (pre-warmed
//                        periodic stars, pooled workspaces, dense
//                        TrialRecorder).
//   soa-vs-objects       single-core BatchRunner vs BatchRunner, only the
//                        Engine constructor differs — per-node Process
//                        objects vs the SoA model: max_flood's flat column
//                        store (sim/soa.h), and LEADERELECT's contiguous
//                        process array (sim/process_array.h).
//   manyworlds-vs-scalar single-core scalar flood engines vs the
//                        bit-parallel 64-trials-per-word lanes of
//                        protocols/manyworlds.h via BatchRunner::runLanes.
//
// Every mode verifies the two legs agree metric for metric (exact summary
// equality) before reporting — a mismatch means the new hot path changed
// behaviour, and the bench exits 1.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "obs/sink.h"
#include "cc/disjointness_cp.h"
#include "lowerbound/composition.h"
#include "adversary/churn_adversaries.h"
#include "protocols/flood.h"
#include "protocols/leader_unknown_d.h"
#include "protocols/manyworlds.h"
#include "protocols/max_flood.h"
#include "protocols/oracles.h"
#include "sim/batch.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dynet {
namespace {

void BM_EngineMaxFlood(benchmark::State& state) {
  const auto n = static_cast<sim::NodeId>(state.range(0));
  std::vector<std::uint64_t> values(static_cast<std::size_t>(n), 1);
  std::int64_t node_rounds = 0;
  for (auto _ : state) {
    proto::MaxFloodFactory factory(values, 8, 1 << 20);
    auto engine = bench::makeEngine(
        factory, bench::makeAdversary("rotating_star", n, 42), 256, 7);
    for (int r = 0; r < 256; ++r) {
      engine.step();
    }
    node_rounds += 256 * n;
    benchmark::DoNotOptimize(engine.result().bits_sent);
  }
  state.counters["node_rounds/s"] = benchmark::Counter(
      static_cast<double>(node_rounds), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineMaxFlood)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EngineRandomTree(benchmark::State& state) {
  const auto n = static_cast<sim::NodeId>(state.range(0));
  std::int64_t node_rounds = 0;
  for (auto _ : state) {
    proto::RandomBabblerFactory factory(24);
    auto engine = bench::makeEngine(
        factory, bench::makeAdversary("random_tree", n, 42), 128, 7);
    for (int r = 0; r < 128; ++r) {
      engine.step();
    }
    node_rounds += 128 * n;
    benchmark::DoNotOptimize(engine.result().bits_sent);
  }
  state.counters["node_rounds/s"] = benchmark::Counter(
      static_cast<double>(node_rounds), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineRandomTree)->Arg(256)->Arg(1024);

void BM_DynamicDiameter(benchmark::State& state) {
  const auto n = static_cast<sim::NodeId>(state.range(0));
  auto adversary = bench::makeAdversary("shuffle_path", n, 9);
  net::TopologySeq topologies;
  std::vector<sim::Action> receiving(static_cast<std::size_t>(n));
  for (sim::Round r = 1; r <= 3 * n; ++r) {
    topologies.push_back(adversary->topology(r, {receiving}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dynamicDiameter(topologies, 8));
  }
}
BENCHMARK(BM_DynamicDiameter)->Arg(256)->Arg(1024);

void BM_GammaLambdaTopology(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  util::Rng rng(4);
  const cc::Instance inst = cc::randomInstance(2, q, rng, 0);
  const lb::CFloodNetwork network(inst);
  auto adversary = network.referenceAdversary();
  std::vector<sim::Action> receiving(
      static_cast<std::size_t>(network.numNodes()));
  sim::Round r = 1;
  for (auto _ : state) {
    auto g = adversary->topology(r % network.horizon() + 1, {receiving});
    benchmark::DoNotOptimize(g->numEdges());
    ++r;
  }
  state.counters["nodes"] = network.numNodes();
}
BENCHMARK(BM_GammaLambdaTopology)->Arg(61)->Arg(241);

// ------------------------------------------------- batch-vs-sequential mode

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The workload both runners execute: MaxFlood on a rotating star (the
/// Θ(N)-causal-diameter adversary, so runs go the full horizon).  The
/// caller supplies the adversary so the two runners can differ in *how*
/// the topologies are produced while the topology values stay identical,
/// and `objects` selects per-node Process objects over the SoA model so the
/// legs can differ in *how* rounds execute while the results stay
/// identical.
sim::RunResult runWorkloadTrial(sim::NodeId n, sim::Round rounds,
                                std::uint64_t seed,
                                std::unique_ptr<sim::Adversary> adversary,
                                sim::EngineWorkspace* ws = nullptr,
                                bool objects = false) {
  std::vector<std::uint64_t> values(static_cast<std::size_t>(n), 1);
  proto::MaxFloodFactory factory(values, 8, 1 << 20);
  if (objects) {
    return bench::makeObjectEngine(factory, std::move(adversary), rounds, seed,
                                   ws)
        .run();
  }
  return bench::makeEngine(factory, std::move(adversary), rounds, seed,
                           /*record=*/false, ws)
      .run();
}

/// One full period of the rotating star's topology sequence, pre-warmed.
/// RotatingStarAdversary rebuilds makeStar(n, (round-1) % n) from scratch
/// every round of every trial; a PeriodicAdversary over this cycle yields
/// value-identical graphs while paying construction once.  Sharing the
/// GraphPtrs across trial threads is safe since Graph's lazy caches went
/// behind std::call_once (and warm(), which PeriodicAdversary calls).
std::vector<net::GraphPtr> rotatingStarCycle(sim::NodeId n) {
  std::vector<net::GraphPtr> stars;
  stars.reserve(static_cast<std::size_t>(n));
  for (sim::NodeId center = 0; center < n; ++center) {
    stars.push_back(net::makeStar(n, center));
  }
  return stars;
}

struct CompareResult {
  sim::NodeId n = 0;
  int trials = 0;
  sim::Round rounds = 0;
  double baseline_trials_per_sec = 0;
  double new_trials_per_sec = 0;
  double speedup = 0;
};

struct ModeReport {
  std::string mode;
  std::string workload;
  std::string baseline_label;  // JSON key for the baseline leg's rate
  std::string new_label;       // JSON key for the new leg's rate
  std::vector<CompareResult> results;
};

/// RunResult → the four metrics every comparison aggregates.
std::map<std::string, double> trialMetrics(const sim::RunResult& r) {
  return {
      {"rounds", static_cast<double>(r.rounds_executed)},
      {"bits", static_cast<double>(r.bits_sent)},
      {"messages", static_cast<double>(r.messages_sent)},
      {"max_node_bits", static_cast<double>(r.max_bits_per_node)},
  };
}

/// Exact summary equality between the two legs — same seeds, same engine
/// semantics, same trial-order merge.  A mismatch means the configuration
/// under test changed behaviour, which the whole PR forbids.
void requireEqualSummaries(const std::map<std::string, util::Summary>& a,
                           const std::map<std::string, util::Summary>& b,
                           const std::string& mode) {
  for (const auto& [name, summary] : a) {
    const util::Summary& other = b.at(name);
    if (other.count() != summary.count() || other.mean() != summary.mean() ||
        other.min() != summary.min() || other.max() != summary.max()) {
      std::cerr << "FATAL: " << mode << " leg mismatch on metric " << name
                << " (mean " << other.mean() << " vs " << summary.mean()
                << ")\n";
      std::exit(1);
    }
  }
}

/// Repetitions per leg; each comparison reports the fastest rep so a
/// background-noise spike on one leg does not masquerade as a speedup
/// (or slowdown) of the other.  Legs are interleaved per rep to
/// decorrelate slow machine-wide drift.
constexpr int kReps = 3;

CompareResult compareBatchVsSequential(sim::NodeId n, int trials,
                                       sim::Round rounds,
                                       std::uint64_t base_seed) {
  double seq_secs = 0;
  double batch_secs = 0;
  std::map<std::string, util::Summary> sequential;
  std::map<std::string, util::Summary> batch_metrics;
  for (int rep = 0; rep < kReps; ++rep) {
    // Baseline: the pre-BatchRunner shape — one thread, a fresh Engine
    // (own workspace) per trial, per-round topology construction, and a
    // fresh metric map per trial, merged map-by-map.
    const double seq_start = nowSeconds();
    std::map<std::string, util::Summary> seq;
    for (int i = 0; i < trials; ++i) {
      const sim::RunResult r = runWorkloadTrial(
          n, rounds, util::hashCombine(base_seed, static_cast<std::size_t>(i)),
          bench::makeAdversary("rotating_star", n, 42));
      for (const auto& [name, value] : trialMetrics(r)) {
        seq[name].add(value);
      }
    }
    const double seq_rep = nowSeconds() - seq_start;

    sim::BatchRunner runner;
    const sim::MetricId m_rounds = runner.metricId("rounds");
    const sim::MetricId m_bits = runner.metricId("bits");
    const sim::MetricId m_messages = runner.metricId("messages");
    const sim::MetricId m_max_node_bits = runner.metricId("max_node_bits");
    // Topology construction and cache warm-up are part of what the batch
    // path amortizes away, but they should not be *timed into* a
    // trials/sec figure that claims to measure the round engine: hoist
    // them.
    const std::vector<net::GraphPtr> stars = rotatingStarCycle(n);
    const double batch_start = nowSeconds();
    const sim::TrialSummary batch = runner.run(
        trials, base_seed,
        [&](std::uint64_t seed, sim::EngineWorkspace& ws,
            sim::TrialRecorder& rec) {
          const sim::RunResult r = runWorkloadTrial(
              n, rounds, seed, std::make_unique<adv::PeriodicAdversary>(stars),
              &ws);
          rec.set(m_rounds, static_cast<double>(r.rounds_executed));
          rec.set(m_bits, static_cast<double>(r.bits_sent));
          rec.set(m_messages, static_cast<double>(r.messages_sent));
          rec.set(m_max_node_bits, static_cast<double>(r.max_bits_per_node));
        });
    const double batch_rep = nowSeconds() - batch_start;

    if (rep == 0 || seq_rep < seq_secs) {
      seq_secs = seq_rep;
    }
    if (rep == 0 || batch_rep < batch_secs) {
      batch_secs = batch_rep;
    }
    sequential = std::move(seq);
    batch_metrics = batch.metrics;
  }

  requireEqualSummaries(sequential, batch_metrics, "batch-vs-sequential");

  CompareResult out;
  out.n = n;
  out.trials = trials;
  out.rounds = rounds;
  out.baseline_trials_per_sec = trials / seq_secs;
  out.new_trials_per_sec = trials / batch_secs;
  out.speedup = seq_secs / batch_secs;
  return out;
}

/// Shared shape for single-toggle comparisons: run `trials` via
/// BatchRunner twice with `body`, once per configuration, and require
/// exact agreement.  `body(seed, ws, leg)` runs one trial for leg 0
/// (baseline) or 1 (new path).
template <typename Body>
CompareResult compareToggle(sim::NodeId n, int trials, sim::Round rounds,
                            std::uint64_t base_seed, const std::string& mode,
                            Body body, sim::BatchOptions options = {}) {
  std::map<std::string, util::Summary> legs[2];
  double secs[2] = {0, 0};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      sim::BatchRunner runner(options);
      const sim::MetricId m_rounds = runner.metricId("rounds");
      const sim::MetricId m_bits = runner.metricId("bits");
      const sim::MetricId m_messages = runner.metricId("messages");
      const sim::MetricId m_max_node_bits = runner.metricId("max_node_bits");
      const double start = nowSeconds();
      const sim::TrialSummary summary = runner.run(
          trials, base_seed,
          [&](std::uint64_t seed, sim::EngineWorkspace& ws,
              sim::TrialRecorder& rec) {
            const sim::RunResult r = body(seed, ws, leg);
            rec.set(m_rounds, static_cast<double>(r.rounds_executed));
            rec.set(m_bits, static_cast<double>(r.bits_sent));
            rec.set(m_messages, static_cast<double>(r.messages_sent));
            rec.set(m_max_node_bits, static_cast<double>(r.max_bits_per_node));
          });
      const double rep_secs = nowSeconds() - start;
      if (rep == 0 || rep_secs < secs[leg]) {
        secs[leg] = rep_secs;
      }
      legs[leg] = summary.metrics;
    }
  }

  requireEqualSummaries(legs[0], legs[1], mode);

  CompareResult out;
  out.n = n;
  out.trials = trials;
  out.rounds = rounds;
  out.baseline_trials_per_sec = trials / secs[0];
  out.new_trials_per_sec = trials / secs[1];
  out.speedup = secs[0] / secs[1];
  return out;
}

/// soa-vs-objects: identical adversary handling on both legs (periodic
/// pre-warmed stars), only the state
/// representation differs — per-node Process objects vs the flat column
/// store.  Single-core (threads = 1): the acceptance criterion measures
/// per-engine round throughput, not cross-trial parallelism.
CompareResult compareSoAVsObjects(sim::NodeId n, int trials, sim::Round rounds,
                                  std::uint64_t base_seed,
                                  const std::vector<net::GraphPtr>& stars) {
  sim::BatchOptions options;
  options.threads = 1;
  return compareToggle(
      n, trials, rounds, base_seed, "soa-vs-objects",
      [&](std::uint64_t seed, sim::EngineWorkspace& ws, int leg) {
        return runWorkloadTrial(n, rounds, seed,
                                std::make_unique<adv::PeriodicAdversary>(stars),
                                &ws, /*objects=*/leg == 0);
      },
      options);
}

/// soa-vs-objects on the paper's LEADERELECT (the campaign zoo's defaults:
/// k = 64, c = 0.25, N' = 1.1 n) against edge_churn 2: per-node heap
/// Process objects vs the same LeaderElectProcess class held contiguously
/// by sim::ProcessArrayModel.  Fixed length: phase 0 (stages A, B, C, D)
/// and 64 rounds of phase 1's stage A.
CompareResult compareLeaderSoAVsObjects(sim::NodeId n, int trials,
                                        std::uint64_t base_seed) {
  proto::LeaderConfig config;
  config.n_estimate = 1.1 * static_cast<double>(n);
  config.k = 64;
  const sim::Round rounds = proto::LeaderSchedule(config).phaseStart(1) + 63;
  sim::BatchOptions options;
  options.threads = 1;
  return compareToggle(
      n, trials, rounds, base_seed, "soa-vs-objects",
      [&](std::uint64_t seed, sim::EngineWorkspace& ws, int leg) {
        proto::LeaderElectFactory factory(config, seed);
        auto adversary = std::make_unique<adv::EdgeChurnAdversary>(n, 2, seed);
        if (leg == 0) {
          return bench::makeObjectEngine(factory, std::move(adversary), rounds,
                                         seed, &ws)
              .run();
        }
        return bench::makeEngine(factory, std::move(adversary), rounds, seed,
                                 /*record=*/false, &ws)
            .run();
      },
      options);
}

/// manyworlds-vs-scalar: a boolean-token flood sweep run trial-by-trial
/// through scalar engines vs 64 trials per uint64 word through
/// protocols/manyworlds.h and BatchRunner::runLanes.  Both legs are
/// single-core and merge in trial order, so the summaries must agree
/// exactly (the lanes reproduce the scalar coin streams bit for bit).
CompareResult compareManyWorldsVsScalar(sim::NodeId n, int trials,
                                        sim::Round rounds,
                                        std::uint64_t base_seed,
                                        const std::vector<net::GraphPtr>& stars,
                                        obs::MetricsSink* sink) {
  proto::ManyWorldsFloodSpec spec;
  spec.num_nodes = n;
  spec.source = 0;
  spec.token = 0x2a;
  spec.token_bits = 8;
  spec.mode = proto::FloodMode::kRandomized;
  spec.halt_round = rounds;
  spec.max_rounds = rounds;

  sim::BatchOptions options;
  options.threads = 1;
  // Lane-packing shape gauges (soa//lane_*) land in the metrics registry
  // when --metrics-out is given; run() ignores the sink, so sharing the
  // options between the legs is fine.
  options.sink = sink;
  std::map<std::string, util::Summary> legs[2];
  double secs[2] = {0, 0};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      sim::BatchRunner runner(options);
      const sim::MetricId m_rounds = runner.metricId("rounds");
      const sim::MetricId m_bits = runner.metricId("bits");
      const sim::MetricId m_messages = runner.metricId("messages");
      const sim::MetricId m_max_node_bits = runner.metricId("max_node_bits");
      const double start = nowSeconds();
      sim::TrialSummary summary;
      if (leg == 0) {
        summary = runner.run(
            trials, base_seed,
            [&](std::uint64_t seed, sim::EngineWorkspace& ws,
                sim::TrialRecorder& rec) {
              proto::FloodFactory factory(spec.source, spec.token,
                                          spec.token_bits, spec.mode,
                                          spec.halt_round);
              auto engine = bench::makeEngine(
                  factory, std::make_unique<adv::PeriodicAdversary>(stars),
                  rounds, seed, /*record=*/false, &ws);
              const sim::RunResult r = engine.run();
              rec.set(m_rounds, static_cast<double>(r.rounds_executed));
              rec.set(m_bits, static_cast<double>(r.bits_sent));
              rec.set(m_messages, static_cast<double>(r.messages_sent));
              rec.set(m_max_node_bits,
                      static_cast<double>(r.max_bits_per_node));
            });
      } else {
        summary = runner.runLanes(
            trials, /*lane_width=*/64,
            [&](std::size_t first_trial, int lanes, sim::LaneRecorder& rec) {
              const std::vector<proto::ManyWorldsLane> group =
                  proto::runManyWorldsFlood(spec, stars, base_seed,
                                            first_trial, lanes);
              for (int l = 0; l < lanes; ++l) {
                const sim::RunResult& r =
                    group[static_cast<std::size_t>(l)].result;
                rec.set(l, m_rounds, static_cast<double>(r.rounds_executed));
                rec.set(l, m_bits, static_cast<double>(r.bits_sent));
                rec.set(l, m_messages, static_cast<double>(r.messages_sent));
                rec.set(l, m_max_node_bits,
                        static_cast<double>(r.max_bits_per_node));
              }
            });
      }
      const double rep_secs = nowSeconds() - start;
      if (rep == 0 || rep_secs < secs[leg]) {
        secs[leg] = rep_secs;
      }
      legs[leg] = summary.metrics;
    }
  }

  requireEqualSummaries(legs[0], legs[1], "manyworlds-vs-scalar");

  CompareResult out;
  out.n = n;
  out.trials = trials;
  out.rounds = rounds;
  out.baseline_trials_per_sec = trials / secs[0];
  out.new_trials_per_sec = trials / secs[1];
  out.speedup = secs[0] / secs[1];
  return out;
}

int runCompareModes(const std::vector<std::string>& modes, bool quick,
                    const std::string& json_path,
                    const std::string& metrics_path) {
  // Registry for execution-shape gauges (the soa// reserved prefix): the
  // lane-dispatch path records how trials packed into 64-wide words, and
  // --metrics-out dumps the result for dynet_stats.
  obs::MetricsSink sink;
  obs::MetricsSink* const sink_ptr = metrics_path.empty() ? nullptr : &sink;
  struct Config {
    sim::NodeId n;
    int trials;
    sim::Round rounds;
  };
  const std::vector<Config> base_configs =
      quick ? std::vector<Config>{{256, 64, 96}}
            : std::vector<Config>{{256, 256, 128}, {1024, 96, 128}};
  // The SoA acceptance criterion is stated at n = 4096 (data layout only
  // starts to dominate once the working set leaves L2), so that mode's
  // full run adds a large-N point on top of the shared grid.
  std::vector<Config> soa_configs = base_configs;
  if (!quick) {
    soa_configs.push_back({4096, 24, 96});
  }
  // The many-worlds mode runs trial counts that are multiples of the
  // 64-trial lane width: full words are the representation's design point,
  // and the cost of a ragged tail group is already reported separately by
  // the manyWorldsLaneOccupancy gauge rather than smeared into this
  // throughput comparison.
  const std::vector<Config> mw_configs =
      quick ? base_configs
            : std::vector<Config>{{256, 256, 128}, {1024, 128, 128}};

  std::vector<ModeReport> reports;
  for (const std::string& mode : modes) {
    ModeReport report;
    report.mode = mode;
    const std::vector<Config>& configs =
        mode == "soa-vs-objects"
            ? soa_configs
            : (mode == "manyworlds-vs-scalar" ? mw_configs : base_configs);
    for (const Config& c : configs) {
      // Warm-up trial outside the timed regions (first allocations, code
      // paging) so both paths are measured steady-state.
      runWorkloadTrial(c.n, c.rounds, 0xBEEF,
                       bench::makeAdversary("rotating_star", c.n, 42));
      if (mode == "batch-vs-sequential") {
        report.workload = "max_flood/rotating_star";
        report.baseline_label = "sequential_trials_per_sec";
        report.new_label = "batch_trials_per_sec";
        report.results.push_back(
            compareBatchVsSequential(c.n, c.trials, c.rounds, 0x51A7));
      } else if (mode == "soa-vs-objects") {
        report.workload = "max_flood/rotating_star";
        report.baseline_label = "objects_trials_per_sec";
        report.new_label = "soa_trials_per_sec";
        const std::vector<net::GraphPtr> stars = rotatingStarCycle(c.n);
        report.results.push_back(
            compareSoAVsObjects(c.n, c.trials, c.rounds, 0x51A7, stars));
      } else if (mode == "manyworlds-vs-scalar") {
        report.workload = "flood_rand/rotating_star";
        report.baseline_label = "scalar_trials_per_sec";
        report.new_label = "manyworlds_trials_per_sec";
        const std::vector<net::GraphPtr> stars = rotatingStarCycle(c.n);
        report.results.push_back(compareManyWorldsVsScalar(
            c.n, c.trials, c.rounds, 0x51A7, stars, sink_ptr));
      } else {
        std::cerr << "unknown mode " << mode << "\n";
        return 2;
      }
    }
    reports.push_back(std::move(report));
    if (mode == "soa-vs-objects") {
      // The same mode on the paper's LEADERELECT, reported as its own
      // workload entry.
      ModeReport leader;
      leader.mode = mode;
      leader.workload = "leader_unknown_d/edge_churn";
      leader.baseline_label = "objects_trials_per_sec";
      leader.new_label = "soa_trials_per_sec";
      leader.results.push_back(compareLeaderSoAVsObjects(
          quick ? 256 : 1024, quick ? 2 : 8, 0x51A7));
      reports.push_back(std::move(leader));
    }
  }

  std::ofstream json(json_path);
  DYNET_CHECK(json.good()) << "cannot open " << json_path;
  json << "{\n  \"bench\": \"sim_perf\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"threads\": " << util::ThreadPool::shared().threadCount()
       << ",\n  \"modes\": [\n";
  for (std::size_t m = 0; m < reports.size(); ++m) {
    const ModeReport& report = reports[m];
    json << "    {\"mode\": \"" << report.mode << "\", \"workload\": \""
         << report.workload << "\", \"results\": [\n";
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const CompareResult& r = report.results[i];
      json << "      {\"n\": " << r.n << ", \"trials\": " << r.trials
           << ", \"rounds\": " << r.rounds << ", \"" << report.baseline_label
           << "\": " << r.baseline_trials_per_sec << ", \"" << report.new_label
           << "\": " << r.new_trials_per_sec << ", \"speedup\": " << r.speedup
           << "}" << (i + 1 < report.results.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (m + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();

  for (const ModeReport& report : reports) {
    for (const CompareResult& r : report.results) {
      std::cout << report.mode << " n=" << r.n << " trials=" << r.trials
                << " rounds=" << r.rounds << ": baseline "
                << r.baseline_trials_per_sec << " trials/s, new "
                << r.new_trials_per_sec << " trials/s, speedup " << r.speedup
                << "x\n";
    }
  }
  std::cout << "results written to " << json_path << "\n";

  if (!metrics_path.empty()) {
    std::ofstream metrics(metrics_path);
    DYNET_CHECK(metrics.good()) << "cannot open " << metrics_path;
    sink.registry.writeJson(metrics);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace dynet

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags
// it does not know, but scripts/check.sh runs every bench with --quick.
// Translate --quick into a short --benchmark_min_time before Initialize.
// Positional mode arguments (`batch-vs-sequential`, `soa-vs-objects`,
// `manyworlds-vs-scalar`, any combination, in order) select the comparison
// modes instead of the google-benchmark suites.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool quick = false;
  std::vector<std::string> modes;
  std::string json_path = "BENCH_sim_perf.json";
  std::string metrics_path;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "batch-vs-sequential" || arg == "soa-vs-objects" ||
               arg == "manyworlds-vs-scalar") {
      modes.emplace_back(arg);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_path = std::string(arg.substr(std::string_view("--json-out=").size()));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path =
          std::string(arg.substr(std::string_view("--metrics-out=").size()));
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!modes.empty()) {
    return dynet::runCompareModes(modes, quick, json_path, metrics_path);
  }
  static char min_time[] = "--benchmark_min_time=0.02";
  if (quick) {
    args.push_back(min_time);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
