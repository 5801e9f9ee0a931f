// Repo benchmark: four seeded simulator workloads timed end to end,
// and a traced run that splits every round into layers.
//
//   perfbench --workload tree_flood --seed 7 --seconds 30 --trace 0
//             --reference-dir perfbench/reference --work-dir <dir>
//   perfbench --workload tree_flood --write-reference ... (regenerates the
//             committed reference of that workload)
//
// Each trial is built the way library callers build one: the campaign zoo
// (campaign::makeProtocolFactory / makeAdversary) and the sim::Engine factory
// constructor with a default EngineConfig, so SoA applies where a model
// exists; duplex is forced for diam_* as the zoo does.  Trials run through a
// one-thread sim::BatchRunner, and the benchmark steps the engine itself so it
// can time every round.
//
// Trials come from a fixed per-workload pool whose simulated records are
// committed under reference/.  --seed picks the order in which a run walks
// the pool and, for faulted_trace, which generated trace it replays.  A trial
// fails when its protocol check fails, when its record differs from the
// reference, or when it throws.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs every trial twice,
// plain and traced (a timing decorator around the adversary plus an
// obs::MetricsSink with a TraceWriter on the engine), requires both records
// to equal the reference, prints the per-layer metrics and writes one trial's
// Chrome trace into the work dir.  The last stdout line is a JSON object
// {"correct","attempted","failed","metrics"}; the exit code is 1 when any
// trial failed.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "dataset/compiled_format.h"
#include "dataset/text_format.h"
#include "dataset/trace.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "net/diameter.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "obs/trace_events.h"
#include "sim/adversary.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using namespace dynet;
using Clock = std::chrono::steady_clock;

double usSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// ---------------------------------------------------------------------------
// Workloads

// Token the campaign zoo's flood factory spreads from node 0.
constexpr std::uint64_t kFloodToken = 0x2a;
// faulted_trace replays one of this many generated traces per run.
constexpr int kTraces = 8;
constexpr sim::Round kTraceRounds = 4096;
constexpr int kTraceChurn = 8;

enum class Check { kFloodAll, kLeaderAgree, kDiameter };

struct Workload {
  std::string name;
  campaign::ShardConfig shard;  // protocol, adversary, n and knobs
  sim::Round horizon = 0;       // > 0: fixed round count; 0: run to the end
  Check check = Check::kFloodAll;
  bool faulted = false;         // drop+corrupt plan over a generated trace
  int pool = 0;                 // trial seeds per trace (a power of two)
};

std::optional<Workload> workloadNamed(const std::string& name) {
  Workload w;
  w.name = name;
  campaign::ShardConfig& s = w.shard;
  if (name == "tree_flood") {
    s.protocol = "flood";
    s.adversary = "random_tree";
    s.n = 1024;
    w.horizon = s.n;
    w.pool = 256;
  } else if (name == "paper_leader") {
    s.protocol = "leader_unknown_d";  // zoo defaults: k=64, c=0.25
    s.adversary = "edge_churn";
    s.churn = 2;
    s.n = 1024;
    w.check = Check::kLeaderAgree;
    w.pool = 64;
  } else if (name == "duplex_diam") {
    s.protocol = "diam_exact";
    s.adversary = "static_torus";
    s.n = 256;
    w.check = Check::kDiameter;
    w.pool = 256;
  } else if (name == "faulted_trace") {
    s.protocol = "flood";
    s.adversary = "trace";
    s.n = 1024;
    s.fault.config.drop_prob = 0.05;
    s.fault.config.corrupt_prob = 0.01;
    s.fault.config.deliver_corrupted = false;  // detect-and-drop
    w.horizon = s.n;
    w.faulted = true;
    w.pool = 64;
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint64_t workloadSalt(const Workload& w) {
  return dataset::fnv1a64(w.name);
}

int referenceEntries(const Workload& w) {
  return w.faulted ? kTraces * w.pool : w.pool;
}

// ---------------------------------------------------------------------------
// Simulated records and the committed reference

struct Record {
  sim::Round rounds = 0;
  sim::Round all_done_round = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_bits_per_node = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t outputs_hash = 0;  // FNV-1a over every node's output

  friend bool operator==(const Record&, const Record&) = default;
};

constexpr const char* kReferenceHeader =
    "# entry rounds all_done_round messages bits max_bits_per_node crashes "
    "restarts dropped corrupted outputs_hash";

std::string formatRecord(int entry, const Record& r) {
  char line[320];
  std::snprintf(line, sizeof line,
                "%d %lld %lld %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %" PRIu64 " %016" PRIx64,
                entry, static_cast<long long>(r.rounds),
                static_cast<long long>(r.all_done_round), r.messages, r.bits,
                r.max_bits_per_node, r.crashes, r.restarts, r.dropped,
                r.corrupted, r.outputs_hash);
  return line;
}

std::string referencePath(const std::string& dir, const Workload& w) {
  return dir + "/" + w.name + ".ref";
}

std::vector<Record> loadReference(const std::string& path, int entries) {
  std::ifstream in(path);
  DYNET_CHECK(in.good()) << "missing reference " << path
                         << " (regenerate with --write-reference)";
  std::vector<Record> records(static_cast<std::size_t>(entries));
  std::vector<char> seen(records.size(), 0);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    long long entry = -1;
    Record r;
    long long rounds = 0;
    long long done_round = 0;
    fields >> entry >> rounds >> done_round >> r.messages >> r.bits >>
        r.max_bits_per_node >> r.crashes >> r.restarts >> r.dropped >>
        r.corrupted >> std::hex >> r.outputs_hash;
    DYNET_CHECK(!fields.fail() && entry >= 0 && entry < entries)
        << path << ":" << line_no << ": malformed reference line";
    r.rounds = static_cast<sim::Round>(rounds);
    r.all_done_round = static_cast<sim::Round>(done_round);
    records[static_cast<std::size_t>(entry)] = r;
    seen[static_cast<std::size_t>(entry)] = 1;
  }
  DYNET_CHECK(std::count(seen.begin(), seen.end(), 1) == entries)
      << path << " covers fewer than " << entries << " entries";
  return records;
}

// ---------------------------------------------------------------------------
// Adversary timing decorator (traced run only)

struct AdversaryTally {
  double generate_us = 0;
  double csr_us = 0;
  double components_us = 0;
  std::uint64_t delta_rounds = 0;
  std::uint64_t edges_changed = 0;
  std::uint64_t csr_edges = 0;  // edges of graphs whose CSR was built here
};

// Times the wrapped adversary's topology()/topologyUpdate() calls, then on
// each cold graph forces the CSR (Graph::neighbors) and the components
// (Graph::connected) so those two costs are timed apart; the engine's own
// warm() is then a no-op.  The graphs handed back are the inner adversary's,
// so the run stays byte-identical.
class TimedAdversary final : public sim::Adversary {
 public:
  TimedAdversary(std::unique_ptr<sim::Adversary> inner, AdversaryTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  net::GraphPtr topology(sim::Round round,
                         const sim::RoundObservation& obs) override {
    const Clock::time_point start = Clock::now();
    net::GraphPtr g = inner_->topology(round, obs);
    tally_.generate_us += usSince(start, Clock::now());
    if (g != nullptr) {
      tally_.edges_changed += g->numEdges();
      force(*g);
    }
    return g;
  }

  bool topologyUpdate(sim::Round round, const sim::RoundObservation& obs,
                      const net::GraphPtr& prev,
                      sim::TopologyUpdate& out) override {
    const Clock::time_point start = Clock::now();
    const bool served = inner_->topologyUpdate(round, obs, prev, out);
    tally_.generate_us += usSince(start, Clock::now());
    if (served && out.graph != nullptr) {
      if (out.is_delta) {
        ++tally_.delta_rounds;
        tally_.edges_changed += out.edges_added + out.edges_removed;
      } else {
        tally_.edges_changed += out.graph->numEdges();
      }
      force(*out.graph);
    }
    return served;
  }

  sim::NodeId numNodes() const override { return inner_->numNodes(); }

 private:
  void force(const net::Graph& g) {
    if (g.warmed()) {
      return;
    }
    const Clock::time_point start = Clock::now();
    (void)g.neighbors(0);
    const Clock::time_point csr_done = Clock::now();
    (void)g.connected();
    tally_.csr_us += usSince(start, csr_done);
    tally_.components_us += usSince(csr_done, Clock::now());
    tally_.csr_edges += g.numEdges();
  }

  std::unique_ptr<sim::Adversary> inner_;
  AdversaryTally& tally_;
};

// ---------------------------------------------------------------------------
// Set-up: the reference, the trial order and the workload's inputs

struct DatasetTimes {
  double text_load_ms = 0;
  double cache_load_ms = 0;
  std::size_t delta_records = 0;
};

struct Inputs {
  std::vector<Record> reference;
  std::vector<int> order;  // reference entries, in run order
  int diameter = -1;       // duplex_diam oracle
  std::string trace_path;  // faulted_trace replay source
  DatasetTimes dataset;
};

std::uint64_t traceSeed(const Workload& w, int trace_index) {
  return util::hashCombine(workloadSalt(w) ^ 0x7472616365ULL,
                           static_cast<std::uint64_t>(trace_index));
}

void removeTraceFiles(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".dtc");
}

// Generates trace `trace_index`, writes it as a fresh event list and loads it
// twice through dataset::loadTrace: text parse (writing the .dtc sidecar),
// then the sidecar.  The campaign zoo's trace adversary reads the sidecar
// once more, through the memoized loadTraceShared, when the first trial
// builds it.
std::string prepareTrace(const Workload& w, int trace_index,
                         const std::string& path, DatasetTimes& times) {
  const dataset::CompiledTrace generated = dataset::randomTrace(
      w.shard.n, kTraceRounds, kTraceChurn, traceSeed(w, trace_index));
  removeTraceFiles(path);
  {
    std::ofstream out(path);
    dataset::writeEventList(out, generated);
    DYNET_CHECK(out.good()) << "cannot write " << path;
  }
  Clock::time_point start = Clock::now();
  const dataset::LoadedTrace text = dataset::loadTrace(path);
  times.text_load_ms = usSince(start, Clock::now()) / 1000.0;
  DYNET_CHECK(!text.from_cache) << path << ": fresh event list hit a cache";
  start = Clock::now();
  const dataset::LoadedTrace cached = dataset::loadTrace(path);
  times.cache_load_ms = usSince(start, Clock::now()) / 1000.0;
  DYNET_CHECK(cached.from_cache) << path << ": sidecar cache was not used";
  DYNET_CHECK(*text.trace == *cached.trace)
      << path << ": sidecar cache differs from the text parse";
  times.delta_records = cached.trace->deltaRecords();
  return path;
}

// The duplex_diam oracle: hop diameter of the zoo's static topology.
int oracleDiameter(const Workload& w) {
  const std::unique_ptr<sim::Adversary> adversary =
      campaign::makeAdversary(w.shard, 0);
  return net::staticDiameter(*adversary->topology(1, {}));
}

// Trial k of a run uses pool slot (offset + k * stride) mod pool: an odd
// stride walks a power-of-two pool in a full cycle, and the seed fixes both.
std::vector<int> trialOrder(const Workload& w, std::uint64_t seed,
                            int trace_index) {
  util::Rng rng(util::hashCombine(seed, workloadSalt(w)));
  const auto pool = static_cast<std::uint64_t>(w.pool);
  const std::uint64_t offset = rng.below(pool);
  const std::uint64_t stride = 2 * rng.below(pool / 2) + 1;
  std::vector<int> order;
  for (std::uint64_t k = 0; k < pool; ++k) {
    order.push_back(trace_index * w.pool +
                    static_cast<int>((offset + k * stride) % pool));
  }
  return order;
}

// The workload's inputs besides the reference: the diameter oracle, or trace
// `trace_index` written to `trace_path` and loaded.
Inputs makeInputs(const Workload& w, int trace_index,
                  const std::string& trace_path) {
  Inputs in;
  if (w.check == Check::kDiameter) {
    in.diameter = oracleDiameter(w);
  }
  if (w.faulted) {
    in.trace_path = prepareTrace(w, trace_index, trace_path, in.dataset);
  }
  return in;
}

// Everything a run needs before its first trial.
Inputs prepare(const Workload& w, std::uint64_t seed,
               const std::string& reference_dir, const std::string& work_dir) {
  util::Rng pick(util::hashCombine(seed, workloadSalt(w) ^ 0x706963ULL));
  const int trace_index =
      w.faulted ? static_cast<int>(pick.below(kTraces)) : 0;
  Inputs in = makeInputs(w, trace_index,
                         work_dir + "/" + w.name + "-" +
                             std::to_string(::getpid()) + ".events");
  in.reference = loadReference(referencePath(reference_dir, w),
                               referenceEntries(w));
  in.order = trialOrder(w, seed, trace_index);
  return in;
}

// ---------------------------------------------------------------------------
// One trial

// Round times as a log-bucketed histogram (0.01% relative resolution from
// 0.01 us to 100 s): its memory is fixed, so peak_rss_mb measures the
// workload rather than a sample buffer that grows with the run.
class StepHistogram {
 public:
  void add(double us) {
    const double index = std::log(std::max(us, kMinUs) / kMinUs) / kLogRatio;
    ++counts_[std::min(static_cast<std::size_t>(index), counts_.size() - 1)];
    ++total_;
  }

  /// The q-quantile (rank floor(q * (samples - 1))), as the geometric
  /// middle of its bucket; 0 without samples.
  double percentile(double q) const {
    if (total_ == 0) {
      return 0;  // every trial failed before its first round
    }
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while (seen + counts_[i] <= rank) {
      seen += counts_[i++];
    }
    return kMinUs * std::exp((static_cast<double>(i) + 0.5) * kLogRatio);
  }

 private:
  static constexpr double kMinUs = 0.01;
  static constexpr double kLogRatio = 1e-4;  // ln of the bucket width ratio
  std::vector<std::uint32_t> counts_ =
      std::vector<std::uint32_t>(static_cast<std::size_t>(
          std::log(1e8 / kMinUs) / kLogRatio) + 1);
  std::uint64_t total_ = 0;
};



struct Tracing {
  AdversaryTally* tally = nullptr;
  obs::MetricsSink* sink = nullptr;
};

struct TrialOut {
  Record record;
  bool check_ok = false;
  bool soa = false;
  double build_us = 0;         // zoo factory + adversary
  double engine_build_us = 0;  // Engine constructor + fault hook
  double step_us = 0;          // sum over Engine::step()
};

bool checkOutputs(const Workload& w, const Inputs& in,
                  const sim::Engine& engine) {
  const sim::NodeId n = engine.numNodes();
  switch (w.check) {
    case Check::kFloodAll:
      for (sim::NodeId v = 0; v < n; ++v) {
        if (engine.nodeOutput(v) != kFloodToken) {
          return false;
        }
      }
      return true;
    case Check::kLeaderAgree:
      for (sim::NodeId v = 0; v < n; ++v) {
        if (!engine.nodeDone(v) || engine.nodeOutput(v) == 0 ||
            engine.nodeOutput(v) != engine.nodeOutput(0)) {
          return false;
        }
      }
      return engine.result().all_done;
    case Check::kDiameter:
      for (sim::NodeId v = 0; v < n; ++v) {
        if (!engine.nodeDone(v) ||
            engine.nodeOutput(v) != static_cast<std::uint64_t>(in.diameter)) {
          return false;
        }
      }
      return engine.result().all_done;
  }
  return false;
}

TrialOut runTrial(const Workload& w, const Inputs& in, std::uint64_t seed,
                  sim::EngineWorkspace& ws, const Tracing& tracing,
                  StepHistogram* step_times) {
  TrialOut out;
  campaign::ShardConfig shard = w.shard;
  shard.trace = in.trace_path;

  const Clock::time_point build_start = Clock::now();
  const std::unique_ptr<sim::ProcessFactory> factory =
      campaign::makeProtocolFactory(shard, seed);
  std::unique_ptr<sim::Adversary> adversary =
      campaign::makeAdversary(shard, seed);
  const Clock::time_point engine_start = Clock::now();
  if (tracing.tally != nullptr) {
    adversary = std::make_unique<TimedAdversary>(std::move(adversary),
                                                 *tracing.tally);
  }
  sim::EngineConfig config;
  if (w.horizon > 0) {
    config.max_rounds = w.horizon;
  }
  config.duplex = shard.protocol.rfind("diam_", 0) == 0;
  config.metrics = tracing.sink;
  sim::Engine engine(*factory, std::move(adversary), config, seed, &ws);
  if (w.faulted) {
    engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(shard.n, shard.fault.config,
                          util::hashCombine(seed, 0xFA)),
        factory.get()));
  }
  const Clock::time_point run_start = Clock::now();
  out.build_us = usSince(build_start, engine_start);
  out.engine_build_us = usSince(engine_start, run_start);

  // Engine::run(), unrolled so every step is timed.
  Clock::time_point before = run_start;
  while (engine.currentRound() < config.max_rounds &&
         !(config.stop_when_all_done && engine.result().all_done)) {
    engine.step();
    const Clock::time_point after = Clock::now();
    const double us = usSince(before, after);
    out.step_us += us;
    if (step_times != nullptr) {
      step_times->add(us);
    }
    before = after;
  }
  engine.finalizeMetrics();

  const sim::RunResult& r = engine.result();
  Record& rec = out.record;
  rec.rounds = r.rounds_executed;
  rec.all_done_round = r.all_done_round;
  rec.messages = r.messages_sent;
  rec.bits = r.bits_sent;
  rec.max_bits_per_node = r.max_bits_per_node;
  rec.crashes = r.crashes;
  rec.restarts = r.restarts;
  rec.dropped = r.messages_dropped;
  rec.corrupted = r.messages_corrupted;
  std::uint64_t h = dataset::fnv1a64("");
  for (sim::NodeId v = 0; v < engine.numNodes(); ++v) {
    const std::uint64_t value = engine.nodeOutput(v);
    h = dataset::fnv1a64(
        std::string_view(reinterpret_cast<const char*>(&value), sizeof value),
        h);
  }
  rec.outputs_hash = h;
  out.check_ok = checkOutputs(w, in, engine);
  out.soa = engine.soaActive();
  return out;
}

// Runs pool entry `entry` as a one-trial BatchRunner run (trial seed
// hashCombine(base, 0) with base = hashCombine(salt, entry)); exceptions
// count as a failed trial.
struct TrialRun {
  std::optional<TrialOut> out;
  std::string error;
};

TrialRun runEntry(sim::BatchRunner& runner, const Workload& w,
                  const Inputs& in, int entry, const Tracing& tracing,
                  StepHistogram* step_times) {
  TrialRun run;
  runner.run(1,
             util::hashCombine(workloadSalt(w),
                               static_cast<std::uint64_t>(entry)),
             [&](std::uint64_t seed, sim::EngineWorkspace& ws,
                 sim::TrialRecorder&) {
               try {
                 run.out = runTrial(w, in, seed, ws, tracing, step_times);
               } catch (const std::exception& e) {
                 run.error = e.what();
               }
             });
  return run;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// VmHWM of this process image.  getrusage's ru_maxrss would also count the
// parent's footprint at fork, which Linux carries across exec.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  DYNET_CHECK(false) << "no VmHWM in /proc/self/status";
  return 0;
}

void reportFailure(const Workload& w, int entry, const std::string& why) {
  std::fprintf(stderr, "perfbench: %s entry %d failed: %s\n", w.name.c_str(),
               entry, why.c_str());
}

// Why a finished trial failed, or "" when it passed.
std::string verdict(const TrialRun& run, const Record& expected) {
  if (!run.out) {
    return "threw: " + run.error;
  }
  if (!run.out->check_ok) {
    return "protocol check failed";
  }
  if (!(run.out->record == expected)) {
    return "record " + formatRecord(0, run.out->record) +
           " differs from reference " + formatRecord(0, expected);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Modes

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  bool write_reference = false;
  std::string reference_dir = "perfbench/reference";
  std::string work_dir = ".bench_build/perfbench/work";
};

// Runs every pool entry once and rewrites the workload's reference file.
int writeReference(const Workload& w, const Args& args) {
  sim::BatchRunner runner(sim::BatchOptions{.threads = 1});
  std::vector<std::string> lines;
  int failed = 0;
  for (int t = 0; t < (w.faulted ? kTraces : 1); ++t) {
    const Inputs in = makeInputs(
        w, t, args.work_dir + "/" + w.name + "-ref-" + std::to_string(t) +
                  ".events");
    for (int slot = 0; slot < w.pool; ++slot) {
      const int entry = t * w.pool + slot;
      const TrialRun run = runEntry(runner, w, in, entry, {}, nullptr);
      if (!run.out || !run.out->check_ok) {
        reportFailure(w, entry, run.out ? "protocol check failed"
                                        : "threw: " + run.error);
        ++failed;
        continue;
      }
      lines.push_back(formatRecord(entry, run.out->record));
    }
    if (w.faulted) {
      removeTraceFiles(in.trace_path);
    }
  }
  if (failed > 0) {
    return 1;
  }
  const std::string path = referencePath(args.reference_dir, w);
  std::ofstream out(path);
  out << "# perfbench reference: " << w.name << ", " << lines.size()
      << " trials\n"
      << kReferenceHeader << "\n";
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  DYNET_CHECK(out.good()) << "cannot write " << path;
  std::fprintf(stderr, "perfbench: wrote %zu records to %s\n", lines.size(),
               path.c_str());
  return 0;
}

// Repeats the set-up at least five times and for at least a quarter second,
// keeping the last inputs; returns the median set-up time in seconds.
double timedSetup(const Workload& w, const Args& args, Inputs& inputs,
                  std::vector<double>* text_ms, std::vector<double>* cache_ms) {
  std::vector<double> seconds;
  double total = 0;
  for (int rep = 0; rep < 5 || (total < 0.25 && rep < 2000); ++rep) {
    const Clock::time_point start = Clock::now();
    inputs = prepare(w, args.seed, args.reference_dir, args.work_dir);
    const double s = usSince(start, Clock::now()) / 1e6;
    seconds.push_back(s);
    total += s;
    if (w.faulted) {
      text_ms->push_back(inputs.dataset.text_load_ms);
      cache_ms->push_back(inputs.dataset.cache_load_ms);
    }
  }
  return median(seconds);
}

int runBenchmark(const Workload& w, const Args& args) {
  std::vector<double> text_ms;
  std::vector<double> cache_ms;
  Inputs in;
  const double setup_s = timedSetup(w, args, in, &text_ms, &cache_ms);

  sim::BatchRunner runner(sim::BatchOptions{.threads = 1});
  const bool traced = args.trace != 0;
  StepHistogram step_times;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Passed trials only.
  double rounds_total = 0;
  std::vector<double> trial_seconds;

  // Traced-run accumulators.
  AdversaryTally tally;
  std::map<std::string, double> span_us;
  double plain_step_us = 0;
  double traced_step_us = 0;
  double build_us = 0;
  double engine_build_us = 0;
  double soa_trials = 0;
  double messages = 0;
  double bits = 0;
  double drops = 0;
  double corruptions = 0;
  double trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::optional<obs::TraceWriter> kept_trace;

  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  for (std::size_t k = 0; elapsed < args.seconds; ++k) {
    const int entry = in.order[k % in.order.size()];
    const Record& expected = in.reference[static_cast<std::size_t>(entry)];
    ++attempted;
    const Clock::time_point trial_start = Clock::now();
    const TrialRun plain =
        runEntry(runner, w, in, entry, {}, traced ? nullptr : &step_times);
    std::string why = verdict(plain, expected);
    if (traced && why.empty()) {
      obs::TraceWriter writer;
      obs::MetricsSink sink;
      sink.trace = &writer;
      const TrialRun traced_run =
          runEntry(runner, w, in, entry, {&tally, &sink}, nullptr);
      why = verdict(traced_run, expected);
      if (why.empty()) {
        const TrialOut& t = *traced_run.out;
        const TrialOut& p = *plain.out;
        double spans = 0;
        for (const obs::TraceEvent& e : writer.events()) {
          if (e.ph == 'X') {
            span_us[e.name] += e.dur_us;
            spans += e.dur_us;
          }
        }
        // Spans are closed inside Engine::step(), so their sum can only
        // fall short of the step time bracketing them.
        DYNET_CHECK(spans <= t.step_us)
            << w.name << " entry " << entry << ": span sum " << spans
            << " us exceeds step time " << t.step_us << " us";
        DYNET_CHECK(writer.dropped() == 0)
            << w.name << " entry " << entry << ": trace dropped "
            << writer.dropped() << " events";
        trace_dropped += writer.dropped();
        trace_events += static_cast<double>(writer.events().size());
        plain_step_us += p.step_us;
        traced_step_us += t.step_us;
        build_us += p.build_us;
        engine_build_us += p.engine_build_us;
        soa_trials += p.soa ? 1 : 0;
        messages += static_cast<double>(t.record.messages);
        bits += static_cast<double>(t.record.bits);
        drops += static_cast<double>(t.record.dropped);
        corruptions += static_cast<double>(t.record.corrupted);
        if (!kept_trace) {
          kept_trace.emplace(std::move(writer));
        }
      }
    }
    if (!why.empty()) {
      ++failed;
      reportFailure(w, entry, why);
    } else {
      rounds_total += static_cast<double>(expected.rounds);
      trial_seconds.push_back(usSince(trial_start, Clock::now()) / 1e6);
    }
    elapsed = usSince(start, Clock::now()) / 1e6;
  }
  if (w.faulted) {
    removeTraceFiles(in.trace_path);
  }

  const double n = static_cast<double>(w.shard.n);
  const double passed = static_cast<double>(attempted - failed);
  std::fprintf(stderr,
               "perfbench: %s seed=%" PRIu64 " trials=%" PRIu64
               " failed_share=%.6g build=%s compiler=%s nproc=%ld\n",
               w.name.c_str(), args.seed, attempted,
               static_cast<double>(failed) / static_cast<double>(attempted),
               PERFBENCH_BUILD_TYPE, __VERSION__,
               ::sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        // The median trial, not passed/elapsed: paper_leader trials take
        // either ~10.8k or ~22.8k rounds, so a run's few trials would make
        // the ratio swing with the seed's mix of the two.
        {"trials_per_s",
         trial_seconds.empty() ? 0.0 : 1.0 / median(trial_seconds), "1/s"},
        {"node_rounds_per_s", rounds_total * n / elapsed, "1/s"},
        {"round_us_p50", step_times.percentile(0.50), "us"},
        {"round_us_p99", step_times.percentile(0.99), "us"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    const double per_round = rounds_total > 0 ? 1.0 / rounds_total : 0.0;
    const double per_trial = passed > 0 ? 1.0 / passed : 0.0;
    const double spans = span_us["process_step"] + span_us["adversary_pick"] +
                         span_us["delivery"] + span_us["fault_hook"];
    metrics = {
        {"adversary.generate_us_per_round", tally.generate_us * per_round,
         "us"},
        {"adversary.delta_share",
         static_cast<double>(tally.delta_rounds) * per_round, "ratio"},
        {"adversary.edges_changed_per_round",
         static_cast<double>(tally.edges_changed) * per_round, "count"},
        {"net.csr_build_us_per_round", tally.csr_us * per_round, "us"},
        {"net.components_us_per_round", tally.components_us * per_round,
         "us"},
        {"net.edges_per_round",
         static_cast<double>(tally.csr_edges) * per_round, "count"},
        {"sim.step_us_per_round", traced_step_us * per_round, "us"},
        {"sim.compute_us_per_round", span_us["process_step"] * per_round,
         "us"},
        {"sim.delivery_us_per_round", span_us["delivery"] * per_round, "us"},
        {"sim.adversary_us_per_round", span_us["adversary_pick"] * per_round,
         "us"},
        {"sim.other_us_per_round", (traced_step_us - spans) * per_round,
         "us"},
        {"sim.engine_build_us_per_trial", engine_build_us * per_trial, "us"},
        {"campaign.build_us_per_trial", build_us * per_trial, "us"},
        {"sim.soa_active", soa_trials * per_trial, "ratio"},
        {"sim.messages_per_round", messages * per_round, "count"},
        {"sim.bits_per_round", bits * per_round, "count"},
        {"faults.fault_us_per_round", span_us["fault_hook"] * per_round, "us"},
        {"faults.drops_per_round", drops * per_round, "count"},
        {"faults.corruptions_per_round", corruptions * per_round, "count"},
        {"dataset.text_load_ms", text_ms.empty() ? 0.0 : median(text_ms),
         "ms"},
        {"dataset.cache_load_ms", cache_ms.empty() ? 0.0 : median(cache_ms),
         "ms"},
        {"dataset.delta_records",
         static_cast<double>(in.dataset.delta_records), "count"},
        {"obs.trace_overhead_share",
         plain_step_us > 0 ? traced_step_us / plain_step_us - 1 : 0.0,
         "ratio"},
        {"obs.trace_events", trace_events * per_trial, "count"},
        {"obs.trace_dropped", static_cast<double>(trace_dropped), "count"},
    };
    if (kept_trace) {
      const std::string path = args.work_dir + "/" + w.name + ".trace.json";
      std::ofstream out(path);
      kept_trace->writeChromeTrace(out);
      DYNET_CHECK(out.good()) << "cannot write " << path;
      std::fprintf(stderr, "perfbench: chrome trace of one trial in %s\n",
                   path.c_str());
    }
    const double step = traced_step_us;
    std::fprintf(stderr,
                 "perfbench: %s layer shares of step time: compute %.3f "
                 "adversary %.3f (generate %.3f csr %.3f components %.3f) "
                 "delivery %.3f fault %.3f other %.3f\n",
                 w.name.c_str(), span_us["process_step"] / step,
                 span_us["adversary_pick"] / step, tally.generate_us / step,
                 tally.csr_us / step, tally.components_us / step,
                 span_us["delivery"] / step, span_us["fault_hook"] / step,
                 (step - spans) / step);
  }
  printResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<tree_flood|paper_leader|duplex_diam|faulted_trace>\n"
               "                 [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--reference-dir DIR] [--work-dir DIR] "
               "[--write-reference]\n");
}

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      args.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--reference-dir") {
      args.reference_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception&) {
    args.reset();  // non-numeric --seed/--seconds/--trace
  }
  if (!args) {
    usage();
    return 2;
  }
  const std::optional<Workload> workload = workloadNamed(args->workload);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args->workload.c_str());
    usage();
    return 2;
  }
  try {
    std::filesystem::create_directories(args->work_dir);
    return args->write_reference ? writeReference(*workload, *args)
                                 : runBenchmark(*workload, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
