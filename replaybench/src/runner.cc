// Replay benchmark runner: replays one workload through exp::Experiment's
// public API, checks the program's outputs, and prints every metric by
// name with its unit. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   replay_runner --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--out-dir DIR]
//   replay_runner --smoke
//
// --trace 0 reports the end-to-end metrics of an untraced replay.
// --trace 1 reports per-layer metrics: layer counts from the same
// untraced replay, timing probes into each module, and the cost of the
// program's own span tracing from one more, traced cycle. It writes the
// runner's spans and the program's spans as Chrome trace-event JSON into
// --out-dir.
// --smoke runs every workload briefly, twice, with every check, and
// compares the two runs' layer counts.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "exp/csv_export.h"
#include "probes.h"
#include "spans.h"
#include "timing.h"
#include "workloads.h"

namespace replaybench {
namespace {

namespace sim = dcg::sim;
using dcg::exp::Experiment;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Cumulative layer counts read from public accessors. Deterministic for
/// a given seed and replayed duration.
struct Counts {
  uint64_t events = 0;  // fired by the runner's RunUntil calls
  uint64_t messages = 0;
  uint64_t server_ops = 0;
  uint64_t point_reads = 0;
  uint64_t applied = 0;
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t envelopes = 0;
  uint64_t ops_batched = 0;
  uint64_t checkouts = 0;
  uint64_t routed = 0;
  uint64_t oplog_entries = 0;
  uint64_t data_bytes = 0;

  Counts Minus(const Counts& o) const {
    Counts d = *this;
    d.events -= o.events;
    d.messages -= o.messages;
    d.server_ops -= o.server_ops;
    d.point_reads -= o.point_reads;
    d.applied -= o.applied;
    d.ops -= o.ops;
    d.reads -= o.reads;
    d.writes -= o.writes;
    d.envelopes -= o.envelopes;
    d.ops_batched -= o.ops_batched;
    d.checkouts -= o.checkouts;
    d.routed -= o.routed;
    return d;  // oplog_entries and data_bytes stay end-of-window levels
  }

  std::string ToJson() const {
    const std::pair<const char*, uint64_t> fields[] = {
        {"events", events},         {"messages", messages},
        {"server_ops", server_ops}, {"point_reads", point_reads},
        {"applied", applied},       {"ops", ops},
        {"reads", reads},           {"writes", writes},
        {"envelopes", envelopes},   {"ops_batched", ops_batched},
        {"checkouts", checkouts},   {"routed", routed},
        {"oplog_entries", oplog_entries}, {"data_bytes", data_bytes}};
    std::string out = "{";
    for (const auto& [name, value] : fields) {
      if (out.size() > 1) out += ", ";
      out += JsonString(name) + ": " + std::to_string(value);
    }
    return out + "}";
  }
};

/// One experiment with the runner's ledger attached.
struct Replay {
  std::unique_ptr<Experiment> experiment;
  std::unique_ptr<OpLedger> ledger;
  uint64_t events = 0;

  Counts Snapshot() {
    Counts c;
    Experiment& e = *experiment;
    c.events = events;
    c.messages = e.network().messages_delivered();
    for (dcg::repl::ReplicaSet* rs : ReplicaSets(e)) {
      for (int i = 0; i < rs->node_count(); ++i) {
        const dcg::server::ServerNode& server = rs->node(i).server();
        for (int k = 0; k < static_cast<int>(dcg::server::OpClass::kCount);
             ++k) {
          c.server_ops += server.ops_executed(static_cast<dcg::server::OpClass>(k));
        }
        c.point_reads += server.ops_executed(dcg::server::OpClass::kPointRead);
        c.applied += rs->node(i).entries_applied();
        c.data_bytes += rs->node(i).db().ApproxBytes();
      }
      c.oplog_entries += rs->oplog().size();
    }
    c.ops = ledger->ok();
    c.reads = ledger->reads();
    c.writes = ledger->writes();
    const dcg::metrics::OpCounters& counters = e.client().op_counters();
    c.envelopes = counters.envelopes_sent;
    c.ops_batched = counters.ops_batched;
    c.checkouts = counters.checkouts;
    if (e.sharded()) {
      c.routed = e.sharded_cluster()->router().routed_reads() +
                 e.sharded_cluster()->router().routed_writes();
    }
    return c;
  }

  void RunUntil(sim::Time t) { events += experiment->loop().RunUntil(t); }
};

/// Builds the experiment (data loaded on every node) and attaches the
/// ledger. The experiment's own duration is the warm-up: Run() starts the
/// cluster and replays it; the runner then advances the loop itself.
Replay Build(const WorkloadSpec& spec, double warmup_s) {
  dcg::exp::ExperimentConfig config = spec.config;
  config.duration = sim::Seconds(warmup_s);
  config.warmup = 0;
  Replay r;
  r.experiment = std::make_unique<Experiment>(std::move(config));
  r.ledger = std::make_unique<OpLedger>(r.experiment.get());
  return r;
}

/// Timings of a measured replay, one entry per cycle.
struct Window {
  std::vector<double> wall_s;
  std::vector<double> ops;
  Counts start;
  Counts end;
  size_t queue_depth = 0;

  double WallS() const {
    double total = 0;
    for (double w : wall_s) total += w;
    return total;
  }
  double SimRate() const {
    return static_cast<double>(wall_s.size()) * kCycleSimSeconds / WallS();
  }
  double OpRate() const {
    double total = 0;
    for (double o : ops) total += o;
    return total / WallS();
  }
};

/// Replays the experiment's warm-up (its configured duration), then
/// `cycles` checkpoint cycles, timing each.
Window Measure(Replay& r, int cycles, double cycle_s, SpanLog* log) {
  {
    auto span = log->Open("warmup");
    r.experiment->Run();
  }
  Window w;
  w.start = r.Snapshot();
  auto span = log->Open("measured replay");
  for (int c = 0; c < cycles; ++c) {
    auto cycle = log->Open("cycle " + std::to_string(c));
    const sim::Time until = r.experiment->loop().Now() + sim::Seconds(cycle_s);
    const uint64_t ops = r.ledger->ok();
    const double start = NowS();
    r.RunUntil(until);
    w.wall_s.push_back(NowS() - start);
    w.ops.push_back(static_cast<double>(r.ledger->ok() - ops));
  }
  w.queue_depth = r.experiment->loop().PendingEvents();
  w.end = r.Snapshot();
  return w;
}

/// Every correctness check for one finished replay. Drains replication
/// first (clients stop), so call it after all timing.
std::vector<CheckResult> RunChecks(Replay& r, SpanLog* log) {
  auto span = log->Open("checks");
  Experiment& e = *r.experiment;
  std::vector<CheckResult> results;
  results.push_back(CheckOpAccounting(*r.ledger, e.rows()));
  results.push_back(r.ledger->CheckFreshness());
  results.push_back(CheckFractionRange(e.rows(), e.config().balancer));
  results.push_back(StopAndDrain(e));
  if (results.back().ok) results.push_back(CheckConvergence(e));
  if (e.config().kind == dcg::exp::WorkloadKind::kYcsb) {
    results.push_back(CheckYcsbData(e));
  } else {
    results.push_back(CheckTpccConsistency(e));
  }
  if (r.ledger->failed() > 0) {
    results.push_back({"no_failed_ops", false,
                       std::to_string(r.ledger->failed()) + " ops failed"});
  }
  return results;
}

bool PrintChecks(const std::vector<CheckResult>& results) {
  bool ok = true;
  for (const CheckResult& c : results) {
    std::printf("check %-16s %s  %s\n", c.name.c_str(), c.ok ? "PASS" : "FAIL",
                c.detail.c_str());
    ok = ok && c.ok;
  }
  return ok;
}

std::string HostFingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return "{\"cpu\": " + JsonString(cpu) + ", \"nproc\": " +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(RB_BUILD_TYPE) +
         ", \"ndebug\": true}";
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string out_dir = ".bench_build/replaybench/out";
};

/// Number of setups timed for setup_s; the last one is replayed.
constexpr int kSetups = 5;

int RunEndToEnd(const WorkloadSpec& spec, const Options& opt) {
  SpanLog log(false);
  const int cycles = spec.Cycles(opt.seconds);
  std::vector<double> setup_s;
  Replay r;
  for (int i = 0; i < kSetups; ++i) {
    r = Replay{};  // free the previous experiment before building the next
    const double start = NowS();
    r = Build(spec, spec.warmup_sim_seconds);
    setup_s.push_back(NowS() - start);
  }
  const Window w = Measure(r, cycles, kCycleSimSeconds, &log);
  const bool correct = PrintChecks(RunChecks(r, &log));
  std::printf("counts %s\n", w.end.Minus(w.start).ToJson().c_str());
  std::printf("replayed %d x %.0f sim-s after %.0f sim-s warm-up in %.3f "
              "wall-s\n",
              cycles, kCycleSimSeconds, spec.warmup_sim_seconds,
              w.WallS());
  PrintResult(correct, r.ledger->attempted(), r.ledger->failed(),
              {{"setup_s", Median(setup_s), "s"},
               {"sim_s_per_wall_s", w.SimRate(), "sim-s/s"},
               {"ops_per_wall_s", w.OpRate(), "ops/s"},
               {"peak_rss_mb", PeakRssMiB(), "MiB"}});
  return correct ? 0 : 1;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int RunPerLayer(const WorkloadSpec& spec, const Options& opt) {
  SpanLog log(true);
  const int cycles = spec.Cycles(opt.seconds);
  const std::string prefix = opt.out_dir + "/" + spec.name + "-seed" +
                             std::to_string(opt.seed);
  std::filesystem::create_directories(opt.out_dir);
  auto root = std::make_unique<SpanLog::Scope>(log.Open("run " + spec.name));

  // The untraced replay gives the layer counts and wall time per op.
  Replay r;
  {
    auto span = log.Open("setup");
    r = Build(spec, spec.warmup_sim_seconds);
  }
  const Window w = Measure(r, cycles, kCycleSimSeconds, &log);
  const Counts d = w.end.Minus(w.start);
  const double ops = static_cast<double>(d.ops);
  const double wall_ns_per_op = Ratio(w.WallS() * 1e9, ops);
  std::map<std::string, double> probe =
      RunProbes(spec, *r.experiment, w.queue_depth, &log);

  // Three more cycles: untraced, traced, untraced. The traced cycle's
  // wall time per op against the mean of its neighbours' is the cost of
  // the program's span tracing (--trace-out); the neighbours cancel the
  // drift of cost per op as the data set grows. The tracer is emptied
  // every simulated second, so the span file keeps the traced cycle's
  // last second and memory stays bounded.
  double traced_wall_ns_per_op = 0;
  double untraced_wall_ns_per_op = 0;
  double spans_per_op = 0;
  {
    auto span = log.Open("trace overhead");
    dcg::obs::Tracer& tracer = r.experiment->tracer();
    for (int c = 0; c < 3; ++c) {
      const bool traced = c == 1;
      if (traced) tracer.Enable();
      const uint64_t before = r.ledger->ok();
      double spans = 0;
      const double start = NowS();
      for (int second = 0; second < kCycleSimSeconds; ++second) {
        if (traced && second > 0) {
          spans += static_cast<double>(tracer.spans().size() + tracer.dropped());
          tracer.Clear();
        }
        r.RunUntil(r.experiment->loop().Now() + sim::Seconds(1));
      }
      const double wall_ns = (NowS() - start) * 1e9;
      const double cycle_ops = static_cast<double>(r.ledger->ok() - before);
      if (traced) {
        tracer.Disable();
        spans += static_cast<double>(tracer.spans().size() + tracer.dropped());
        traced_wall_ns_per_op = Ratio(wall_ns, cycle_ops);
        spans_per_op = Ratio(spans, cycle_ops);
      } else {
        untraced_wall_ns_per_op += 0.5 * Ratio(wall_ns, cycle_ops);
      }
    }
  }
  double export_ms = 0;
  {
    auto span = log.Open("export");
    const Experiment& e = *r.experiment;
    const double start = NowS();
    bool written = dcg::exp::WritePeriodsCsv(e, prefix + "-periods.csv");
    written = dcg::exp::WriteDecisionsCsv(e, prefix + "-decisions.csv") &&
              written;
    written = e.metrics_registry().WriteJson(prefix + "-metrics.json") &&
              written;
    written =
        e.metrics_registry().WriteOpenMetrics(prefix + "-metrics.txt") &&
        written;
    export_ms = (NowS() - start) * 1e3;
    written = dcg::obs::WriteChromeTrace(e.tracer(), e.balancer_decisions(),
                                         prefix + "-program-trace.json") &&
              written;
    if (!written) {
      std::fprintf(stderr, "replay_runner: cannot write under %s\n",
                   opt.out_dir.c_str());
      return 2;
    }
  }
  const bool correct = PrintChecks(RunChecks(r, &log));
  root.reset();
  if (!log.WriteChromeTrace(prefix + "-runner-trace.json")) {
    std::fprintf(stderr, "replay_runner: cannot write %s-runner-trace.json\n",
                 prefix.c_str());
    return 2;
  }
  std::printf("spans %s-runner-trace.json %s-program-trace.json\n",
              prefix.c_str(), prefix.c_str());
  std::printf("counts %s\n", d.ToJson().c_str());

  const bool ycsb = spec.config.kind == dcg::exp::WorkloadKind::kYcsb;
  const double events_per_op = Ratio(static_cast<double>(d.events), ops);
  const double messages_per_op = Ratio(static_cast<double>(d.messages), ops);
  const double routed_per_op = Ratio(static_cast<double>(d.routed), ops);
  const double share_sim = Ratio(events_per_op * probe["sim.event_ns"],
                                 wall_ns_per_op);
  // A message's delivery is itself an event: count only the part of its
  // cost beyond one event, so the shares do not overlap.
  const double share_net = Ratio(
      messages_per_op *
          std::max(0.0, probe["net.message_ns"] - probe["sim.event_ns"]),
      wall_ns_per_op);
  const double share_store =
      Ratio(Ratio(static_cast<double>(d.point_reads), ops) *
                probe["store.find_ns"],
            wall_ns_per_op);
  const double share_repl = Ratio(
      Ratio(static_cast<double>(d.applied), ops) * probe["repl.apply_ns"],
      wall_ns_per_op);
  const double share_shard =
      Ratio(routed_per_op * probe["shard.route_ns"], wall_ns_per_op);
  const double share_workload =
      ycsb ? Ratio(probe["workload.key_ns"], wall_ns_per_op) : 0.0;

  std::vector<Metric> metrics = {
      {"sim.events_per_op", events_per_op, "count"},
      {"sim.event_ns", probe["sim.event_ns"], "ns"},
      {"doc.compare_ns", probe["doc.compare_ns"], "ns"},
      {"doc.filter_match_ns", probe["doc.filter_match_ns"], "ns"},
      {"doc.update_apply_ns", probe["doc.update_apply_ns"], "ns"},
      {"store.find_ns", probe["store.find_ns"], "ns"},
      {"store.range_ns", probe["store.range_ns"], "ns"},
      {"store.bytes_mb", static_cast<double>(w.end.data_bytes) / (1 << 20),
       "MiB"},
      {"server.ops_per_op", Ratio(static_cast<double>(d.server_ops), ops),
       "count"},
      {"net.messages_per_op", messages_per_op, "count"},
      {"net.message_ns", probe["net.message_ns"], "ns"},
      {"driver.read_round_trip_ns", probe["driver.read_round_trip_ns"], "ns"},
      {"driver.write_round_trip_ns", probe["driver.write_round_trip_ns"],
       "ns"},
      {"driver.ops_per_envelope",
       Ratio(static_cast<double>(d.ops_batched),
             static_cast<double>(d.envelopes)),
       "count"},
      {"driver.pool_checkouts_per_op",
       Ratio(static_cast<double>(d.checkouts), ops), "count"},
      {"repl.applied_per_write",
       Ratio(static_cast<double>(d.applied), static_cast<double>(d.writes)),
       "count"},
      {"repl.apply_ns", probe["repl.apply_ns"], "ns"},
      {"repl.oplog_entries", static_cast<double>(w.end.oplog_entries),
       "count"},
      {"core.decide_ns", probe["core.decide_ns"], "ns"},
      {"shard.route_ns", probe["shard.route_ns"], "ns"},
      {"shard.routed_per_op", routed_per_op, "count"},
      {"workload.key_ns", probe["workload.key_ns"], "ns"},
      {"workload.load_s", probe["workload.load_s"], "s"},
      {"obs.trace_slowdown",
       Ratio(traced_wall_ns_per_op, untraced_wall_ns_per_op), "x"},
      {"obs.spans_per_op", spans_per_op, "count"},
      {"exp.export_ms", export_ms, "ms"},
      {"sim.est_share", share_sim, "share"},
      {"net.est_share", share_net, "share"},
      {"store.est_share", share_store, "share"},
      {"repl.est_share", share_repl, "share"},
      {"shard.est_share", share_shard, "share"},
      {"workload.est_share", share_workload, "share"},
      {"unattributed.est_share",
       1.0 - share_sim - share_net - share_store - share_repl - share_shard -
           share_workload,
       "share"},
  };
  PrintResult(correct, r.ledger->attempted(), r.ledger->failed(), metrics);
  return correct ? 0 : 1;
}

/// Every workload briefly (10 sim-s warm-up, 2 x 10 sim-s replayed),
/// twice, with every check; the two runs' layer counts must match exactly.
int RunSmoke(const Options& opt) {
  bool all_ok = true;
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec;
    MakeWorkload(name, opt.seed, &spec);
    SpanLog log(false);
    std::string counts[2];
    bool ok = true;
    for (int run = 0; run < 2; ++run) {
      Replay r = Build(spec, 10);
      const Window w = Measure(r, 2, 10, &log);
      counts[run] = w.end.Minus(w.start).ToJson();
      if (run == 0) {
        std::printf("== %s\n", name.c_str());
        ok = PrintChecks(RunChecks(r, &log)) && ok;
        std::printf("counts %s\n", counts[run].c_str());
      }
    }
    const bool same = counts[0] == counts[1];
    std::printf("check %-16s %s  %s\n", "determinism", same ? "PASS" : "FAIL",
                same ? "layer counts identical across two runs"
                     : ("second run " + counts[1]).c_str());
    ok = ok && same;
    std::printf("smoke %s %s\n", name.c_str(), ok ? "PASS" : "FAIL");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "replay_runner: %s\nusage: replay_runner --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] | "
               "--smoke\n",
               why);
  return 2;
}

}  // namespace
}  // namespace replaybench

int main(int argc, char** argv) {
  using namespace replaybench;
#ifndef NDEBUG
  std::fprintf(stderr,
               "replay_runner: built without NDEBUG; refusing to report "
               "numbers from a debug build\n");
  return 2;
#endif
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && (v = value())) {
      opt.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      opt.trace = std::atoi(v);
    } else if (arg == "--out-dir" && (v = value())) {
      opt.out_dir = v;
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (opt.trace != 0 && opt.trace != 1) return Usage("--trace must be 0 or 1");
  std::printf("host %s\n", HostFingerprint().c_str());
  if (opt.smoke) return RunSmoke(opt);
  WorkloadSpec spec;
  if (!MakeWorkload(opt.workload, opt.seed, &spec)) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", spec.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace);
  return opt.trace == 0 ? RunEndToEnd(spec, opt) : RunPerLayer(spec, opt);
}
