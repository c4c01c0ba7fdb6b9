// Simulator determinism regression: a given seed must produce a
// bit-identical run — same period rows, same staleness series, same
// replication counters, same final database fingerprints — no matter how
// many times it executes. Any hidden nondeterminism (map iteration order,
// wall-clock reads, uninitialised state) breaks every paper figure, so
// this is a tier-1 gate.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/csv_export.h"
#include "exp/experiment.h"
#include "fault/fault_injector.h"
#include "obs/slo.h"
#include "shard/sharded_cluster.h"

namespace dcg {
namespace {

exp::ExperimentConfig SmallConfig(uint64_t seed) {
  exp::ExperimentConfig config;
  config.seed = seed;
  config.system = exp::SystemType::kDecongestant;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, 10, 0.95}};
  config.duration = sim::Seconds(60);
  config.warmup = sim::Seconds(20);
  config.run_s_workload = true;
  return config;
}

// Everything observable about a finished run, serialised byte-for-byte.
std::string RunTrace(const exp::ExperimentConfig& config) {
  exp::Experiment experiment(config);
  experiment.Run();

  std::ostringstream trace;
  for (const auto& row : experiment.rows()) {
    trace << row.start << ' ' << row.end << ' ' << row.reads << ' '
          << row.reads_secondary << ' ' << row.writes << ' '
          << row.balance_fraction << ' ' << row.est_staleness_max_s << ' '
          << row.read_latency.count() << ' ' << row.read_latency.max()
          << '\n';
  }
  for (const auto& point : experiment.staleness_series()) {
    trace << point.at << ' ' << point.estimate_s << ' ' << point.true_max_s
          << '\n';
  }
  for (const auto& [at, staleness] : experiment.s_samples()) {
    trace << at << ' ' << staleness << '\n';
  }
  auto& rs = experiment.replica_set();
  trace << rs.committed_writes() << ' ' << rs.majority_writes_acked() << ' '
        << rs.elections() << ' ' << rs.pull_restarts() << ' '
        << experiment.network().messages_delivered() << ' '
        << experiment.network().messages_dropped() << '\n';
  for (int i = 0; i < rs.node_count(); ++i) {
    trace << rs.node(i).db().Fingerprint() << '\n';
  }
  for (const std::string& line : experiment.fault_injector().log()) {
    trace << line << '\n';
  }
  return trace.str();
}

// FNV-1a over the serialised trace: a stable fingerprint of an entire run.
uint64_t TraceHash(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Golden fingerprints re-captured when Raft-style elections became the
// only election model: every member heartbeats every peer (where each
// secondary used to report to the primary alone) and every member's
// election coordinator forks its own RNG stream, so message traffic and
// RNG order — and therefore the trace — differ from the earlier goldens
// by design. Perf-only changes (the
// slab event loop, compiled doc::Path, top-k sorts) must NOT move these:
// (time, seq) firing order and query semantics are part of the contract.
// If an intentional semantic change moves them, re-capture with the
// printed values; do NOT update them for a perf-only change.
constexpr uint64_t kGoldenHealthyTrace = 8556994743531683174ull;
constexpr uint64_t kGoldenFaultTrace = 4939852485725844544ull;

TEST(DeterminismTest, TraceMatchesGoldenFingerprint) {
  const uint64_t h = TraceHash(RunTrace(SmallConfig(42)));
  std::cout << "healthy trace hash: " << h << "ull\n";
  if (kGoldenHealthyTrace == 0) {
    GTEST_SKIP() << "golden hash not yet recorded";
  }
  EXPECT_EQ(h, kGoldenHealthyTrace);
}

TEST(DeterminismTest, FaultTraceMatchesGoldenFingerprint) {
  auto config = SmallConfig(42);
  config.run_s_workload = false;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec(
      "loss@25-40:node=1:p=0.3;partition@42-50:nodes=2;"
      "latency@30-45:node=0:ms=5:x=2",
      &config.faults, &error))
      << error;
  const uint64_t h = TraceHash(RunTrace(config));
  std::cout << "fault trace hash: " << h << "ull\n";
  if (kGoldenFaultTrace == 0) {
    GTEST_SKIP() << "golden hash not yet recorded";
  }
  EXPECT_EQ(h, kGoldenFaultTrace);
}

TEST(DeterminismTest, SameSeedSameTrace) {
  const std::string first = RunTrace(SmallConfig(42));
  const std::string second = RunTrace(SmallConfig(42));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, DifferentSeedsDifferentTraces) {
  EXPECT_NE(RunTrace(SmallConfig(42)), RunTrace(SmallConfig(43)));
}

// Fault injection must not introduce nondeterminism: packet drops and
// watchdog restarts consume RNG draws, but always the same ones.
TEST(DeterminismTest, SameSeedSameTraceUnderFaults) {
  auto config = SmallConfig(42);
  config.run_s_workload = false;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec(
      "loss@25-40:node=1:p=0.3;partition@42-50:nodes=2;"
      "latency@30-45:node=0:ms=5:x=2",
      &config.faults, &error))
      << error;
  const std::string first = RunTrace(config);
  const std::string second = RunTrace(config);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The connection-pool layer at default settings must be invisible: the
// golden fingerprints above were first captured before the pool existed
// and replayed unchanged when it landed.
// With the pool *constrained* — queueing, establishment costs, wait-queue
// timeouts, a pool_clear fault — runs must still be bit-identical per
// seed: the pool draws no randomness and schedules deterministically.
TEST(DeterminismTest, SameSeedSameTraceWithConstrainedPool) {
  auto config = SmallConfig(42);
  config.run_s_workload = false;
  config.client_options.pool.max_pool_size = 3;
  config.client_options.pool.establish_cost = sim::Millis(1);
  config.client_options.pool.wait_queue_timeout = sim::Millis(250);
  config.client_options.pool.min_pool_size = 1;
  config.client_options.pool.max_idle_time = sim::Seconds(5);
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec("pool_clear@30:nodes=0+1+2",
                                    &config.faults, &error))
      << error;
  const std::string first = RunTrace(config);
  const std::string second = RunTrace(config);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Raft elections route heartbeats, vote requests, catch-up, and rollback
// resyncs through the event loop and per-node RNG forks; a primary crash
// exercises all of them. Replays must still be bit-identical per seed.
TEST(DeterminismTest, SameSeedSameTraceWithRaftElections) {
  auto config = SmallConfig(42);
  config.run_s_workload = false;
  config.repl.election_timeout = sim::Seconds(3);
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec("crash@25:node=0;restart@45:node=0",
                                    &config.faults, &error))
      << error;
  const std::string first = RunTrace(config);
  const std::string second = RunTrace(config);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The run actually elected: a trivially quiet trace proves nothing.
  exp::Experiment probe(config);
  probe.Run();
  EXPECT_GE(probe.replica_set().elections(), 1u);
  EXPECT_GE(probe.replica_set().stepdowns(), 0u);
}

// Same contract for command batching: with batching_enabled=false the
// driver's send path must schedule no extra events and draw no
// randomness, so the default-config golden replays bit-identically.
// Spelled out against an explicit false in case the default ever flips.
TEST(DeterminismTest, BatchingDisabledReplayMatchesGolden) {
  auto config = SmallConfig(42);
  config.client_options.batching_enabled = false;
  const uint64_t h = TraceHash(RunTrace(config));
  if (kGoldenHealthyTrace == 0) {
    GTEST_SKIP() << "golden hash not yet recorded";
  }
  EXPECT_EQ(h, kGoldenHealthyTrace);
}

// With batching on the trace differs from the unbatched golden (ops
// coalesce, costs amortise) but must still be a pure function of the
// seed: flush timers and envelope bookkeeping draw no randomness.
TEST(DeterminismTest, SameSeedSameTraceWithBatching) {
  auto config = SmallConfig(42);
  config.run_s_workload = false;
  config.client_options.batching_enabled = true;
  config.client_options.batch_max_ops = 8;
  config.client_options.batch_max_delay = sim::Micros(200);
  const std::string first = RunTrace(config);
  const std::string second = RunTrace(config);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- sharded mode ---------------------------------------------------------
//
// A sharded run routes everything through the mongos (shard::Router):
// per-shard replica sets, a versioned chunk map, per-shard balancers
// joined to one StalenessBudget. None of that may draw hidden
// randomness. The trace serialises per-period rows (including the
// per-shard columns), the staleness series, router counters, per-shard
// replication counters, and every node's database fingerprint.

exp::ExperimentConfig ShardedSmallConfig(uint64_t seed) {
  exp::ExperimentConfig config = SmallConfig(seed);
  config.shards = 2;
  return config;
}

std::string ShardedRunTrace(const exp::ExperimentConfig& config) {
  exp::Experiment experiment(config);
  experiment.Run();

  std::vector<std::vector<double>> routed;
  for (int s = 0; s < config.shards; ++s) {
    routed.push_back(exp::PeriodValues(experiment, "routed_to_shard",
                                       {{"shard", std::to_string(s)}}));
  }
  std::ostringstream trace;
  for (size_t r = 0; r < experiment.rows().size(); ++r) {
    const exp::PeriodRow& row = experiment.rows()[r];
    trace << row.start << ' ' << row.end << ' ' << row.reads << ' '
          << row.reads_secondary << ' ' << row.writes << ' '
          << row.balance_fraction << ' ' << row.est_staleness_max_s << ' '
          << row.read_latency.count() << ' ' << row.read_latency.max();
    for (size_t s = 0; s < row.shard_balance_fraction.size(); ++s) {
      trace << ' ' << static_cast<uint64_t>(routed[s][r]) << ' '
            << row.shard_balance_fraction[s];
    }
    trace << '\n';
  }
  for (const auto& point : experiment.staleness_series()) {
    trace << point.at << ' ' << point.estimate_s << ' ' << point.true_max_s
          << '\n';
  }
  for (const auto& [at, staleness] : experiment.s_samples()) {
    trace << at << ' ' << staleness << '\n';
  }
  shard::ShardedCluster* cluster = experiment.sharded_cluster();
  shard::Router& router = cluster->router();
  trace << router.commands_served() << ' ' << router.routed_reads() << ' '
        << router.routed_writes() << ' ' << router.stale_refreshes() << ' '
        << experiment.network().messages_delivered() << ' '
        << experiment.network().messages_dropped() << '\n';
  for (int s = 0; s < cluster->shard_count(); ++s) {
    auto& rs = cluster->shard(s);
    trace << rs.committed_writes() << ' ' << rs.majority_writes_acked()
          << ' ' << rs.pull_restarts() << '\n';
    for (int i = 0; i < rs.node_count(); ++i) {
      trace << rs.node(i).db().Fingerprint() << '\n';
    }
  }
  return trace.str();
}

// Captured when the sharded mode landed and re-captured with the
// unsharded goldens when Raft-style elections became the only election
// model. Same contract: re-capture only for an intentional semantic
// change.
constexpr uint64_t kGoldenShardedTrace = 11574858861400872710ull;

TEST(DeterminismTest, ShardedTraceMatchesGoldenFingerprint) {
  const uint64_t h = TraceHash(ShardedRunTrace(ShardedSmallConfig(42)));
  std::cout << "sharded trace hash: " << h << "ull\n";
  if (kGoldenShardedTrace == 0) {
    GTEST_SKIP() << "golden hash not yet recorded";
  }
  EXPECT_EQ(h, kGoldenShardedTrace);
}

TEST(DeterminismTest, ShardedSameSeedSameTrace) {
  const std::string first = ShardedRunTrace(ShardedSmallConfig(42));
  const std::string second = ShardedRunTrace(ShardedSmallConfig(42));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, ShardedDifferentSeedsDifferentTraces) {
  EXPECT_NE(ShardedRunTrace(ShardedSmallConfig(42)),
            ShardedRunTrace(ShardedSmallConfig(43)));
}

TEST(DeterminismTest, TpccSameSeedSameTrace) {
  auto config = SmallConfig(7);
  config.kind = exp::WorkloadKind::kTpcc;
  config.tpcc.warehouses = 2;
  config.run_s_workload = false;
  const std::string first = RunTrace(config);
  const std::string second = RunTrace(config);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- export goldens ---------------------------------------------------------
//
// The periods, decisions and shards CSVs are what the paper's figures are
// plotted from. Same-seed comparisons cannot catch a change to the export
// path that moves every run the same way, so these pin the exact bytes the
// exporters write for five seeded configurations. The shards CSV is pinned
// by its data lines only (everything below the units and header lines).

using CsvWriter = bool (*)(const exp::Experiment&, const std::string&);

// The bytes `write` produces for `experiment`, minus the first `skip`
// lines.
std::string ExportBytes(CsvWriter write, const exp::Experiment& experiment,
                        int skip = 0) {
  const std::string path = ::testing::TempDir() + "dcg_export_golden.csv";
  EXPECT_TRUE(write(experiment, path));
  std::ifstream in(path, std::ios::binary);
  std::string line;
  for (int i = 0; i < skip && std::getline(in, line);) ++i;
  std::ostringstream rest;
  rest << in.rdbuf();
  std::remove(path.c_str());
  return rest.str();
}

struct ExportGolden {
  uint64_t periods;
  uint64_t decisions;
  uint64_t shard_lines;
};

void ExpectExportGolden(const exp::ExperimentConfig& config,
                        const ExportGolden& golden) {
  exp::Experiment experiment(config);
  experiment.Run();
  const ExportGolden got{
      TraceHash(ExportBytes(&exp::WritePeriodsCsv, experiment)),
      TraceHash(ExportBytes(&exp::WriteDecisionsCsv, experiment)),
      TraceHash(ExportBytes(&exp::WriteShardsCsv, experiment, 2))};
  std::cout << "export hashes: {" << got.periods << "ull, " << got.decisions
            << "ull, " << got.shard_lines << "ull}\n";
  EXPECT_EQ(got.periods, golden.periods);
  EXPECT_EQ(got.decisions, golden.decisions);
  EXPECT_EQ(got.shard_lines, golden.shard_lines);
}

// Constrained pool, deadlines, batching and hedged reads under a partition
// and a pool clear: the retry, pool and batching columns all move.
exp::ExperimentConfig StressConfig() {
  exp::ExperimentConfig config = SmallConfig(42);
  config.client_options.pool.max_pool_size = 2;
  config.client_options.pool.wait_queue_timeout = sim::Millis(20);
  config.client_options.default_op_deadline = sim::Millis(300);
  config.client_options.batching_enabled = true;
  config.client_options.batch_max_ops = 8;
  config.client_options.hedged_reads = true;
  std::string error;
  EXPECT_TRUE(fault::ParseFaultSpec(
      "partition@20-35:nodes=1;pool_clear@40:nodes=0+1+2", &config.faults,
      &error))
      << error;
  return config;
}

TEST(DeterminismTest, HealthyExportsMatchGolden) {
  ExpectExportGolden(SmallConfig(42),
                     {10899095463416483619ull, 14623767141849120060ull,
                      1469598103934665603ull});
}

TEST(DeterminismTest, TpccExportsMatchGolden) {
  auto config = SmallConfig(7);
  config.kind = exp::WorkloadKind::kTpcc;
  config.tpcc.warehouses = 2;
  ExpectExportGolden(config, {18134518409747960654ull, 6650360371269357539ull,
                              1469598103934665603ull});
}

TEST(DeterminismTest, StressExportsMatchGolden) {
  ExpectExportGolden(StressConfig(),
                     {2610882298653802219ull, 3741407687205272898ull,
                      1469598103934665603ull});
}

TEST(DeterminismTest, SloExportsMatchGolden) {
  auto config = SmallConfig(42);
  obs::SloDefaults defaults;
  defaults.stale_bound_seconds = config.balancer.stale_bound_seconds;
  std::string error;
  ASSERT_TRUE(obs::ParseSloSpecs("default", defaults, &config.slos, &error))
      << error;
  ExpectExportGolden(config, {7819645999485543959ull, 14623767141849120060ull,
                              1469598103934665603ull});
}

TEST(DeterminismTest, ShardedExportsMatchGolden) {
  ExpectExportGolden(ShardedSmallConfig(42),
                     {14085844805986406695ull, 1575315172244667054ull,
                      6489754506481178694ull});
}

// One name, one meaning: every periods-CSV counter column that shares its
// name with a registry counter must sum to that counter's final sample.
TEST(DeterminismTest, StressPeriodsCsvCountersSumToRegistryTotals) {
  exp::Experiment experiment(StressConfig());
  experiment.Run();
  std::istringstream csv(ExportBytes(&exp::WritePeriodsCsv, experiment, 1));
  std::vector<std::vector<std::string>> table;  // header, then data rows
  for (std::string line; std::getline(csv, line);) {
    table.emplace_back();
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
      table.back().push_back(cell);
    }
  }
  ASSERT_GT(table.size(), 1u);
  const std::vector<std::string>& header = table.front();
  std::vector<std::string> checked;
  for (size_t c = 0; c < header.size(); ++c) {
    const obs::MetricsRegistry::ScalarSeries* series =
        experiment.metrics_registry().FindSeries(header[c]);
    if (series == nullptr || std::string(series->type) != "counter") continue;
    double sum = 0;
    for (size_t r = 1; r < table.size(); ++r) sum += std::stod(table[r].at(c));
    ASSERT_FALSE(series->samples.empty());
    EXPECT_EQ(sum, series->samples.back().second) << header[c];
    checked.push_back(header[c]);
  }
  EXPECT_EQ(checked, (std::vector<std::string>{
                         "ops_ok", "ops_timed_out", "ops_retried",
                         "hedges_won", "pool_checkout_timeouts",
                         "envelopes_sent", "ops_batched"}));
}

}  // namespace
}  // namespace dcg
