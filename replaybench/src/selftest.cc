// Self-test of the runner's correctness checks: each check must pass on a
// healthy short replay and fail once one violation is planted in it (a
// stale read, unsharded and sharded, a diverged document, a broken W_YTD sum, a wrong
// D_NEXT_O_ID, a misplaced shard document, an out-of-range fraction, a
// miscounted period). Exits nonzero if any expectation does not hold.

#include <cstdio>
#include <memory>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace replaybench {
namespace {

namespace sim = dcg::sim;
using dcg::doc::UpdateSpec;
using dcg::doc::Value;
using dcg::exp::Experiment;

int g_failures = 0;

void Expect(bool ok, const CheckResult& result, const std::string& what) {
  const bool good = result.ok == ok;
  std::printf("%s %-44s (%s %s: %s)\n", good ? "ok  " : "FAIL", what.c_str(),
              result.name.c_str(), result.ok ? "passed" : "failed",
              result.detail.c_str());
  if (!good) ++g_failures;
}

/// A short healthy replay of the named workload, drained.
struct Short {
  std::unique_ptr<Experiment> e;
  std::unique_ptr<OpLedger> ledger;

  explicit Short(const std::string& name) {
    WorkloadSpec spec;
    MakeWorkload(name, 7, &spec);
    spec.config.duration = sim::Seconds(25);
    e = std::make_unique<Experiment>(spec.config);
    ledger = std::make_unique<OpLedger>(e.get());
    e->Run();
  }
};

void StaleReadAndCounts() {
  Short run("ycsb-b");
  Experiment& e = *run.e;
  Expect(true, run.ledger->CheckFreshness(), "freshness, healthy run");
  Expect(true, CheckOpAccounting(*run.ledger, e.rows()),
         "op accounting, healthy run");
  Expect(true, CheckFractionRange(e.rows(), e.config().balancer),
         "fraction range, healthy run");

  // A secondary read that returned data from before t = 1 s, observed at
  // t = 25 s: its age is about 24 s against a 13 s limit.
  dcg::workload::OpOutcome stale;
  stale.type = "read";
  stale.read_only = true;
  stale.used_secondary = true;
  stale.node = 1;
  stale.operation_time = {sim::Seconds(1), 1};
  run.ledger->Observe(stale);
  Expect(false, run.ledger->CheckFreshness(), "freshness, stale read");

  std::vector<dcg::exp::PeriodRow> rows = e.rows();
  rows[1].reads += 1;
  Expect(false, CheckOpAccounting(*run.ledger, rows),
         "op accounting, miscounted period");

  rows = e.rows();
  rows[1].balance_fraction = 0.05;
  Expect(false, CheckFractionRange(rows, e.config().balancer),
         "fraction range, fraction 0.05 < low_bal");

  Expect(true, StopAndDrain(e), "drain, healthy run");
  Expect(true, CheckConvergence(e), "convergence, healthy run");
  Expect(true, CheckYcsbData(e), "ycsb data, healthy run");
  UpdateSpec edit;
  edit.Set("field0", Value("diverged"));
  e.replica_set().node(2).db().GetOrCreate(e.config().ycsb.table).Update(
      Value(int64_t{17}), edit);
  Expect(false, CheckConvergence(e), "convergence, diverged document");
}

void TpccConditions() {
  Short run("tpcc");
  Experiment& e = *run.e;
  Expect(true, StopAndDrain(e), "drain, healthy tpcc run");
  Expect(true, CheckTpccConsistency(e), "tpcc consistency, healthy run");
  UpdateSpec more;
  more.Inc("w_ytd", 100.0);
  e.replica_set().node(1).db().GetOrCreate("warehouse").Update(
      Value(int64_t{2}), more);
  Expect(false, CheckTpccConsistency(e), "tpcc condition 1, broken W_YTD");
  UpdateSpec less;
  less.Inc("w_ytd", -100.0);
  e.replica_set().node(1).db().GetOrCreate("warehouse").Update(
      Value(int64_t{2}), less);
  Expect(true, CheckTpccConsistency(e), "tpcc consistency, W_YTD restored");
  UpdateSpec skip;
  skip.Inc("d_next_o_id", int64_t{1});
  e.replica_set().node(0).db().GetOrCreate("district").Update(
      Value::List({int64_t{1}, int64_t{3}}), skip);
  Expect(false, CheckTpccConsistency(e), "tpcc condition 2, skipped O_ID");
}

void MisplacedShardDocument() {
  Short run("sharded-ycsb-b");
  Experiment& e = *run.e;
  Expect(true, run.ledger->CheckFreshness(),
         "freshness, healthy sharded run");
  // A secondary read that returned shard 0's first oplog entry: the reply
  // names no shard, so the check must find it by oplog lookup.
  dcg::workload::OpOutcome stale;
  stale.type = "read";
  stale.read_only = true;
  stale.used_secondary = true;
  stale.operation_time =
      e.sharded_cluster()->shard(0).oplog().ReadAfter(0, 1).front().optime;
  run.ledger->Observe(stale);
  Expect(false, run.ledger->CheckFreshness(),
         "freshness, stale read on one shard");
  Expect(true, StopAndDrain(e), "drain, healthy sharded run");
  Expect(true, CheckConvergence(e), "convergence, healthy sharded run");
  Expect(true, CheckYcsbData(e), "ycsb data, healthy sharded run");
  // Copy one of shard 0's documents onto every node of shard 1.
  dcg::shard::ShardedCluster& cluster = *e.sharded_cluster();
  const std::string& table = e.config().ycsb.table;
  dcg::store::DocPtr doc;
  cluster.shard(0).primary().db().Get(table)->ForEach(
      [&](const Value&, const dcg::store::DocPtr& d) {
        doc = d;
        return false;
      });
  for (int i = 0; i < cluster.shard(1).node_count(); ++i) {
    cluster.shard(1).node(i).db().GetOrCreate(table).Upsert(*doc);
  }
  Expect(true, CheckConvergence(e), "convergence, misplaced copy on all nodes");
  Expect(false, CheckYcsbData(e), "ycsb data, misplaced shard document");
}

}  // namespace
}  // namespace replaybench

int main() {
  replaybench::StaleReadAndCounts();
  replaybench::TpccConditions();
  replaybench::MisplacedShardDocument();
  std::printf("%s: %d expectation(s) failed\n",
              replaybench::g_failures == 0 ? "PASS" : "FAIL",
              replaybench::g_failures);
  return replaybench::g_failures == 0 ? 0 : 1;
}
