// Correctness checks the runner makes on every replay. Each check reads
// the experiment through its public API (or the runner's own op ledger)
// and returns a verdict with a one-line reason; none of them trusts a
// number the program computed about itself when the data can be read.

#ifndef REPLAYBENCH_CHECKS_H_
#define REPLAYBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace replaybench {

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Grace added to StaleBound for the freshness check: the same 3 s the
/// chaos harness allows for the serverStatus granularity and one control
/// period of reaction.
constexpr double kFreshnessGraceSeconds = 3.0;

/// The runner's own op observer. It counts every completed workload op,
/// bins ok reads / secondary reads / writes by the report period the
/// program files them under (the row index at completion), and measures
/// each secondary read's ground-truth age: the serving shard primary's
/// last_applied at completion minus the read's operation_time.
class OpLedger {
 public:
  struct PeriodCounts {
    uint64_t reads = 0;
    uint64_t reads_secondary = 0;
    uint64_t writes = 0;
  };

  /// Installs itself as `experiment`'s op observer.
  explicit OpLedger(dcg::exp::Experiment* experiment);

  OpLedger(const OpLedger&) = delete;
  OpLedger& operator=(const OpLedger&) = delete;

  void Observe(const dcg::workload::OpOutcome& outcome);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t ok() const { return attempted_ - failed_; }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  const std::vector<PeriodCounts>& periods() const { return periods_; }

  /// Freshness verdict: worst age seen, and reads over StaleBound plus
  /// kFreshnessGraceSeconds (the limit Observe applies as reads land). In
  /// sharded mode a read whose upper-bound age (over every shard whose
  /// primary has reached its optime) exceeds the limit is attributed to
  /// its shard by oplog lookup here, after the timed run.
  CheckResult CheckFreshness();

 private:
  struct Suspect {
    dcg::repl::OpTime optime;
    std::vector<dcg::sim::Time> primary_wall;  // per shard, at completion
  };

  dcg::exp::Experiment* experiment_;
  double limit_s_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t secondary_reads_ = 0;
  uint64_t over_limit_ = 0;
  double max_age_s_ = 0;
  std::vector<PeriodCounts> periods_;
  std::vector<Suspect> suspects_;
};

/// The replica sets of the run: one, or one per shard.
std::vector<dcg::repl::ReplicaSet*> ReplicaSets(dcg::exp::Experiment& e);

/// Op observer's per-period counts equal the PeriodRow totals for every
/// closed period.
CheckResult CheckOpAccounting(const OpLedger& ledger,
                              const std::vector<dcg::exp::PeriodRow>& rows);

/// Every published Balance Fraction (per shard when sharded) at a period
/// close is 0 or lies in [low_bal, high_bal].
CheckResult CheckFractionRange(const std::vector<dcg::exp::PeriodRow>& rows,
                               const dcg::core::BalancerConfig& balancer);

/// Parks every client, then runs simulated time until each live
/// secondary has applied the primary's last optime as of the moment the
/// last client stopped. Fails when that takes more than 120 sim-s.
CheckResult StopAndDrain(dcg::exp::Experiment& e);

/// Every secondary's workload collections equal its primary's, document
/// for document (per shard when sharded). The S-workload probe
/// collection is excluded: it keeps being written while the run drains.
CheckResult CheckConvergence(dcg::exp::Experiment& e);

/// YCSB table holds exactly ids 0..N-1; with shards, their id sets are
/// disjoint, their union is 0..N-1, and each document sits on the shard
/// the chunk map assigns.
CheckResult CheckYcsbData(dcg::exp::Experiment& e);

/// TPC-C consistency conditions 1 (W_YTD = sum of D_YTD per warehouse)
/// and 2 (D_NEXT_O_ID - 1 = max O_ID per district) on every node.
CheckResult CheckTpccConsistency(dcg::exp::Experiment& e);

}  // namespace replaybench

#endif  // REPLAYBENCH_CHECKS_H_
