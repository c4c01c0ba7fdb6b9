#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <utility>

namespace replaybench {

namespace sim = dcg::sim;
using dcg::doc::Value;
using dcg::exp::Experiment;
using dcg::repl::ReplicaSet;

namespace {

std::string Format(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

CheckResult Pass(std::string name, std::string detail) {
  return {std::move(name), true, std::move(detail)};
}
CheckResult Fail(std::string name, std::string detail) {
  return {std::move(name), false, std::move(detail)};
}

}  // namespace

std::vector<ReplicaSet*> ReplicaSets(Experiment& e) {
  std::vector<ReplicaSet*> sets;
  if (e.sharded()) {
    for (int s = 0; s < e.sharded_cluster()->shard_count(); ++s) {
      sets.push_back(&e.sharded_cluster()->shard(s));
    }
  } else {
    sets.push_back(&e.replica_set());
  }
  return sets;
}

// --- OpLedger -----------------------------------------------------------

OpLedger::OpLedger(Experiment* experiment) : experiment_(experiment) {
  limit_s_ = static_cast<double>(
                 experiment->config().balancer.stale_bound_seconds) +
             kFreshnessGraceSeconds;
  experiment->SetOpObserver(
      [this](const dcg::workload::OpOutcome& o) { Observe(o); });
}

void OpLedger::Observe(const dcg::workload::OpOutcome& outcome) {
  ++attempted_;
  if (!outcome.ok) {
    ++failed_;
    return;
  }
  // The program files this op under the period still open, which becomes
  // row number rows().size() when it closes.
  const size_t period = experiment_->rows().size();
  if (periods_.size() <= period) periods_.resize(period + 1);
  PeriodCounts& counts = periods_[period];
  if (!outcome.read_only) {
    ++writes_;
    ++counts.writes;
    return;
  }
  ++reads_;
  ++counts.reads;
  if (!outcome.used_secondary) return;
  ++counts.reads_secondary;
  ++secondary_reads_;

  const dcg::repl::OpTime& at = outcome.operation_time;
  if (!experiment_->sharded()) {
    const double age = sim::ToSeconds(
        experiment_->replica_set().primary().last_applied().wall - at.wall);
    max_age_s_ = std::max(max_age_s_, age);
    if (age > limit_s_) ++over_limit_;
    return;
  }
  // Sharded: the reply does not name its shard. Every shard whose primary
  // has reached the read's sequence is a candidate; the largest candidate
  // age bounds the true one from above.
  dcg::shard::ShardedCluster& cluster = *experiment_->sharded_cluster();
  double bound = 0;
  Suspect suspect;
  suspect.optime = at;
  for (int s = 0; s < cluster.shard_count(); ++s) {
    const dcg::repl::OpTime& primary = cluster.shard(s).primary().last_applied();
    if (primary.seq < at.seq) {
      suspect.primary_wall.push_back(std::numeric_limits<sim::Time>::min());
      continue;
    }
    suspect.primary_wall.push_back(primary.wall);
    bound = std::max(bound, sim::ToSeconds(primary.wall - at.wall));
  }
  if (bound <= limit_s_) {
    max_age_s_ = std::max(max_age_s_, bound);
  } else {
    suspects_.push_back(std::move(suspect));
  }
}

CheckResult OpLedger::CheckFreshness() {
  uint64_t over = over_limit_;
  double worst = max_age_s_;
  uint64_t unresolved = 0;
  for (const Suspect& suspect : suspects_) {
    dcg::shard::ShardedCluster& cluster = *experiment_->sharded_cluster();
    bool found = false;
    double age = 0;
    for (int s = 0; s < cluster.shard_count(); ++s) {
      if (suspect.primary_wall[s] == std::numeric_limits<sim::Time>::min()) {
        continue;
      }
      const dcg::repl::Oplog& oplog = cluster.shard(s).oplog();
      const uint64_t seq = suspect.optime.seq;
      bool match = seq == 0;
      if (seq > 0 && seq >= oplog.first_seq() && seq <= oplog.last_seq()) {
        match = oplog.ReadAfter(seq - 1, 1).front().optime.wall ==
                suspect.optime.wall;
      }
      if (!match) continue;
      found = true;
      age = std::max(age,
                     sim::ToSeconds(suspect.primary_wall[s] - suspect.optime.wall));
    }
    if (!found) {
      ++unresolved;
      continue;
    }
    worst = std::max(worst, age);
    if (age > limit_s_) ++over;
  }
  const std::string detail =
      Format("secondary reads %.0f, worst age %.3f s, limit %.1f s",
             static_cast<double>(secondary_reads_), worst, limit_s_) +
      Format(", over limit %.0f, unattributed %.0f", static_cast<double>(over),
             static_cast<double>(unresolved));
  if (over > 0 || unresolved > 0) return Fail("freshness", detail);
  return Pass("freshness", detail);
}

// --- period checks ------------------------------------------------------

CheckResult CheckOpAccounting(const OpLedger& ledger,
                              const std::vector<dcg::exp::PeriodRow>& rows) {
  const OpLedger::PeriodCounts none;
  for (size_t r = 0; r < rows.size(); ++r) {
    const OpLedger::PeriodCounts& seen =
        r < ledger.periods().size() ? ledger.periods()[r] : none;
    const dcg::exp::PeriodRow& row = rows[r];
    if (seen.reads != row.reads || seen.reads_secondary != row.reads_secondary ||
        seen.writes != row.writes) {
      return Fail("op_accounting",
                  Format("period %.0f: observer reads/secondary/writes ",
                         static_cast<double>(r)) +
                      Format("%.0f/%.0f/%.0f", static_cast<double>(seen.reads),
                             static_cast<double>(seen.reads_secondary),
                             static_cast<double>(seen.writes)) +
                      Format(" vs rows %.0f/%.0f/%.0f",
                             static_cast<double>(row.reads),
                             static_cast<double>(row.reads_secondary),
                             static_cast<double>(row.writes)));
    }
  }
  return Pass("op_accounting", Format("%.0f periods agree",
                                      static_cast<double>(rows.size())));
}

CheckResult CheckFractionRange(const std::vector<dcg::exp::PeriodRow>& rows,
                               const dcg::core::BalancerConfig& balancer) {
  constexpr double kEps = 1e-9;
  auto in_range = [&](double f) {
    return f == 0.0 ||
           (f >= balancer.low_bal - kEps && f <= balancer.high_bal + kEps);
  };
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<double> published = rows[r].shard_balance_fraction;
    if (published.empty()) published.push_back(rows[r].balance_fraction);
    for (double f : published) {
      if (!in_range(f)) {
        return Fail("fraction_range",
                    Format("period %.0f: fraction %.4f outside {0} + [%.2f, ",
                           static_cast<double>(r), f, balancer.low_bal) +
                        Format("%.2f]", balancer.high_bal));
      }
    }
  }
  return Pass("fraction_range", Format("%.0f periods in range",
                                       static_cast<double>(rows.size())));
}

// --- end-of-run data checks ----------------------------------------------

CheckResult StopAndDrain(Experiment& e) {
  sim::EventLoop& loop = e.loop();
  e.pool().SetTarget(0);
  const sim::Time park_deadline = loop.Now() + sim::Seconds(60);
  while (e.pool().running() > 0 && loop.Now() < park_deadline) {
    loop.RunUntil(loop.Now() + sim::Millis(100));
  }
  if (e.pool().running() > 0) {
    return Fail("drain", "clients still running 60 sim-s after stop");
  }
  std::vector<uint64_t> target;
  for (ReplicaSet* rs : ReplicaSets(e)) {
    target.push_back(rs->primary().last_applied().seq);
  }
  const sim::Time start = loop.Now();
  const sim::Time deadline = start + sim::Seconds(120);
  auto caught_up = [&] {
    const std::vector<ReplicaSet*> sets = ReplicaSets(e);
    for (size_t s = 0; s < sets.size(); ++s) {
      for (int i = 0; i < sets[s]->node_count(); ++i) {
        if (i == sets[s]->primary_index() || !sets[s]->IsAlive(i)) continue;
        if (sets[s]->node(i).last_applied().seq < target[s]) return false;
      }
    }
    return true;
  };
  while (!caught_up()) {
    if (loop.Now() >= deadline) {
      return Fail("drain", "secondaries still behind 120 sim-s after stop");
    }
    loop.RunUntil(loop.Now() + sim::Millis(500));
  }
  return Pass("drain", Format("replication drained in %.1f sim-s",
                              sim::ToSeconds(loop.Now() - start)));
}

CheckResult CheckConvergence(Experiment& e) {
  const std::string& probe = e.config().s_config.collection;
  uint64_t documents = 0;
  const std::vector<ReplicaSet*> sets = ReplicaSets(e);
  for (size_t s = 0; s < sets.size(); ++s) {
    ReplicaSet& rs = *sets[s];
    const dcg::store::Database& primary = rs.primary().db();
    std::vector<std::string> names = primary.CollectionNames();
    names.erase(std::remove(names.begin(), names.end(), probe), names.end());
    for (int i = 0; i < rs.node_count(); ++i) {
      if (i == rs.primary_index()) continue;
      const dcg::store::Database& secondary = rs.node(i).db();
      std::vector<std::string> other = secondary.CollectionNames();
      other.erase(std::remove(other.begin(), other.end(), probe), other.end());
      if (other != names) {
        return Fail("convergence",
                    Format("shard %.0f node %.0f: collection sets differ",
                           static_cast<double>(s), i));
      }
      for (const std::string& name : names) {
        const dcg::store::Collection& want = *primary.Get(name);
        const dcg::store::Collection& got = *secondary.Get(name);
        if (want.size() != got.size()) {
          return Fail("convergence",
                      "shard " + std::to_string(s) + " node " +
                          std::to_string(i) + " " + name + ": " +
                          std::to_string(got.size()) + " documents, primary " +
                          std::to_string(want.size()));
        }
        std::string diverged;
        want.ForEach([&](const Value& id, const dcg::store::DocPtr& doc) {
          ++documents;
          const dcg::store::DocPtr copy = got.FindById(id);
          if (copy == nullptr || copy->Compare(*doc) != 0) {
            diverged = name + " _id " + id.ToJson();
            return false;
          }
          return true;
        });
        if (!diverged.empty()) {
          return Fail("convergence", "shard " + std::to_string(s) + " node " +
                                         std::to_string(i) + ": " + diverged +
                                         " differs from the primary");
        }
      }
    }
  }
  return Pass("convergence", Format("%.0f secondary documents equal",
                                    static_cast<double>(documents)));
}

CheckResult CheckYcsbData(Experiment& e) {
  const dcg::workload::YcsbConfig& ycsb = e.config().ycsb;
  const int64_t n = ycsb.record_count;
  std::vector<uint8_t> owners(static_cast<size_t>(n), 0);
  const std::vector<ReplicaSet*> sets = ReplicaSets(e);
  for (size_t s = 0; s < sets.size(); ++s) {
    ReplicaSet& rs = *sets[s];
    for (int i = 0; i < rs.node_count(); ++i) {
      const dcg::store::Collection* table = rs.node(i).db().Get(ycsb.table);
      if (table == nullptr) return Fail("ycsb_data", "table missing");
      std::string problem;
      int64_t expected = 0;
      table->ForEach([&](const Value& id, const dcg::store::DocPtr&) {
        if (!id.is_int64() || id.as_int64() < 0 || id.as_int64() >= n) {
          problem = "id " + id.ToJson() + " outside 0..N-1";
          return false;
        }
        const int64_t key = id.as_int64();
        if (e.sharded()) {
          if (e.sharded_cluster()->ShardFor(id) != static_cast<int>(s)) {
            problem = "id " + id.ToJson() + " on a shard that does not own it";
            return false;
          }
          if (i == rs.primary_index()) ++owners[static_cast<size_t>(key)];
        } else if (key != expected++) {
          problem = "id " + std::to_string(expected - 1) + " missing";
          return false;
        }
        return true;
      });
      if (problem.empty() && !e.sharded() && expected != n) {
        problem = std::to_string(expected) + " documents, want " +
                  std::to_string(n);
      }
      if (!problem.empty()) {
        return Fail("ycsb_data", "shard " + std::to_string(s) + " node " +
                                     std::to_string(i) + ": " + problem);
      }
    }
  }
  if (e.sharded()) {
    for (int64_t key = 0; key < n; ++key) {
      if (owners[static_cast<size_t>(key)] != 1) {
        return Fail("ycsb_data",
                    "id " + std::to_string(key) + " held by " +
                        std::to_string(owners[static_cast<size_t>(key)]) +
                        " shards");
      }
    }
  }
  return Pass("ycsb_data", Format("ids 0..%.0f present once on %.0f "
                                  "replica set(s)",
                                  static_cast<double>(n - 1),
                                  static_cast<double>(sets.size())));
}

CheckResult CheckTpccConsistency(Experiment& e) {
  const ReplicaSet& rs = e.replica_set();
  for (int i = 0; i < rs.node_count(); ++i) {
    const dcg::store::Database& db = rs.node(i).db();
    const dcg::store::Collection* warehouses = db.Get("warehouse");
    const dcg::store::Collection* districts = db.Get("district");
    const dcg::store::Collection* orders = db.Get("orders");
    if (warehouses == nullptr || districts == nullptr || orders == nullptr) {
      return Fail("tpcc_consistency", "TPC-C collections missing");
    }
    std::map<int64_t, double> district_ytd;
    std::map<std::pair<int64_t, int64_t>, int64_t> next_order;
    districts->ForEach([&](const Value& id, const dcg::store::DocPtr& d) {
      const int64_t w = id.as_array()[0].as_int64();
      district_ytd[w] += d->Find("d_ytd")->as_number();
      next_order[{w, id.as_array()[1].as_int64()}] =
          d->Find("d_next_o_id")->as_int64();
      return true;
    });
    std::string problem;
    warehouses->ForEach([&](const Value& id, const dcg::store::DocPtr& w) {
      const double w_ytd = w->Find("w_ytd")->as_number();
      const double sum = district_ytd[id.as_int64()];
      if (std::fabs(w_ytd - sum) > 1e-6 * std::max(1.0, std::fabs(w_ytd))) {
        problem = "condition 1: warehouse " + id.ToJson() + " W_YTD " +
                  std::to_string(w_ytd) + " != sum D_YTD " +
                  std::to_string(sum);
        return false;
      }
      return true;
    });
    std::map<std::pair<int64_t, int64_t>, int64_t> max_order;
    orders->ForEach([&](const Value& id, const dcg::store::DocPtr&) {
      const dcg::doc::Array& key = id.as_array();
      int64_t& top = max_order[{key[0].as_int64(), key[1].as_int64()}];
      top = std::max(top, key[2].as_int64());
      return true;
    });
    for (const auto& [district, next] : next_order) {
      if (!problem.empty()) break;
      const auto it = max_order.find(district);
      if (it == max_order.end() || it->second != next - 1) {
        problem = "condition 2: district (" + std::to_string(district.first) +
                  "," + std::to_string(district.second) + ") D_NEXT_O_ID " +
                  std::to_string(next) + ", max O_ID " +
                  (it == max_order.end() ? std::string("none")
                                         : std::to_string(it->second));
      }
    }
    if (!problem.empty()) {
      return Fail("tpcc_consistency",
                  "node " + std::to_string(i) + ": " + problem);
    }
  }
  return Pass("tpcc_consistency",
              Format("conditions 1 and 2 hold on %.0f nodes",
                     static_cast<double>(rs.node_count())));
}

}  // namespace replaybench
