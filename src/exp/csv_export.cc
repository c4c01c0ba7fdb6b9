#include "exp/csv_export.h"

#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace dcg::exp {
namespace {

class CsvFile {
 public:
  explicit CsvFile(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")) {}
  ~CsvFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  bool ok() const { return file_ != nullptr; }
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list args;
    va_start(args, fmt);
    std::vfprintf(file_, fmt, args);
    va_end(args);
    std::fputc('\n', file_);
  }

 private:
  std::FILE* file_;
};

}  // namespace

bool WritePeriodsCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: start_s=seconds reads=count reads_secondary=count "
      "writes=count read_throughput=ops/s p80_latency_ms=ms "
      "secondary_pct=percent balance_fraction=fraction "
      "est_staleness_s=seconds stock_level=count stock_level_p80_ms=ms "
      "ops_ok=count ops_timed_out=count ops_retried=count hedges_won=count "
      "pool_checkout_timeouts=count pool_checkout_wait_ms=ms "
      "pool_queue_depth=count envelopes_sent=count ops_batched=count "
      "served_age_mean_s=seconds served_age_max_s=seconds "
      "balance_from=fraction balance_to=fraction balance_reason=enum "
      "slo_firing=count slo_pending=count slo_max_burn=ratio "
      "slo_events=count");
  csv.Line(
      "start_s,reads,reads_secondary,writes,read_throughput,"
      "p80_latency_ms,secondary_pct,balance_fraction,est_staleness_s,"
      "stock_level,stock_level_p80_ms,ops_ok,ops_timed_out,ops_retried,"
      "hedges_won,pool_checkout_timeouts,pool_checkout_wait_ms,"
      "pool_queue_depth,envelopes_sent,ops_batched,served_age_mean_s,"
      "served_age_max_s,balance_from,balance_to,balance_reason,"
      "slo_firing,slo_pending,slo_max_burn,slo_events");
  // Registry-sourced columns, resolved once per file. Counter differences
  // are whole numbers and print with %.0f.
  const auto values = [&experiment](std::string_view name) {
    return PeriodValues(experiment, name);
  };
  const std::vector<double> ops_ok = values("ops_ok");
  const std::vector<double> ops_timed_out = values("ops_timed_out");
  const std::vector<double> ops_retried = values("ops_retried");
  const std::vector<double> hedges_won = values("hedges_won");
  const std::vector<double> checkout_timeouts =
      values("pool_checkout_timeouts");
  const std::vector<double> checkout_wait_ns = values("pool_checkout_wait_ns");
  const std::vector<double> queue_depth = values("pool_queue_depth");
  const std::vector<double> envelopes = values("envelopes_sent");
  const std::vector<double> ops_batched = values("ops_batched");
  const std::vector<double> slo_firing = values("slo_alerts_firing");
  const std::vector<double> slo_pending = values("slo_alerts_pending");
  const std::vector<double> slo_max_burn = values("slo_max_burn");
  const std::vector<double> slo_events = values("slo_events");
  const std::vector<const obs::BalanceDecision*> decisions =
      PeriodDecisions(experiment);
  for (size_t r = 0; r < experiment.rows().size(); ++r) {
    const PeriodRow& row = experiment.rows()[r];
    const obs::BalanceDecision* decision = decisions[r];
    csv.Line("%.1f,%llu,%llu,%llu,%.2f,%.3f,%.2f,%.2f,%lld,%llu,%.3f,"
             "%.0f,%.0f,%.0f,%.0f,%.0f,%.3f,%.0f,%.0f,%.0f,%.4f,%.4f,"
             "%.2f,%.2f,%s,%.0f,%.0f,%.3f,%.0f",
             sim::ToSeconds(row.start),
             static_cast<unsigned long long>(row.reads),
             static_cast<unsigned long long>(row.reads_secondary),
             static_cast<unsigned long long>(row.writes),
             row.ReadThroughput(), row.P80ReadLatencyMs(),
             row.SecondaryPercent(), row.balance_fraction,
             static_cast<long long>(row.est_staleness_max_s),
             static_cast<unsigned long long>(row.stock_level),
             row.stock_level_latency.Percentile(80) /
                 static_cast<double>(sim::kMillisecond),
             ops_ok[r], ops_timed_out[r], ops_retried[r], hedges_won[r],
             checkout_timeouts[r],
             sim::ToMillis(static_cast<sim::Duration>(checkout_wait_ns[r])),
             queue_depth[r], envelopes[r], ops_batched[r],
             row.served_age.count() > 0 ? row.served_age.mean() / 1000.0 : 0.0,
             row.served_age.max() / 1000.0,
             decision != nullptr ? decision->from_fraction : 0.0,
             decision != nullptr ? decision->to_fraction : 0.0,
             decision != nullptr
                 ? std::string(obs::ToString(decision->reason)).c_str()
                 : "-",
             slo_firing[r], slo_pending[r], slo_max_burn[r], slo_events[r]);
  }
  return true;
}

bool WriteSloCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: time_s=seconds slo=name shard=index(-1=cluster) "
      "severity=enum transition=enum burn_long=ratio burn_short=ratio "
      "sli=fraction good=count bad=count");
  csv.Line("time_s,slo,shard,severity,transition,burn_long,burn_short,sli,"
           "good,bad");
  const obs::SloEngine* engine = experiment.slo_engine();
  if (engine == nullptr) return true;
  for (const obs::SloEvent& e : engine->events()) {
    csv.Line("%.1f,%s,%d,%s,%s,%.4f,%.4f,%.6f,%llu,%llu",
             sim::ToSeconds(e.at), e.slo.c_str(), e.shard,
             std::string(obs::ToString(e.severity)).c_str(),
             std::string(obs::ToString(e.transition)).c_str(), e.burn_long,
             e.burn_short, e.sli, static_cast<unsigned long long>(e.good),
             static_cast<unsigned long long>(e.bad));
  }
  return true;
}

bool WriteStalenessCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: time_s=seconds estimate_s=seconds true_max_s=seconds");
  csv.Line("time_s,estimate_s,true_max_s");
  for (const StalenessPoint& p : experiment.staleness_series()) {
    csv.Line("%.1f,%.1f,%.3f", sim::ToSeconds(p.at), p.estimate_s,
             p.true_max_s);
  }
  return true;
}

bool WriteSamplesCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line("# units: time_s=seconds observed_staleness_s=seconds");
  csv.Line("time_s,observed_staleness_s");
  for (const auto& [at, staleness] : experiment.s_samples()) {
    csv.Line("%.3f,%.3f", sim::ToSeconds(at), staleness);
  }
  return true;
}

bool WriteDecisionsCsv(const Experiment& experiment, const std::string& path) {
  const obs::DecisionLog* log = experiment.balancer_decisions();
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: time_s=seconds from_fraction=fraction to_fraction=fraction "
      "published_fraction=fraction reason=enum term=count ratio=ratio "
      "ratio_valid=bool lss_primary_ms=ms lss_secondary_ms=ms "
      "history_flat=bool est_staleness_s=seconds stale_bound_s=seconds "
      "secondary_staleness_s=seconds(|-joined,-1=unknown)");
  csv.Line(
      "time_s,from_fraction,to_fraction,published_fraction,reason,term,ratio,"
      "ratio_valid,lss_primary_ms,lss_secondary_ms,history_flat,"
      "est_staleness_s,stale_bound_s,secondary_staleness_s");
  if (log == nullptr) return true;
  for (const obs::BalanceDecision& d : log->entries()) {
    std::string per_node;
    for (size_t i = 0; i < d.secondary_staleness_s.size(); ++i) {
      if (i > 0) per_node += '|';
      per_node += std::to_string(d.secondary_staleness_s[i]);
    }
    csv.Line("%.1f,%.2f,%.2f,%.2f,%s,%llu,%.3f,%d,%.3f,%.3f,%d,%lld,%lld,%s",
             sim::ToSeconds(d.at), d.from_fraction, d.to_fraction,
             d.published_fraction,
             std::string(obs::ToString(d.reason)).c_str(),
             static_cast<unsigned long long>(d.term), d.ratio,
             d.ratio_valid ? 1 : 0, sim::ToMillis(d.lss_primary),
             sim::ToMillis(d.lss_secondary), d.history_flat ? 1 : 0,
             static_cast<long long>(d.staleness_estimate_s),
             static_cast<long long>(d.stale_bound_s), per_node.c_str());
  }
  return true;
}

bool WriteShardsCsv(const Experiment& experiment, const std::string& path) {
  CsvFile csv(path);
  if (!csv.ok()) return false;
  csv.Line(
      "# units: start_s=seconds shard=index point_ops_routed=count "
      "balance_fraction=fraction");
  csv.Line("start_s,shard,point_ops_routed,balance_fraction");
  const int shards = experiment.sharded() ? experiment.config().shards : 0;
  std::vector<std::vector<double>> routed;
  for (int s = 0; s < shards; ++s) {
    routed.push_back(PeriodValues(experiment, "routed_to_shard",
                                  {{"shard", std::to_string(s)}}));
  }
  for (size_t r = 0; r < experiment.rows().size(); ++r) {
    const PeriodRow& row = experiment.rows()[r];
    for (size_t s = 0; s < routed.size(); ++s) {
      csv.Line("%.1f,%zu,%.0f,%.2f", sim::ToSeconds(row.start), s,
               routed[s][r], row.shard_balance_fraction[s]);
    }
  }
  return true;
}

}  // namespace dcg::exp
