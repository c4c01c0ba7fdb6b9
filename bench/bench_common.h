// Shared helpers for the figure/table reproduction benches.
//
// Conventions:
//  * Client counts from the paper are scaled by kClientScale (the simulated
//    nodes are deliberately slower than the paper's r4.2xlarge so that long
//    experiments stay cheap; saturation therefore occurs at proportionally
//    fewer closed-loop clients). Every bench prints both numbers.
//  * Each bench prints the same series/rows the corresponding figure
//    plots, plus a SHAPE CHECK block restating the qualitative claim being
//    reproduced, and exits nonzero when any of those checks fails.

#ifndef DCG_BENCH_BENCH_COMMON_H_
#define DCG_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace dcg::bench {

/// Paper-to-simulation client-count scale (see DESIGN.md §5).
constexpr int kClientScale = 4;

inline int ScaledClients(int paper_clients) {
  return std::max(2, paper_clients / kClientScale);
}

inline void Banner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

inline void Note(const char* text) { std::printf("%s\n", text); }

/// TPC-C experiments use a slower checkpoint disk: the paper's TPC-C runs
/// saturate EBS during checkpoints (§4.5), which is what produces the
/// >15 s flushes that stall getMore and grow staleness past the bound.
inline void ApplyTpccDiskProfile(exp::ExperimentConfig* config) {
  config->server.checkpoint_disk_bw = 2.0e6;
}

/// One row of the Figure 2/3/4-style time series.
inline void PrintSeriesHeader(bool tpcc) {
  std::printf("%8s %12s %10s %8s %10s %7s\n", "time(s)",
              tpcc ? "SL txn/s" : "reads/s", "p80(ms)", "sec(%)", "fraction",
              "est(s)");
}

inline void PrintSeriesRow(const exp::PeriodRow& row, bool tpcc) {
  const double throughput =
      tpcc ? (sim::ToSeconds(row.end - row.start) > 0
                  ? static_cast<double>(row.stock_level) /
                        sim::ToSeconds(row.end - row.start)
                  : 0)
           : row.ReadThroughput();
  const double p80 =
      tpcc ? row.stock_level_latency.Percentile(80) /
                 static_cast<double>(sim::kMillisecond)
           : row.P80ReadLatencyMs();
  std::printf("%8.0f %12.0f %10.2f %8.1f %10.2f %7lld\n",
              sim::ToSeconds(row.start), throughput, p80,
              row.SecondaryPercent(), row.balance_fraction,
              static_cast<long long>(row.est_staleness_max_s));
}

inline void PrintSeries(const exp::Experiment& experiment, bool tpcc) {
  PrintSeriesHeader(tpcc);
  for (const auto& row : experiment.rows()) PrintSeriesRow(row, tpcc);
}

struct SweepPoint {
  int paper_clients = 0;
  exp::Summary summary;
};

inline void PrintSweepTable(const char* system,
                            const std::vector<SweepPoint>& points,
                            bool tpcc) {
  std::printf("\n[%s]\n", system);
  std::printf("%8s %8s %12s %10s %8s %10s\n", "clients", "(sim)",
              tpcc ? "SL txn/s" : "reads/s", "p80(ms)", "sec(%)",
              "p80stale(s)");
  for (const auto& p : points) {
    std::printf("%8d %8d %12.0f %10.2f %8.1f %10.2f\n", p.paper_clients,
                ScaledClients(p.paper_clients),
                tpcc ? p.summary.stock_level_throughput
                     : p.summary.read_throughput,
                tpcc ? p.summary.p80_stock_level_latency_ms
                     : p.summary.p80_read_latency_ms,
                p.summary.secondary_percent, p.summary.p80_staleness_s);
  }
}

inline const char* PassFail(bool ok) { return ok ? "PASS" : "FAIL"; }

/// Shape checks that have failed so far in this process.
inline int& ShapeFailures() {
  static int failures = 0;
  return failures;
}

inline void ShapeCheck(const char* claim, bool ok) {
  std::printf("SHAPE CHECK [%s]: %s\n", PassFail(ok), claim);
  if (!ok) ++ShapeFailures();
}

/// A bench's exit status: nonzero when any shape check failed, so a
/// scripted run of the bench gates on the claims it reproduces.
inline int ShapeExitCode() {
  if (ShapeFailures() == 0) return 0;
  std::printf("\n%d SHAPE CHECK(s) FAILED\n", ShapeFailures());
  return 1;
}

}  // namespace dcg::bench

#endif  // DCG_BENCH_BENCH_COMMON_H_
