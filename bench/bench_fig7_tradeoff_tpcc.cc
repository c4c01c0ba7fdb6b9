// Figure 7: performance vs staleness trade-off for Stock Level
// transactions in read-write TPC-C, client counts {20, 100, 180}.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 7", "read-write TPC-C Stock Level trade-off vs staleness");

  const int paper_counts[] = {20, 100, 180};
  const exp::SystemType systems[] = {exp::SystemType::kPrimary,
                                     exp::SystemType::kSecondary,
                                     exp::SystemType::kDecongestant};

  exp::Summary grid[3][3];
  std::printf("%-14s %8s %8s %12s %10s %12s %10s\n", "system", "clients",
              "(sim)", "SL txn/s", "p80(ms)", "p80stale(s)", "maxstale(s)");
  for (int s = 0; s < 3; ++s) {
    for (int c = 0; c < 3; ++c) {
      exp::ExperimentConfig config;
      config.seed = 47;
      config.system = systems[s];
      config.kind = exp::WorkloadKind::kTpcc;
      config.phases = {{0, ScaledClients(paper_counts[c]), 0.5}};
      config.duration = sim::Seconds(280);
      config.warmup = sim::Seconds(100);
      config.balancer.stale_bound_seconds = 10;
      ApplyTpccDiskProfile(&config);
      exp::Experiment experiment(config);
      experiment.Run();
      grid[s][c] = experiment.Summarize();
      std::printf("%-14s %8d %8d %12.0f %10.2f %12.2f %10.2f\n",
                  ToString(systems[s]).data(), paper_counts[c],
                  ScaledClients(paper_counts[c]),
                  grid[s][c].stock_level_throughput,
                  grid[s][c].p80_stock_level_latency_ms,
                  grid[s][c].p80_staleness_s, grid[s][c].max_staleness_s);
    }
  }

  const exp::Summary& pri = grid[0][2];
  const exp::Summary& sec = grid[1][2];
  const exp::Summary& dcg = grid[2][2];

  ShapeCheck(
      "heavy load: Decongestant Stock Level throughput well above the "
      "Primary baseline",
      dcg.stock_level_throughput > 1.2 * pri.stock_level_throughput);
  ShapeCheck(
      "heavy load: Decongestant P80 Stock Level latency below the Primary "
      "baseline",
      dcg.p80_stock_level_latency_ms < pri.p80_stock_level_latency_ms);
  ShapeCheck(
      "heavy load: Decongestant bounds staleness while the Secondary "
      "baseline does not (max staleness ordering)",
      dcg.max_staleness_s <= sec.max_staleness_s + 0.5);
  ShapeCheck(
      "Decongestant client-observed staleness respects the 10 s bound "
      "(within reporting granularity)",
      dcg.max_staleness_s <= 12.0);
  return ShapeExitCode();
}
