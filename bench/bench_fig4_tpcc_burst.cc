// Figure 4: response to client-count variation in read-write TPC-C.
// 20 clients -> 200 at the 5th minute -> 20 at the 10th minute.
// Stale bound 10 s; downward staleness spikes during the burst are the
// Read Balancer reacting to secondaries exceeding the bound.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 4", "read-write TPC-C client burst: 20 -> 200 -> 20");
  std::printf("paper clients: 20/200/20 (sim: %d/%d/%d), stale bound 10 s\n",
              ScaledClients(20), ScaledClients(200), ScaledClients(20));

  const exp::SystemType systems[] = {exp::SystemType::kDecongestant,
                                     exp::SystemType::kPrimary,
                                     exp::SystemType::kSecondary};

  double burst_secondary_pct = 0;
  double post_secondary_pct = 100;
  uint64_t stale_zero_events = 0;
  exp::Summary burst[3];

  for (int i = 0; i < 3; ++i) {
    exp::ExperimentConfig config;
    config.seed = 44;
    config.system = systems[i];
    config.kind = exp::WorkloadKind::kTpcc;
    config.phases = {{0, ScaledClients(20), 0.5},
                     {sim::kMinute * 5, ScaledClients(200), 0.5},
                     {sim::kMinute * 10, ScaledClients(20), 0.5}};
    config.duration = sim::kMinute * 15;
    config.warmup = sim::kMinute * 5;
    config.balancer.stale_bound_seconds = 10;
    ApplyTpccDiskProfile(&config);

    exp::Experiment experiment(config);
    experiment.Run();

    std::printf("\n--- system: %s ---\n", ToString(systems[i]).data());
    PrintSeries(experiment, /*tpcc=*/true);

    // Burst-phase summary (minutes 6-10, past the ramp).
    metrics::Histogram lat;
    uint64_t sl = 0, sl_sec = 0;
    sim::Duration secs = 0;
    double late_pct_sum = 0;
    int late_pct_n = 0;
    for (const auto& row : experiment.rows()) {
      if (row.start >= sim::kMinute * 6 && row.start < sim::kMinute * 10) {
        sl += row.stock_level;
        secs += row.end - row.start;
        lat.Merge(row.stock_level_latency);
        if (systems[i] == exp::SystemType::kDecongestant) {
          burst_secondary_pct =
              std::max(burst_secondary_pct, row.SecondaryPercent());
        }
      }
      if (row.start >= sim::kMinute * 13 &&
          systems[i] == exp::SystemType::kDecongestant && row.reads > 0) {
        late_pct_sum += row.SecondaryPercent();
        ++late_pct_n;
      }
      (void)sl_sec;
    }
    burst[i].stock_level_throughput =
        static_cast<double>(sl) / sim::ToSeconds(secs);
    burst[i].p80_stock_level_latency_ms =
        lat.Percentile(80) / static_cast<double>(sim::kMillisecond);
    if (systems[i] == exp::SystemType::kDecongestant) {
      if (late_pct_n > 0) post_secondary_pct = late_pct_sum / late_pct_n;
      stale_zero_events = experiment.balancer()->stale_zero_events();
    }
  }

  std::printf("\nburst-phase (min 6-10) Stock Level summaries:\n");
  std::printf("%-14s %12s %10s\n", "system", "SL txn/s", "p80(ms)");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-14s %12.0f %10.2f\n", ToString(systems[i]).data(),
                burst[i].stock_level_throughput,
                burst[i].p80_stock_level_latency_ms);
  }
  std::printf("\nDecongestant staleness-triggered zero events: %llu\n",
              static_cast<unsigned long long>(stale_zero_events));

  ShapeCheck(
      "during the burst Decongestant pushes Stock Level reads to the "
      "secondaries",
      burst_secondary_pct >= 50.0);
  ShapeCheck(
      "burst performance is close to (or better than) the Secondary "
      "baseline",
      burst[0].stock_level_throughput >=
          0.85 * burst[2].stock_level_throughput);
  ShapeCheck(
      "staleness exceeding the 10 s bound triggered primary-only episodes "
      "(the pink lines of Fig. 4)",
      stale_zero_events > 0);
  ShapeCheck(
      "after the burst most Stock Levels return to the now-uncongested "
      "primary",
      post_secondary_pct <= 40.0);
  return ShapeExitCode();
}
