// Ablation A2: the downward probe (when RecentBal has been flat for the
// whole history, push the fraction down by DELTA). Without it, the
// Balance Fraction stays wherever congestion last pushed it, so after
// load drops the system keeps reading from secondaries — paying staleness
// exposure for no performance gain (§3.3: the probe exists "to improve
// the data freshness and avoid potential stale reads").

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Ablation A2", "downward probing on flat history: on vs off");
  Note("workload: YCSB-B burst (45 clients) for 300 s, then light load "
       "(3 clients) for 500 s.");

  double late_fraction[2] = {0, 0};
  double late_secondary_pct[2] = {0, 0};
  for (int variant = 0; variant < 2; ++variant) {
    exp::ExperimentConfig config;
    config.seed = 61;
    config.system = exp::SystemType::kDecongestant;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 45, 0.95}, {sim::Seconds(300), 3, 0.5}};
    config.duration = sim::Seconds(800);
    config.warmup = sim::Seconds(100);
    config.balancer.downward_probe = variant == 0;

    exp::Experiment experiment(config);
    experiment.Run();

    double fraction_sum = 0, pct_sum = 0;
    int n = 0;
    for (const auto& row : experiment.rows()) {
      if (row.start < sim::Seconds(650)) continue;
      fraction_sum += row.balance_fraction;
      pct_sum += row.SecondaryPercent();
      ++n;
    }
    late_fraction[variant] = fraction_sum / n;
    late_secondary_pct[variant] = pct_sum / n;
    std::printf("%-18s settled fraction %.2f, secondary reads %.1f%%\n",
                variant == 0 ? "[probe enabled]" : "[probe disabled]",
                late_fraction[variant], late_secondary_pct[variant]);
  }

  ShapeCheck(
      "with the probe, the fraction returns to the 10% floor after the "
      "load drop",
      late_fraction[0] <= 0.2);
  ShapeCheck(
      "without the probe, the fraction stays stuck high (stale-read "
      "exposure for no gain)",
      late_fraction[1] >= late_fraction[0] + 0.3);
  return ShapeExitCode();
}
