// Ablation A3: the ratio dead band [LOWRATIO, HIGHRATIO] = [0.75, 1.30].
// Without a dead band, any persistent sub-1.3x latency asymmetry (e.g.
// the primary also serving writes) keeps nudging the fraction until it
// rails at the 90 % cap — shipping most reads to secondaries at light
// load, where that buys nothing but staleness exposure. The paper's band
// treats small asymmetries as "balanced" and stays near the
// freshness-friendly floor. Downward probing is disabled to isolate the
// band's own behaviour.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Ablation A3", "dead-band width sweep under steady YCSB-B load");

  struct Band {
    const char* name;
    double low, high;
  };
  const Band bands[] = {
      {"none (1.0/1.0)", 1.0, 1.0 + 1e-9},
      {"narrow (0.95/1.05)", 0.95, 1.05},
      {"paper (0.75/1.30)", 0.75, 1.30},
      {"wide (0.4/2.5)", 0.4, 2.5},
  };

  std::printf("%-20s %12s %14s %10s\n", "band", "reads/s", "volatility",
              "sec(%)");
  double volatility[4], throughput[4], sec_pct[4];
  for (int b = 0; b < 4; ++b) {
    exp::ExperimentConfig config;
    config.seed = 62;
    config.system = exp::SystemType::kDecongestant;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 12, 0.95}};
    config.duration = sim::Seconds(600);
    config.warmup = sim::Seconds(200);  // judge steady-state behaviour
    config.balancer.low_ratio = bands[b].low;
    config.balancer.high_ratio = bands[b].high;
    // Disable the downward probe: its deliberate periodic -DELTA step
    // would mask the band's own (noise-driven) movement.
    config.balancer.downward_probe = false;

    exp::Experiment experiment(config);
    experiment.Run();

    double delta_sum = 0;
    int n = 0;
    double prev = -1;
    for (const auto& row : experiment.rows()) {
      if (row.start < sim::Seconds(200)) continue;
      if (prev >= 0) {
        delta_sum += std::abs(row.balance_fraction - prev);
        ++n;
      }
      prev = row.balance_fraction;
    }
    volatility[b] = delta_sum / n;
    const exp::Summary summary = experiment.Summarize();
    throughput[b] = summary.read_throughput;
    sec_pct[b] = summary.secondary_percent;
    std::printf("%-20s %12.0f %14.3f %10.1f\n", bands[b].name,
                summary.read_throughput, volatility[b], sec_pct[b]);
  }

  ShapeCheck(
      "without a dead band the fraction rails at the cap (~90% secondary "
      "reads at light load)",
      sec_pct[0] >= 80.0 && sec_pct[1] >= 80.0);
  ShapeCheck(
      "the paper's band keeps light-load reads mostly on the fresh "
      "primary",
      sec_pct[2] <= 40.0);
  ShapeCheck(
      "the paper's band does not sacrifice throughput for that freshness",
      throughput[2] >= 0.95 * std::max(throughput[0], throughput[1]));
  return ShapeExitCode();
}
