// Ablation A4: the control period (10 s in the paper). Shorter periods
// react faster to workload shifts but decide on fewer latency samples
// (noisier medians); longer periods are smooth but slow to adapt. We
// measure (a) time to reach a 60 % fraction after a congestion step and
// (b) steady-state fraction volatility, per period length.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Ablation A4", "control period sweep: reaction time vs stability");

  const double periods_s[] = {2, 5, 10, 30};
  std::printf("%10s %16s %14s %12s\n", "period(s)", "t(frac>=0.6)(s)",
              "volatility", "reads/s");

  double reaction[4], volatility[4];
  for (int i = 0; i < 4; ++i) {
    exp::ExperimentConfig config;
    config.seed = 63;
    config.system = exp::SystemType::kDecongestant;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 45, 0.95}};  // congested primary from the start
    config.duration = sim::Seconds(600);
    config.warmup = sim::Seconds(300);
    config.balancer.period = sim::Seconds(periods_s[i]);

    exp::Experiment experiment(config);
    double reach_time = -1;
    experiment.balancer()->SetPeriodCallback(
        [&](const core::ReadBalancer::PeriodStats& stats) {
          if (reach_time < 0 && stats.published_fraction >= 0.6) {
            reach_time = sim::ToSeconds(stats.at);
          }
        });
    experiment.Run();

    double delta_sum = 0;
    int n = 0;
    double prev = -1;
    for (const auto& row : experiment.rows()) {
      if (row.start < sim::Seconds(300)) continue;
      if (prev >= 0) {
        delta_sum += std::abs(row.balance_fraction - prev);
        ++n;
      }
      prev = row.balance_fraction;
    }
    reaction[i] = reach_time;
    volatility[i] = delta_sum / n;
    std::printf("%10.0f %16.0f %14.3f %12.0f\n", periods_s[i], reach_time,
                volatility[i], experiment.Summarize().read_throughput);
  }

  ShapeCheck("shorter periods reach the target fraction sooner",
             reaction[0] > 0 && reaction[0] < reaction[3]);
  ShapeCheck("every period length eventually shifts load to secondaries",
             reaction[0] > 0 && reaction[1] > 0 && reaction[2] > 0 &&
                 reaction[3] > 0);
  return ShapeExitCode();
}
