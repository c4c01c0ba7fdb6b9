// Ablation A1: the − P50(RTT) term of the Server-Side Latency estimate
// (§3.3.1). With asymmetric availability-zone RTTs and light reads, raw
// client latencies make the nearer node look faster even when server-side
// times are equal — steering the balancer wrongly. The experiment widens
// the AZ spread (client co-located with the primary) and compares the
// fraction chosen with and without the subtraction at *light* load, where
// the correct answer is the 10 % floor via downward probing, undisturbed
// by phantom "secondary congestion".

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Ablation A1", "Server-Side Latency: subtract P50(RTT) or not");
  Note("client co-located with the primary: RTT 0.3 ms to the primary, "
       "2.6/3.0 ms to the secondaries.\nworkload: moderate YCSB-B, where "
       "server-side times on primary vs secondaries are comparable.");

  double avg_fraction[2] = {0, 0};
  double avg_ratio[2] = {0, 0};
  for (int variant = 0; variant < 2; ++variant) {
    exp::ExperimentConfig config;
    config.seed = 60;
    config.system = exp::SystemType::kDecongestant;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 20, 0.95}};
    config.duration = sim::Seconds(400);
    config.warmup = sim::Seconds(100);
    config.balancer.subtract_rtt = variant == 0;
    config.client_node_rtt = {sim::Millis(0.3), sim::Millis(2.6),
                              sim::Millis(3.0)};

    exp::Experiment experiment(config);
    double ratio_sum = 0;
    int ratio_n = 0;
    experiment.balancer()->SetPeriodCallback(
        [&](const core::ReadBalancer::PeriodStats& stats) {
          if (stats.ratio_valid) {
            ratio_sum += stats.ratio;
            ++ratio_n;
          }
        });
    experiment.Run();

    double fraction_sum = 0;
    int n = 0;
    for (const auto& row : experiment.rows()) {
      if (row.start < sim::Seconds(100)) continue;
      fraction_sum += row.balance_fraction;
      ++n;
    }
    avg_fraction[variant] = fraction_sum / n;
    avg_ratio[variant] = ratio_n > 0 ? ratio_sum / ratio_n : 0;
    std::printf("%-24s avg fraction %.3f, avg latency ratio %.3f\n",
                variant == 0 ? "[with subtraction]" : "[without subtraction]",
                avg_fraction[variant], avg_ratio[variant]);
  }

  Note("\nWithout the subtraction, the secondaries' extra ~2.5 ms of RTT "
       "reads as server congestion:\nthe ratio is biased low, pinning the "
       "fraction at the floor even when sharing would be free;\nwith the "
       "subtraction the ratio hovers near the true server-side balance.");
  ShapeCheck(
      "raw latencies bias the ratio lower than the RTT-corrected one",
      avg_ratio[1] < avg_ratio[0] - 0.1);
  ShapeCheck(
      "the RTT-corrected ratio is near 1 at balanced light load",
      avg_ratio[0] > 0.7 && avg_ratio[0] < 1.4);
  return ShapeExitCode();
}
