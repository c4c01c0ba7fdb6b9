// Figure 8: the maximum data staleness of the secondaries as estimated by
// Decongestant (via serverStatus on the primary) versus the staleness
// actually seen by the clients (S workload), against time.
// Workload: YCSB-A + S workload, 100 clients.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 8",
         "Decongestant staleness estimate vs client-observed staleness");
  std::printf("workload: YCSB-A + S, paper clients 100 (sim %d)\n",
              ScaledClients(100));

  exp::ExperimentConfig config;
  config.seed = 48;
  config.system = exp::SystemType::kDecongestant;
  config.kind = exp::WorkloadKind::kYcsb;
  config.phases = {{0, ScaledClients(100), 0.5}};
  config.duration = sim::Seconds(500);
  config.warmup = sim::Seconds(100);
  // Large bound: this experiment studies the estimate, not the gate.
  config.balancer.stale_bound_seconds = 60;

  exp::Experiment experiment(config);
  experiment.Run();

  // Print a merged per-second series: the estimate and the max observed
  // S-workload staleness within that second.
  std::printf("\n%8s %12s %14s\n", "time(s)", "estimate(s)", "observed(s)");
  size_t sample_idx = 0;
  int compared = 0, conservative = 0;
  double max_estimate = 0, max_observed = 0;
  double prev_estimate = 0;
  for (const auto& point : experiment.staleness_series()) {
    double observed = 0;
    bool any = false;
    while (sample_idx < experiment.s_samples().size() &&
           experiment.s_samples()[sample_idx].first <= point.at) {
      observed =
          std::max(observed, experiment.s_samples()[sample_idx].second);
      any = true;
      ++sample_idx;
    }
    if (point.at % (5 * sim::kSecond) == 0 || observed >= 1.0 ||
        point.estimate_s >= 1.0) {
      std::printf("%8.0f %12.0f %14.2f\n", sim::ToSeconds(point.at),
                  point.estimate_s, observed);
    }
    if (any && observed >= 1.0) {
      // The estimate is refreshed at 1 Hz; a sample inside the second is
      // covered by either this point's or the previous point's estimate.
      ++compared;
      if (std::max(point.estimate_s, prev_estimate) + 1.5 >= observed) {
        ++conservative;
      }
    }
    prev_estimate = point.estimate_s;
    max_estimate = std::max(max_estimate, point.estimate_s);
    max_observed = std::max(max_observed, observed);
  }

  std::printf("\nmax estimate: %.0f s, max observed: %.2f s\n", max_estimate,
              max_observed);
  ShapeCheck("the workload produces visible staleness episodes",
             max_observed >= 1.0);
  ShapeCheck(
      "the estimate is conservative: (almost) never below what clients "
      "observed",
      compared == 0 ||
          static_cast<double>(conservative) / compared >= 0.9);
  ShapeCheck("the estimate tracks the observed staleness (same order)",
             max_estimate >= max_observed - 1.5 &&
                 max_estimate <= max_observed + 15.0);
  return ShapeExitCode();
}
