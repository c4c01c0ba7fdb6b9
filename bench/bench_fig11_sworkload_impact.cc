// Figure 11: impact of the S workload on the benchmark it monitors.
// Read-write TPC-C throughput of Stock Level transactions, with and
// without the S workload attached, against client count. Read Preference
// hard-coded to Primary (as in the paper).

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 11",
         "Stock Level throughput with vs without the attached S workload");

  const int paper_counts[] = {50, 75, 100, 125, 150, 175, 200};
  std::printf("%8s %8s %16s %16s %8s\n", "clients", "(sim)",
              "with S (txn/s)", "without S (txn/s)", "delta%");

  double worst_delta = 0;
  for (int paper_clients : paper_counts) {
    double throughput[2];
    for (int s = 0; s < 2; ++s) {
      exp::ExperimentConfig config;
      config.seed = 51;
      config.system = exp::SystemType::kPrimary;
      config.kind = exp::WorkloadKind::kTpcc;
      config.phases = {{0, ScaledClients(paper_clients), 0.5}};
      config.duration = sim::Seconds(220);
      config.warmup = sim::Seconds(100);
      config.run_s_workload = s == 0;
      ApplyTpccDiskProfile(&config);
      exp::Experiment experiment(config);
      experiment.Run();
      throughput[s] = experiment.Summarize().stock_level_throughput;
    }
    const double delta =
        100.0 * (throughput[0] - throughput[1]) / throughput[1];
    worst_delta = std::max(worst_delta, std::abs(delta));
    std::printf("%8d %8d %16.1f %16.1f %+7.1f\n", paper_clients,
                ScaledClients(paper_clients), throughput[0], throughput[1],
                delta);
  }

  ShapeCheck(
      "attaching the S workload changes Stock Level throughput by only a "
      "few percent at every client count",
      worst_delta < 8.0);
  return ShapeExitCode();
}
