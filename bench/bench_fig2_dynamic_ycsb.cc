// Figure 2: response to a sudden increase of the read ratio in YCSB.
// Workload: YCSB-A (50 % reads), 180 clients, switching to YCSB-B (95 %
// reads) at t = 620 s. Systems: Decongestant vs hard-coded Primary vs
// hard-coded Secondary. Reported per 10 s: read throughput, P80 latency,
// actual % of secondary reads.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 2", "dynamic YCSB: A (50% reads) -> B (95% reads) @ 620 s");
  std::printf("paper clients: 180 (sim: %d), S workload attached\n",
              ScaledClients(180));

  const exp::SystemType systems[] = {exp::SystemType::kDecongestant,
                                     exp::SystemType::kPrimary,
                                     exp::SystemType::kSecondary};

  exp::Summary phase2[3];
  double ramp_fraction_end = 0;
  double steady_fraction_b = 0;

  for (int i = 0; i < 3; ++i) {
    exp::ExperimentConfig config;
    config.seed = 42;
    config.system = systems[i];
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, ScaledClients(180), 0.5},
                     {sim::Seconds(620), ScaledClients(180), 0.95}};
    config.duration = sim::Seconds(900);
    config.warmup = sim::Seconds(660);  // summarize the post-switch phase

    exp::Experiment experiment(config);
    experiment.Run();
    phase2[i] = experiment.Summarize();

    std::printf("\n--- system: %s ---\n", ToString(systems[i]).data());
    PrintSeries(experiment, /*tpcc=*/false);

    if (systems[i] == exp::SystemType::kDecongestant) {
      for (const auto& row : experiment.rows()) {
        if (row.start == sim::Seconds(200)) {
          ramp_fraction_end = row.balance_fraction;
        }
        if (row.start == sim::Seconds(880)) {
          steady_fraction_b = row.balance_fraction;
        }
      }
    }
  }

  std::printf("\npost-switch (YCSB-B) summaries:\n");
  std::printf("%-14s %10s %10s %8s\n", "system", "reads/s", "p80(ms)",
              "sec(%)");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-14s %10.0f %10.2f %8.1f\n", ToString(systems[i]).data(),
                phase2[i].read_throughput, phase2[i].p80_read_latency_ms,
                phase2[i].secondary_percent);
  }

  ShapeCheck("warm-up ramps the Balance Fraction to the 90 % cap on YCSB-A",
             ramp_fraction_end >= 0.89);
  ShapeCheck(
      "after the switch to YCSB-B the fraction settles near 70 % "
      "(primary takes writes + ~1/3 of reads)",
      steady_fraction_b >= 0.55 && steady_fraction_b <= 0.85);
  ShapeCheck("Decongestant read throughput beats both baselines on YCSB-B",
             phase2[0].read_throughput > phase2[1].read_throughput &&
                 phase2[0].read_throughput > phase2[2].read_throughput);
  ShapeCheck("Decongestant P80 latency no worse than both baselines",
             phase2[0].p80_read_latency_ms <=
                     phase2[1].p80_read_latency_ms + 0.5 &&
                 phase2[0].p80_read_latency_ms <=
                     phase2[2].p80_read_latency_ms + 0.5);
  return ShapeExitCode();
}
