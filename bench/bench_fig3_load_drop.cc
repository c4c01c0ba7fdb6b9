// Figure 3: response to a simultaneous drop of read ratio and client
// count. Workload: YCSB-B (95 % reads) with 180 clients, switching to
// YCSB-A (50 % reads) with 20 clients at t = 230 s.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 3",
         "YCSB-B 180 clients -> YCSB-A 20 clients @ 230 s (load drop)");
  std::printf("paper clients: 180 -> 20 (sim: %d -> %d)\n", ScaledClients(180),
              ScaledClients(20));
  Note("note: the post-drop descent is probe-driven (one DELTA step per "
       "flat 4-period history,\n\"every fifth period\" per the paper), so "
       "the run extends past the paper's 600 s to show the full descent.");

  const exp::SystemType systems[] = {exp::SystemType::kDecongestant,
                                     exp::SystemType::kPrimary,
                                     exp::SystemType::kSecondary};

  double fraction_peak = 0, fraction_end = 1;
  exp::Summary high_load[3];

  for (int i = 0; i < 3; ++i) {
    exp::ExperimentConfig config;
    config.seed = 43;
    config.system = systems[i];
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, ScaledClients(180), 0.95},
                     {sim::Seconds(230), ScaledClients(20), 0.5}};
    config.duration = sim::Seconds(700);
    config.warmup = sim::Seconds(100);

    exp::Experiment experiment(config);
    experiment.Run();

    std::printf("\n--- system: %s ---\n", ToString(systems[i]).data());
    PrintSeries(experiment, /*tpcc=*/false);

    // Summary over the high-load phase only.
    metrics::Histogram lat;
    uint64_t reads = 0;
    sim::Duration secs = 0;
    for (const auto& row : experiment.rows()) {
      if (row.start < sim::Seconds(100) || row.start >= sim::Seconds(230)) {
        continue;
      }
      reads += row.reads;
      secs += row.end - row.start;
      lat.Merge(row.read_latency);
      if (systems[i] == exp::SystemType::kDecongestant) {
        fraction_peak = std::max(fraction_peak, row.balance_fraction);
      }
    }
    high_load[i].read_throughput =
        static_cast<double>(reads) / sim::ToSeconds(secs);
    high_load[i].p80_read_latency_ms =
        lat.Percentile(80) / static_cast<double>(sim::kMillisecond);

    if (systems[i] == exp::SystemType::kDecongestant) {
      fraction_end = experiment.rows().back().balance_fraction;
    }
  }

  std::printf("\nhigh-load phase (100-230 s) summaries:\n");
  std::printf("%-14s %10s %10s\n", "system", "reads/s", "p80(ms)");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-14s %10.0f %10.2f\n", ToString(systems[i]).data(),
                high_load[i].read_throughput,
                high_load[i].p80_read_latency_ms);
  }

  ShapeCheck("under YCSB-B load the fraction reaches an optimised plateau",
             fraction_peak >= 0.6);
  ShapeCheck(
      "Decongestant beats both baselines during the high-load phase",
      high_load[0].read_throughput > high_load[1].read_throughput &&
          high_load[0].read_throughput > high_load[2].read_throughput);
  ShapeCheck(
      "after the drop the fraction descends to the 10 % floor (keeps "
      "probing the secondaries)",
      fraction_end <= 0.2);
  return ShapeExitCode();
}
