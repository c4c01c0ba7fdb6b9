// Figure 6: performance vs data-staleness trade-off, YCSB-A (50% reads).
// For client counts {20, 100, 180} and the three systems, report
// (a) read throughput vs P80 staleness and (b) P80 latency vs P80
// staleness. Decongestant should sit near the desired corner: high
// throughput / low latency at low staleness.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 6", "YCSB-A throughput/latency vs staleness trade-off");

  const int paper_counts[] = {20, 100, 180};
  const exp::SystemType systems[] = {exp::SystemType::kPrimary,
                                     exp::SystemType::kSecondary,
                                     exp::SystemType::kDecongestant};

  exp::Summary grid[3][3];
  std::printf("%-14s %8s %8s %12s %10s %12s %10s\n", "system", "clients",
              "(sim)", "reads/s", "p80(ms)", "p80stale(s)", "maxstale(s)");
  for (int s = 0; s < 3; ++s) {
    for (int c = 0; c < 3; ++c) {
      exp::ExperimentConfig config;
      config.seed = 46;
      config.system = systems[s];
      config.kind = exp::WorkloadKind::kYcsb;
      config.phases = {{0, ScaledClients(paper_counts[c]), 0.5}};
      config.duration = sim::Seconds(280);
      config.warmup = sim::Seconds(100);
      config.balancer.stale_bound_seconds = 10;
      exp::Experiment experiment(config);
      experiment.Run();
      grid[s][c] = experiment.Summarize();
      std::printf("%-14s %8d %8d %12.0f %10.2f %12.2f %10.2f\n",
                  ToString(systems[s]).data(), paper_counts[c],
                  ScaledClients(paper_counts[c]),
                  grid[s][c].read_throughput, grid[s][c].p80_read_latency_ms,
                  grid[s][c].p80_staleness_s, grid[s][c].max_staleness_s);
    }
  }

  // At heavy load (180 clients): Primary fresh-but-slow, Secondary
  // fast-but-stale(r), Decongestant fast AND fresh-bounded.
  const exp::Summary& pri = grid[0][2];
  const exp::Summary& sec = grid[1][2];
  const exp::Summary& dcg = grid[2][2];

  ShapeCheck("heavy load: Decongestant throughput > Primary baseline",
             dcg.read_throughput > 1.3 * pri.read_throughput);
  ShapeCheck(
      "heavy load: Decongestant staleness bounded by the client limit "
      "(P80 well under 10 s)",
      dcg.p80_staleness_s < 10.0);
  ShapeCheck(
      "heavy load: Secondary baseline sees at least as much staleness as "
      "Decongestant",
      sec.max_staleness_s >= dcg.max_staleness_s - 0.5);
  ShapeCheck("light load (20 clients): the three systems are close",
             grid[2][0].read_throughput < 1.4 * grid[0][0].read_throughput);
  return ShapeExitCode();
}
