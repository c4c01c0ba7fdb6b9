// Figure 5: performance trends with increasing client count, YCSB-B.
// Throughput of reads, P80 latency, and actual % of secondary reads per
// system (Decongestant / Primary / Secondary), against the client count.

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Figure 5", "YCSB-B (95% reads) client-count sweep, 3 systems");

  const int paper_counts[] = {10, 25, 50, 75, 100, 120, 150, 175, 200};
  const exp::SystemType systems[] = {exp::SystemType::kDecongestant,
                                     exp::SystemType::kPrimary,
                                     exp::SystemType::kSecondary};

  std::vector<SweepPoint> results[3];
  for (int s = 0; s < 3; ++s) {
    for (int paper_clients : paper_counts) {
      exp::ExperimentConfig config;
      config.seed = 45;
      config.system = systems[s];
      config.kind = exp::WorkloadKind::kYcsb;
      config.phases = {{0, ScaledClients(paper_clients), 0.95}};
      config.duration = sim::Seconds(260);
      config.warmup = sim::Seconds(100);
      exp::Experiment experiment(config);
      experiment.Run();
      results[s].push_back({paper_clients, experiment.Summarize()});
    }
    PrintSweepTable(ToString(systems[s]).data(), results[s],
                    /*tpcc=*/false);
  }

  // Shape claims at the saturated end (paper clients >= 120).
  auto at = [&](int s, int paper_clients) -> const exp::Summary& {
    for (const auto& p : results[s]) {
      if (p.paper_clients == paper_clients) return p.summary;
    }
    return results[s].front().summary;
  };

  const exp::Summary& dcg_hi = at(0, 200);
  const exp::Summary& pri_hi = at(1, 200);
  const exp::Summary& sec_hi = at(2, 200);

  ShapeCheck(
      "at high load Decongestant throughput is ~30% above the Secondary "
      "baseline (>= +15%)",
      dcg_hi.read_throughput >= 1.15 * sec_hi.read_throughput);
  ShapeCheck(
      "at high load Decongestant throughput is ~2.5x the Primary baseline "
      "(>= 2x)",
      dcg_hi.read_throughput >= 2.0 * pri_hi.read_throughput);
  ShapeCheck("at high load Decongestant P80 latency is the lowest",
             dcg_hi.p80_read_latency_ms <= pri_hi.p80_read_latency_ms &&
                 dcg_hi.p80_read_latency_ms <= sec_hi.p80_read_latency_ms);
  ShapeCheck(
      "secondary share grows with load: low at the light end, ~70% at "
      "the saturated end",
      at(0, 10).secondary_percent <= 50.0 &&
          dcg_hi.secondary_percent >= 55.0 &&
          dcg_hi.secondary_percent <= 85.0);
  return ShapeExitCode();
}
