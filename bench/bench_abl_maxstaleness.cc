// Ablation: Decongestant's staleness bound vs MongoDB's built-in
// maxStalenessSeconds (§2.2). MongoDB requires maxStalenessSeconds >= 90;
// the paper argues Decongestant bounds staleness far tighter (e.g. 10 s).
// We compare three clients under the same staleness-prone TPC-C load:
//   (1) secondaryPreferred + maxStalenessSeconds=90 (the MongoDB way),
//   (2) Decongestant with a 10 s bound,
//   (3) hard-coded Secondary (no bound at all).

#include "bench_common.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Ablation: maxStalenessSeconds",
         "MongoDB's >=90 s knob vs Decongestant's fine-grained bound");

  struct Variant {
    const char* name;
    exp::SystemType system;
    int64_t driver_max_staleness;  // -1: off
    int64_t dcg_bound;
  };
  const Variant variants[] = {
      {"maxStaleness=90", exp::SystemType::kSecondary, 90, 10},
      {"decongestant(10s)", exp::SystemType::kDecongestant, -1, 10},
      {"secondary(unbounded)", exp::SystemType::kSecondary, -1, 10},
  };

  std::printf("%-22s %12s %12s %12s\n", "client", "SL txn/s",
              "p80stale(s)", "maxstale(s)");
  double max_stale[3], p80_stale[3], sl[3];
  for (int v = 0; v < 3; ++v) {
    exp::ExperimentConfig config;
    config.seed = 64;
    config.system = variants[v].system;
    config.kind = exp::WorkloadKind::kTpcc;
    config.phases = {{0, ScaledClients(120), 0.5}};
    config.duration = sim::Seconds(400);
    config.warmup = sim::Seconds(60);
    config.balancer.stale_bound_seconds = variants[v].dcg_bound;
    config.client_options.max_staleness_seconds =
        variants[v].driver_max_staleness;
    ApplyTpccDiskProfile(&config);

    exp::Experiment experiment(config);
    experiment.Run();
    const exp::Summary summary = experiment.Summarize();
    sl[v] = summary.stock_level_throughput;
    p80_stale[v] = summary.p80_staleness_s;
    max_stale[v] = summary.max_staleness_s;
    std::printf("%-22s %12.0f %12.2f %12.2f\n", variants[v].name, sl[v],
                p80_stale[v], max_stale[v]);
  }

  Note("\nThe checkpoint-driven lag here peaks in the tens of seconds: far "
       "below 90, so the MongoDB knob never\nintervenes and behaves like "
       "the unbounded baseline, while Decongestant enforces its 10 s "
       "promise.");
  ShapeCheck(
      "with maxStaleness=90 clients still observe the full checkpoint lag "
      "(knob too coarse)",
      max_stale[0] > 12.0);
  ShapeCheck("Decongestant holds the 10 s promise (+ granularity)",
             max_stale[1] <= 12.0);
  ShapeCheck(
      "Decongestant's throughput stays in the same league as the "
      "unbounded secondary client",
      sl[1] >= 0.7 * sl[2]);
  return ShapeExitCode();
}
