// Extension bench (paper §6 future work, "more sophisticated feedback
// control"): every registered Balance Fraction strategy races on the
// same congestion step, judged on (a) periods to converge and (b)
// behaviour after convergence. The paper's ±10 % step law is the
// baseline; the rivals (proportional, CPQ-style SLA feedback, AoI
// capping, PID) ride the registry, so a newly registered controller
// joins the race without touching this file.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/controller.h"

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Extension: controllers",
         "Algorithm 1 step law vs the registered rivals");

  const std::vector<std::string_view>& names = core::RegisteredControllers();
  std::vector<double> reach_time(names.size(), -1);
  std::vector<double> throughput(names.size(), 0);
  std::vector<double> mean_age(names.size(), 0);
  size_t baseline = 0;
  for (size_t v = 0; v < names.size(); ++v) {
    if (core::IsDefaultController(names[v])) baseline = v;
    exp::ExperimentConfig config;
    config.seed = 65;
    config.system = exp::SystemType::kDecongestant;
    config.kind = exp::WorkloadKind::kYcsb;
    config.phases = {{0, 45, 0.95}};  // immediately congested primary
    config.duration = sim::Seconds(400);
    config.warmup = sim::Seconds(150);
    config.controller = std::string(names[v]);

    exp::Experiment experiment(config);
    double reached = -1;
    experiment.balancer()->SetPeriodCallback(
        [&](const core::ReadBalancer::PeriodStats& stats) {
          if (reached < 0 && stats.published_fraction >= 0.65) {
            reached = sim::ToSeconds(stats.at);
          }
        });
    experiment.Run();
    const exp::Summary summary = experiment.Summarize();
    reach_time[v] = reached;
    throughput[v] = summary.read_throughput;
    mean_age[v] = summary.mean_served_age_s;
    std::printf("%-13s fraction>=0.65 at t=%4.0f s, steady reads/s %6.0f, "
                "mean served age %.3f s\n",
                std::string(names[v]).c_str(), reached, throughput[v],
                mean_age[v]);
  }

  bool all_converge = true;
  bool throughput_close = true;
  for (size_t v = 0; v < names.size(); ++v) {
    // The CPQ policy chases its SLA, not the latency ratio: under a
    // congested primary it still sheds, but convergence to a specific
    // fraction is not part of its contract. Everyone else must get there.
    if (names[v] != "cpq" && reach_time[v] < 0) all_converge = false;
    if (throughput[v] < 0.75 * throughput[baseline]) throughput_close = false;
  }
  ShapeCheck("every ratio-driven controller converges to the equilibrium",
             all_converge);
  ShapeCheck("no rival collapses throughput (within 25% of the paper's law)",
             throughput_close);
  const size_t prop =
      std::find(names.begin(), names.end(), "proportional") - names.begin();
  ShapeCheck(
      "the proportional controller converges at least as fast as the "
      "step controller",
      reach_time[prop] > 0 && reach_time[prop] <= reach_time[baseline]);
  return ShapeExitCode();
}
