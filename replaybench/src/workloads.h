// The four replayed workloads: each is an exp::ExperimentConfig plus the
// amount of simulated time one benchmark run replays.

#ifndef REPLAYBENCH_WORKLOADS_H_
#define REPLAYBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace replaybench {

/// Every node checkpoints each 60 sim-s (ServerParams default), and the
/// checkpoint flush changes the cost of everything around it. Warm-up and
/// measured windows are whole cycles starting at a checkpoint, so every
/// seed replays the same phase mix.
constexpr double kCycleSimSeconds = 60.0;

struct WorkloadSpec {
  std::string name;
  /// Untimed simulated warm-up, whole cycles: long enough for the Read
  /// Balancer to climb from its floor fraction to its operating point.
  double warmup_sim_seconds = 0;
  /// Simulated seconds this workload replays per requested run second on
  /// the reference host (README). The replayed amount of simulated time
  /// is fixed per run, not cut off by the wall clock, so every run of one
  /// seed does the same work: layer counts repeat exactly and peak memory
  /// compares across builds.
  double sim_seconds_per_run_second = 0;
  dcg::exp::ExperimentConfig config;

  /// Whole cycles measured for a run of `seconds` (at least one).
  int Cycles(double seconds) const;
};

/// Names accepted by MakeWorkload, in run order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload with the given seed. Returns false for an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

}  // namespace replaybench

#endif  // REPLAYBENCH_WORKLOADS_H_
