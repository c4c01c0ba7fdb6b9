// Per-layer timing probes: each times calls into one module's public
// functions, on the replay's own data, key distribution and update
// shapes, from outside the program.

#ifndef REPLAYBENCH_PROBES_H_
#define REPLAYBENCH_PROBES_H_

#include <map>
#include <string>

#include "exp/experiment.h"
#include "spans.h"
#include "workloads.h"

namespace replaybench {

/// Runs every probe against `run` (a finished replay of `spec`: its
/// primary data, decision log and event-queue depth) and returns the
/// results by metric name: `*_ns` per call, `workload.load_s` in seconds.
/// `queue_depth` is the live event count the replay ran at.
std::map<std::string, double> RunProbes(const WorkloadSpec& spec,
                                        dcg::exp::Experiment& run,
                                        size_t queue_depth, SpanLog* log);

}  // namespace replaybench

#endif  // REPLAYBENCH_PROBES_H_
