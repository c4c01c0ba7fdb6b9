#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace replaybench {

using dcg::exp::ExperimentConfig;
using dcg::exp::SystemType;
using dcg::exp::WorkloadKind;

int WorkloadSpec::Cycles(double seconds) const {
  return std::max(1, static_cast<int>(std::lround(
                         seconds * sim_seconds_per_run_second /
                         kCycleSimSeconds)));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ycsb-b", "ycsb-a-batched",
                                                 "tpcc", "sharded-ycsb-b"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  ExperimentConfig config;
  config.seed = seed;
  config.system = SystemType::kDecongestant;
  config.run_s_workload = true;
  double rate = 0;
  double warmup = 2 * kCycleSimSeconds;
  if (name == "ycsb-b") {
    // Read path: point lookups and the event loop carry the wall time.
    config.kind = WorkloadKind::kYcsb;
    config.ycsb = dcg::workload::YcsbConfig::WorkloadB();
    config.phases = {{0, 45, 0.95}};
    rate = 30;
  } else if (name == "ycsb-a-batched") {
    // Fig. 5's saturation point with driver batching: oplog append,
    // secondary apply, envelopes and the pool at their highest rate.
    config.kind = WorkloadKind::kYcsb;
    config.ycsb = dcg::workload::YcsbConfig::WorkloadA();
    config.phases = {{0, 150, 0.5}};
    config.client_options.batching_enabled = true;
    config.client_options.batch_max_ops = 16;
    config.client_options.batch_max_delay = dcg::sim::Micros(200);
    rate = 26;
  } else if (name == "tpcc") {
    // Fig. 9 setup: read-write TPC-C, StaleBound 10 s, checkpoint-stall
    // disk (the same 2 MB/s flush the figure benches use).
    config.kind = WorkloadKind::kTpcc;
    config.tpcc = dcg::workload::TpccConfig::ReadWrite();
    config.phases = {{0, 45, 0.5}};
    config.balancer.stale_bound_seconds = 10;
    config.server.checkpoint_disk_bw = 2.0e6;
    rate = 9;
    warmup = kCycleSimSeconds;  // the staleness gate cycles from the start
  } else if (name == "sharded-ycsb-b") {
    // The only workload through the mongos router and shared budget.
    config.kind = WorkloadKind::kYcsb;
    config.ycsb = dcg::workload::YcsbConfig::WorkloadB();
    config.phases = {{0, 40, 0.95}};
    config.shards = 2;
    rate = 15;
  } else {
    return false;
  }
  out->name = name;
  out->warmup_sim_seconds = warmup;
  out->sim_seconds_per_run_second = rate;
  out->config = std::move(config);
  return true;
}

}  // namespace replaybench
