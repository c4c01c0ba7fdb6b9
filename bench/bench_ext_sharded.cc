// Extension bench: Decongestant on a sharded cluster (§2.1 notes the
// technique "can be applied to sharded clusters, which support the same
// Read Preference API"). Two shards receive skewed read load — shard 0
// hot, shard 1 idle; a per-shard Read Balancer relieves only the
// congested shard, something no single hard-coded Read Preference (and no
// cluster-wide knob) can express.

#include <functional>
#include <memory>

#include "bench_common.h"
#include "shard/sharded_cluster.h"

namespace {

struct RunResult {
  uint64_t reads = 0;
  uint64_t secondary_reads[2] = {0, 0};
  uint64_t reads_per_shard[2] = {0, 0};
  double fraction[2] = {0, 0};
  uint64_t routed_reads = 0;
  int64_t worst_staleness_estimate = 0;
};

RunResult RunOnce(bool decongestant,
                  dcg::driver::ReadPreference fixed_pref =
                      dcg::driver::ReadPreference::kPrimary) {
  using namespace dcg;

  sim::EventLoop loop;
  sim::Rng rng(99);
  net::Network network(&loop, rng.Fork());
  const net::HostId client_host = network.AddHost("client");

  shard::ShardedClusterConfig config;
  config.run_balancers = decongestant;
  config.fixed_pref = fixed_pref;
  shard::ShardedCluster cluster(&loop, rng.Fork(), &network, client_host,
                                config);

  // 4000 documents, loaded pre-replicated on every node of their shard.
  std::vector<std::vector<int64_t>> keys(2);
  for (int64_t id = 0; id < 4000; ++id) {
    keys[static_cast<size_t>(cluster.ShardFor(doc::Value(id)))].push_back(id);
  }
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      store::Collection& t = cluster.shard(s).node(i).db().GetOrCreate("t");
      for (int64_t id : keys[static_cast<size_t>(s)]) {
        t.Insert(doc::Value::Doc({{"_id", id}, {"v", id}}));
      }
    }
  }
  cluster.Start();

  // 40 closed-loop clients: 95 % of reads hit shard 0's keys, 5 % shard 1.
  auto result = std::make_shared<RunResult>();
  auto worker_rng = std::make_shared<sim::Rng>(rng.Fork());
  auto pick = [&cluster, &keys, worker_rng]() -> int64_t {
    const auto& pool = worker_rng->Bernoulli(0.95) ? keys[0] : keys[1];
    (void)cluster;
    return pool[static_cast<size_t>(worker_rng->UniformInt(
        0, static_cast<int64_t>(pool.size()) - 1))];
  };
  std::function<void(int)> run_worker = [&](int w) {
    const int64_t key = pick();
    const int s = cluster.ShardFor(doc::Value(key));
    cluster.ReadDoc("t", doc::Value(key), server::OpClass::kPointRead,
                    [](const store::Database&) {},
                    [&, w, s](const driver::MongoClient::ReadResult& r) {
                      ++result->reads;
                      ++result->reads_per_shard[s];
                      if (r.used_secondary) ++result->secondary_reads[s];
                      run_worker(w);
                    });
  };
  for (int w = 0; w < 40; ++w) run_worker(w);

  loop.RunUntil(sim::Seconds(200));
  for (int s = 0; s < 2; ++s) {
    result->fraction[s] = cluster.shared_state(s).balance_fraction();
  }
  result->routed_reads = cluster.router().routed_reads();
  result->worst_staleness_estimate = cluster.budget().WorstEstimate();
  return *result;
}

}  // namespace

int main() {
  using namespace dcg::bench;

  Banner("Extension: sharded cluster",
         "per-shard Decongestant under skewed load (95% on shard 0)");

  const RunResult dcg_run = RunOnce(/*decongestant=*/true);
  const RunResult primary_run =
      RunOnce(false, dcg::driver::ReadPreference::kPrimary);
  const RunResult secondary_run =
      RunOnce(false, dcg::driver::ReadPreference::kSecondary);

  std::printf("%-22s %10s %16s %16s\n", "system", "reads", "sec% shard0",
              "sec% shard1");
  auto pct = [](const RunResult& r, int s) {
    return r.reads_per_shard[s] == 0
               ? 0.0
               : 100.0 * static_cast<double>(r.secondary_reads[s]) /
                     static_cast<double>(r.reads_per_shard[s]);
  };
  std::printf("%-22s %10llu %15.1f%% %15.1f%%\n", "decongestant/shard",
              static_cast<unsigned long long>(dcg_run.reads),
              pct(dcg_run, 0), pct(dcg_run, 1));
  std::printf("%-22s %10llu %15.1f%% %15.1f%%\n", "primary (fixed)",
              static_cast<unsigned long long>(primary_run.reads),
              pct(primary_run, 0), pct(primary_run, 1));
  std::printf("%-22s %10llu %15.1f%% %15.1f%%\n", "secondary (fixed)",
              static_cast<unsigned long long>(secondary_run.reads),
              pct(secondary_run, 0), pct(secondary_run, 1));
  std::printf("\nfinal balance fractions: shard0 %.2f, shard1 %.2f\n",
              dcg_run.fraction[0], dcg_run.fraction[1]);
  std::printf("router-dispatched point reads: %llu; worst shard staleness "
              "estimate: %llds (client-wide bound 10s)\n",
              static_cast<unsigned long long>(dcg_run.routed_reads),
              static_cast<long long>(dcg_run.worst_staleness_estimate));

  ShapeCheck("every read went through the mongos router",
             dcg_run.routed_reads >= dcg_run.reads);
  ShapeCheck(
      "the worst shard stays within the shared client-wide staleness bound",
      dcg_run.worst_staleness_estimate <= 10);
  ShapeCheck(
      "the hot shard's balancer shifts most of its reads to secondaries",
      pct(dcg_run, 0) >= 50.0);
  ShapeCheck("the idle shard keeps reading mostly from its fresh primary",
             pct(dcg_run, 1) <= 35.0);
  ShapeCheck(
      "per-shard Decongestant outperforms the hard-coded primary setting",
      dcg_run.reads > 1.2 * primary_run.reads);
  ShapeCheck(
      "and is at least competitive with all-secondary on this skew",
      dcg_run.reads >= 0.9 * secondary_run.reads);
  return ShapeExitCode();
}
