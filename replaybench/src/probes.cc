#include "probes.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "checks.h"
#include "timing.h"
#include "core/controller.h"
#include "repl/replica_node.h"
#include "shard/chunk_map.h"
#include "workload/key_chooser.h"

namespace replaybench {

namespace sim = dcg::sim;
namespace store = dcg::store;
using dcg::doc::Filter;
using dcg::doc::UpdateSpec;
using dcg::doc::Value;
using dcg::exp::Experiment;
using dcg::exp::WorkloadKind;

// Consumes probe results so the timed calls are not optimised away; its
// external linkage keeps the compiler from proving it unused.
uint64_t g_probe_sink = 0;

namespace {

constexpr size_t kKeys = 4096;  // power of two: index with & (kKeys - 1)
constexpr int kReps = 5;

/// Median over kReps repetitions of the wall ns per call of body(i).
template <typename Body>
double NsPerCall(int calls, Body&& body) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    const double start = NowS();
    for (int i = 0; i < calls; ++i) body(i);
    per_call.push_back((NowS() - start) * 1e9 / calls);
  }
  return Median(std::move(per_call));
}

bool IsTpcc(const WorkloadSpec& spec) {
  return spec.config.kind == WorkloadKind::kTpcc;
}

std::string YcsbValue(sim::Rng* rng, int length) {
  std::string s(static_cast<size_t>(length), 'x');
  for (char& c : s) c = static_cast<char>('a' + rng->UniformInt(0, 25));
  return s;
}

/// The workload's update shapes: YCSB sets one field to a fresh value of
/// the configured length; TPC-C New Order's stock update.
std::vector<UpdateSpec> UpdateShapes(const WorkloadSpec& spec, bool tpcc,
                                     sim::Rng* rng) {
  std::vector<UpdateSpec> shapes;
  for (int i = 0; i < 64; ++i) {
    UpdateSpec u;
    if (tpcc) {
      const int64_t qty = rng->UniformInt(1, 10);
      u.Set("s_quantity", rng->UniformInt(10, 100))
          .Inc("s_ytd", qty)
          .Inc("s_order_cnt", int64_t{1});
    } else {
      u.Set("field" + std::to_string(i % spec.config.ycsb.field_count),
            Value(YcsbValue(rng, spec.config.ycsb.field_length)));
    }
    shapes.push_back(std::move(u));
  }
  return shapes;
}

/// Ids the workload looks up, drawn from its own key distribution: the
/// scrambled zipfian over YCSB records, NURand items within a random
/// warehouse for TPC-C's stock (Stock Level's and New Order's lookups).
std::vector<Value> KeyStream(const WorkloadSpec& spec, sim::Rng* rng) {
  std::vector<Value> keys;
  keys.reserve(kKeys);
  if (IsTpcc(spec)) {
    const auto& t = spec.config.tpcc;
    for (size_t i = 0; i < kKeys; ++i) {
      keys.push_back(Value::List(
          {rng->UniformInt(1, t.warehouses),
           dcg::workload::NURand(rng, 8191, 1, t.items, 13)}));
    }
  } else {
    dcg::workload::ScrambledZipfianGenerator gen(
        spec.config.ycsb.record_count, spec.config.ycsb.zipfian_theta);
    for (size_t i = 0; i < kKeys; ++i) keys.push_back(Value(gen.Next(rng)));
  }
  return keys;
}

/// Loads the workload's data set into `db` (all of it, unsharded).
void LoadData(const WorkloadSpec& spec, store::Database* db) {
  if (IsTpcc(spec)) {
    dcg::workload::TpccWorkload::Load(spec.config.tpcc, db);
  } else {
    dcg::workload::YcsbWorkload::Load(spec.config.ycsb, db);
  }
}

double EventNs(size_t depth) {
  sim::EventLoop loop;
  sim::Rng rng(7);
  struct Chain {
    sim::EventLoop* loop;
    std::vector<sim::Duration> delays;
    uint64_t fired = 0;
    void Fire() {
      ++fired;
      Chain* self = this;
      loop->ScheduleAfter(delays[fired & (kKeys - 1)], [self] { self->Fire(); });
    }
  } chain{&loop, {}, 0};
  for (size_t i = 0; i < kKeys; ++i) {
    chain.delays.push_back(rng.UniformInt(sim::Micros(1), sim::Millis(20)));
  }
  Chain* self = &chain;
  for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
    loop.ScheduleAfter(chain.delays[i & (kKeys - 1)], [self] { self->Fire(); });
  }
  const double ns = NsPerCall(200000, [&](int) { loop.Step(); });
  g_probe_sink += chain.fired;
  return ns;
}

double MessageNs(const dcg::exp::ExperimentConfig& config) {
  sim::EventLoop loop;
  dcg::net::Network network(&loop, sim::Rng(11));
  const dcg::net::HostId a = network.AddHost("a");
  const dcg::net::HostId b = network.AddHost("b");
  network.SetLink(a, b, config.inter_node_rtt, config.rtt_jitter);
  uint64_t delivered = 0;
  uint64_t* counter = &delivered;
  constexpr int kBatch = 1000;
  const double ns = NsPerCall(20, [&](int) {
                      for (int i = 0; i < kBatch; ++i) {
                        network.Send(a, b, [counter] { ++*counter; });
                      }
                      loop.RunAll();
                    }) /
                    kBatch;
  g_probe_sink += delivered;
  return ns;
}

/// Sequential single ops through an isolated 3-node stack built from the
/// workload's own driver, server and replication settings: driver ->
/// proto bus -> net -> server -> store and back.
void RoundTrips(const WorkloadSpec& spec, double* read_ns, double* write_ns) {
  const dcg::exp::ExperimentConfig& config = spec.config;
  sim::EventLoop loop;
  dcg::net::Network network(&loop, sim::Rng(config.seed ^ 0x5eed));
  const dcg::net::HostId client_host = network.AddHost("client");
  std::vector<dcg::net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(network.AddHost("n" + std::to_string(i)));
    network.SetLink(client_host, hosts[i], config.client_node_rtt[i],
                    config.rtt_jitter);
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      network.SetLink(hosts[i], hosts[j], config.inter_node_rtt,
                      config.rtt_jitter);
    }
  }
  dcg::repl::ReplicaSetParams params = config.repl;
  params.secondaries = 2;
  dcg::repl::ReplicaSet rs(&loop, sim::Rng(config.seed + 1), &network, params,
                           config.server, hosts);
  dcg::workload::YcsbConfig ycsb = config.ycsb;
  ycsb.record_count = 2000;
  for (int i = 0; i < 3; ++i) {
    dcg::workload::YcsbWorkload::Load(ycsb, &rs.node(i).db());
  }
  dcg::driver::MongoClient client(&loop, sim::Rng(config.seed + 2),
                                  rs.command_bus(), client_host,
                                  config.client_options);
  rs.Start();
  client.Start();
  loop.RunUntil(sim::Seconds(1));

  sim::Rng rng(config.seed + 3);
  const std::vector<UpdateSpec> shapes = UpdateShapes(spec, false, &rng);
  const std::string table = ycsb.table;
  auto run_until = [&](const bool& done) {
    while (!done && loop.Step()) {
    }
  };
  *read_ns = NsPerCall(2000, [&](int i) {
    bool done = false;
    const int64_t key = i % ycsb.record_count;
    client.Read(
        dcg::driver::ReadPreference::kPrimary, dcg::server::OpClass::kPointRead,
        [key, &table](const store::Database& db) {
          g_probe_sink += db.Get(table)->FindById(Value(key)) != nullptr;
        },
        [&done](const dcg::driver::MongoClient::ReadResult& r) {
          g_probe_sink += r.ok;
          done = true;
        });
    run_until(done);
  });
  *write_ns = NsPerCall(2000, [&](int i) {
    bool done = false;
    const int64_t key = i % ycsb.record_count;
    const UpdateSpec& shape = shapes[static_cast<size_t>(i) % shapes.size()];
    client.Write(
        dcg::server::OpClass::kUpdate,
        [key, &table, &shape](dcg::repl::TxnContext* ctx) {
          ctx->Update(table, Value(key), shape);
        },
        [&done](const dcg::driver::MongoClient::WriteResult& r) {
          g_probe_sink += r.ok;
          done = true;
        });
    run_until(done);
  });
}

/// Secondary apply of the workload's update shapes, one oplog entry per
/// call, on a node loaded with the workload's data.
double ApplyNs(const WorkloadSpec& spec, const std::vector<Value>& keys,
               const std::vector<UpdateSpec>& shapes) {
  sim::EventLoop loop;
  dcg::repl::ReplicaNode node(&loop, sim::Rng(5), spec.config.server, 0,
                              "apply-probe");
  LoadData(spec, &node.db());
  const std::string collection =
      IsTpcc(spec) ? "stock" : spec.config.ycsb.table;
  constexpr int kCalls = 10000;
  std::vector<dcg::repl::OplogEntry> entries(kCalls * kReps);
  for (size_t i = 0; i < entries.size(); ++i) {
    dcg::repl::OplogEntry& e = entries[i];
    e.optime = {static_cast<sim::Time>(i + 1), i + 1};
    e.kind = dcg::repl::OpKind::kUpdate;
    e.collection = collection;
    e.id = keys[i & (kKeys - 1)];
    e.payload = shapes[i % shapes.size()].ToValue();
  }
  size_t next = 0;
  return NsPerCall(kCalls, [&](int) { node.ApplyEntry(entries[next++]); });
}

double DecideNs(Experiment& run) {
  const dcg::obs::DecisionLog* log =
      run.sharded() ? &run.sharded_cluster()->balancer(0)->decisions()
                    : run.balancer_decisions();
  std::vector<dcg::core::ControlInputs> inputs;
  for (const dcg::obs::BalanceDecision& d : log->entries()) {
    dcg::core::ControlInputs in;
    in.latest_fraction = d.from_fraction;
    in.ratio = d.ratio;
    in.ratio_valid = d.ratio_valid;
    in.history_flat = d.history_flat;
    in.lss_primary = d.lss_primary;
    in.lss_secondary = d.lss_secondary;
    in.secondary_age_s = d.secondary_staleness_s;
    in.staleness_estimate_s = d.staleness_estimate_s;
    in.stale_bound_s = d.stale_bound_s;
    inputs.push_back(std::move(in));
  }
  if (inputs.empty()) inputs.emplace_back();
  auto controller = dcg::core::MakeController(run.config().controller);
  double sum = 0;
  const double ns = NsPerCall(100000, [&](int i) {
    sum += controller->NextFraction(inputs[static_cast<size_t>(i) % inputs.size()],
                                    run.config().balancer);
  });
  g_probe_sink += static_cast<uint64_t>(sum);
  return ns;
}

}  // namespace

std::map<std::string, double> RunProbes(const WorkloadSpec& spec,
                                        Experiment& run, size_t queue_depth,
                                        SpanLog* log) {
  std::map<std::string, double> out;
  sim::Rng rng(spec.config.seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::vector<Value> keys = KeyStream(spec, &rng);
  const std::vector<UpdateSpec> shapes = UpdateShapes(spec, IsTpcc(spec), &rng);
  const std::vector<dcg::repl::ReplicaSet*> sets = ReplicaSets(run);
  const std::string hot = IsTpcc(spec) ? "stock" : spec.config.ycsb.table;

  // The collection that owns each key: the shard's primary when sharded.
  std::vector<const store::Collection*> owner(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    const int s = run.sharded() ? run.sharded_cluster()->ShardFor(keys[i]) : 0;
    owner[i] = sets[static_cast<size_t>(s)]->primary().db().Get(hot);
  }
  std::vector<store::DocPtr> docs;
  for (size_t i = 0; i < 256; ++i) docs.push_back(owner[i]->FindById(keys[i]));

  {
    auto span = log->Open("probe sim.event");
    out["sim.event_ns"] = EventNs(queue_depth);
  }
  {
    auto span = log->Open("probe doc");
    out["doc.compare_ns"] = NsPerCall(1000000, [&](int i) {
      g_probe_sink += static_cast<uint64_t>(
          keys[static_cast<size_t>(i) & (kKeys - 1)].Compare(
              keys[static_cast<size_t>(i + 1) & (kKeys - 1)]) + 1);
    });
    std::vector<store::DocPtr> targets;
    std::vector<Filter> filters;
    if (IsTpcc(spec)) {
      // Order Status's customer predicate over order documents.
      const store::Collection* orders = sets[0]->primary().db().Get("orders");
      orders->ForEach([&](const Value&, const store::DocPtr& d) {
        targets.push_back(d);
        return targets.size() < 256;
      });
      for (const store::DocPtr& d : targets) {
        filters.push_back(Filter::And(
            {Filter::Eq("o_w_id", *d->Find("o_w_id")),
             Filter::Eq("o_d_id", *d->Find("o_d_id")),
             Filter::Eq("o_c_id", Value(rng.UniformInt(1, 150)))}));
      }
    } else {
      targets = docs;
      for (const store::DocPtr& d : targets) {
        filters.push_back(Filter::Eq("field0", *d->Find("field0")));
      }
    }
    out["doc.filter_match_ns"] = NsPerCall(200000, [&](int i) {
      g_probe_sink += filters[static_cast<size_t>(i) % filters.size()].Matches(
          *targets[static_cast<size_t>(i * 7) % targets.size()]);
    });
    std::vector<Value> copies;
    for (const store::DocPtr& d : docs) copies.push_back(*d);
    out["doc.update_apply_ns"] = NsPerCall(200000, [&](int i) {
      g_probe_sink += shapes[static_cast<size_t>(i) % shapes.size()].Apply(
          &copies[static_cast<size_t>(i) % copies.size()]);
    });
  }
  {
    auto span = log->Open("probe store");
    out["store.find_ns"] = NsPerCall(200000, [&](int i) {
      const size_t k = static_cast<size_t>(i) & (kKeys - 1);
      g_probe_sink += owner[k]->FindById(keys[k]) != nullptr;
    });
    if (IsTpcc(spec)) {
      // Stock Level's last-20-orders range and Order Status's index scan,
      // alternating.
      const store::Collection* orders = sets[0]->primary().db().Get("orders");
      const store::Collection* districts =
          sets[0]->primary().db().Get("district");
      const auto& t = spec.config.tpcc;
      struct Shape {
        Value lo, hi;
        std::vector<Value> prefix;
      };
      std::vector<Shape> ranges;
      for (int i = 0; i < 256; ++i) {
        const int64_t w = rng.UniformInt(1, t.warehouses);
        const int64_t d = rng.UniformInt(1, t.districts_per_warehouse);
        const int64_t next =
            districts->FindById(Value::List({w, d}))->Find("d_next_o_id")->as_int64();
        ranges.push_back({Value::List({w, d, next - t.stock_level_orders}),
                          Value::List({w, d, next - 1}),
                          {Value(w), Value(d),
                           Value(rng.UniformInt(1, t.customers_per_district))}});
      }
      out["store.range_ns"] = NsPerCall(20000, [&](int i) {
        const Shape& s = ranges[static_cast<size_t>(i) % ranges.size()];
        g_probe_sink += i % 2 == 0
                      ? orders->RangeById(s.lo, s.hi).size()
                      : orders->IndexScan("orders_by_customer", s.prefix,
                                          s.prefix)
                            .size();
      });
    } else {
      out["store.range_ns"] = NsPerCall(20000, [&](int i) {
        const size_t k = static_cast<size_t>(i) & (kKeys - 1);
        g_probe_sink += owner[k]->RangeById(keys[k], Value(keys[k].as_int64() + 19))
                      .size();
      });
    }
  }
  {
    auto span = log->Open("probe net");
    out["net.message_ns"] = MessageNs(spec.config);
  }
  {
    auto span = log->Open("probe driver");
    RoundTrips(spec, &out["driver.read_round_trip_ns"],
               &out["driver.write_round_trip_ns"]);
  }
  {
    auto span = log->Open("probe repl");
    out["repl.apply_ns"] = ApplyNs(spec, keys, shapes);
  }
  {
    auto span = log->Open("probe core");
    out["core.decide_ns"] = DecideNs(run);
  }
  {
    auto span = log->Open("probe shard");
    const dcg::shard::ChunkMap map =
        run.sharded() ? *run.sharded_cluster()->config_shards().Snapshot()
                      : dcg::shard::ChunkMap::Hashed({}, 2, 4);
    out["shard.route_ns"] = NsPerCall(200000, [&](int i) {
      g_probe_sink += static_cast<uint64_t>(
          map.ShardFor(keys[static_cast<size_t>(i) & (kKeys - 1)]));
    });
  }
  {
    auto span = log->Open("probe workload");
    if (IsTpcc(spec)) {
      out["workload.key_ns"] = NsPerCall(200000, [&](int) {
        g_probe_sink += static_cast<uint64_t>(
            dcg::workload::NURand(&rng, 8191, 1, spec.config.tpcc.items, 13));
      });
    } else {
      dcg::workload::ScrambledZipfianGenerator gen(
          spec.config.ycsb.record_count, spec.config.ycsb.zipfian_theta);
      out["workload.key_ns"] = NsPerCall(200000, [&](int) {
        g_probe_sink += static_cast<uint64_t>(gen.Next(&rng));
      });
    }
    std::vector<double> load_s;
    for (int rep = 0; rep < 3; ++rep) {
      const double start = NowS();
      store::Database db;
      LoadData(spec, &db);
      load_s.push_back(NowS() - start);
    }
    out["workload.load_s"] = Median(std::move(load_s));
  }
  return out;
}

}  // namespace replaybench
