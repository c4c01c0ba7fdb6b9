// Table 1: transaction mix of the original TPC-C versus the read-write
// TPC-C variant used throughout the evaluation. We run both mixes and
// report the measured per-type percentages against the table's targets.

#include "bench_common.h"

namespace {

struct MixRow {
  const char* name;
  double standard;
  double read_write;
};

constexpr MixRow kTable1[] = {
    {"Stock Level", 0.04, 0.50},  {"Delivery", 0.04, 0.04},
    {"Order Status", 0.04, 0.04}, {"Payment", 0.43, 0.20},
    {"New Order", 0.45, 0.22},
};

}  // namespace

int main() {
  using namespace dcg;
  using namespace dcg::bench;

  Banner("Table 1", "TPC-C mix: standard vs read-write variant (measured)");

  bool all_ok = true;
  for (int variant = 0; variant < 2; ++variant) {
    exp::ExperimentConfig config;
    config.seed = 52;
    config.system = exp::SystemType::kPrimary;
    config.kind = exp::WorkloadKind::kTpcc;
    config.tpcc = variant == 0 ? workload::TpccConfig::Standard()
                               : workload::TpccConfig::ReadWrite();
    config.phases = {{0, 20, 0.5}};
    config.duration = sim::Seconds(300);
    config.run_s_workload = false;
    exp::Experiment experiment(config);
    experiment.Run();

    const workload::TpccWorkload& tpcc = *experiment.tpcc();
    const double total = static_cast<double>(
        tpcc.stock_level_count() + tpcc.delivery_count() +
        tpcc.order_status_count() + tpcc.payment_count() +
        tpcc.new_order_count());
    const double measured[] = {
        tpcc.stock_level_count() / total, tpcc.delivery_count() / total,
        tpcc.order_status_count() / total, tpcc.payment_count() / total,
        tpcc.new_order_count() / total,
    };

    std::printf("\n[%s TPC-C] (%d transactions)\n",
                variant == 0 ? "standard" : "read-write",
                static_cast<int>(total));
    std::printf("%-14s %10s %10s\n", "transaction", "target%", "measured%");
    for (int i = 0; i < 5; ++i) {
      const double target =
          variant == 0 ? kTable1[i].standard : kTable1[i].read_write;
      std::printf("%-14s %9.0f%% %9.1f%%\n", kTable1[i].name, target * 100,
                  measured[i] * 100);
      if (std::abs(measured[i] - target) > 0.02) all_ok = false;
    }
  }

  ShapeCheck("measured mixes match Table 1 within sampling error (±2 pp)",
             all_ok);
  return ShapeExitCode();
}
