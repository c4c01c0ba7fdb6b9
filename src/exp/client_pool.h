#ifndef DCG_EXP_CLIENT_POOL_H_
#define DCG_EXP_CLIENT_POOL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_loop.h"
#include "workload/workload.h"

namespace dcg::exp {

/// A pool of closed-loop clients: each active slot issues one workload
/// operation, waits for it to finish, and immediately issues the next —
/// like the paper's N-client load generators. The target size can change
/// mid-run (the Figure 3/4 client-count phases): surplus clients park when
/// their current operation completes; new slots start immediately.
class ClientPool {
 public:
  ClientPool(sim::EventLoop* loop, workload::Workload* workload,
             std::function<void(const workload::OpOutcome&)> on_op);

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Sets the number of concurrently running clients.
  void SetTarget(int n);

  int running() const { return running_count_; }
  uint64_t ops_completed() const { return ops_completed_; }

 private:
  void RunClient(int idx);

  sim::EventLoop* loop_;
  workload::Workload* workload_;
  std::function<void(const workload::OpOutcome&)> on_op_;
  int target_ = 0;
  int running_count_ = 0;
  std::vector<bool> running_;
  uint64_t ops_completed_ = 0;
};

}  // namespace dcg::exp

#endif  // DCG_EXP_CLIENT_POOL_H_
