// Wall-clock helpers shared by the runner and the probes.

#ifndef REPLAYBENCH_TIMING_H_
#define REPLAYBENCH_TIMING_H_

#include <algorithm>
#include <chrono>
#include <vector>

namespace replaybench {

/// Seconds on the steady clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace replaybench

#endif  // REPLAYBENCH_TIMING_H_
