// commit_cost_vs_parked: what one writer's commit costs while N other threads
// sit parked in Retry on cells it never writes. The paper's claim is that the
// answer does not depend on N; the row records ns/commit per N so a
// regression in the quiescence scan or the wake gate shows up as a slope.
#ifndef TCS_BENCH_COMMIT_COST_H_
#define TCS_BENCH_COMMIT_COST_H_

#include <cstdint>
#include <vector>

#include "src/tm/tm_config.h"

namespace tcs {

struct CommitCostResult {
  Backend backend = Backend::kEagerStm;
  int parked = 0;
  std::uint64_t commits = 0;  // per trial
  // ns per writer commit, one sample per trial, and their median/min/max.
  std::vector<double> trial_ns;
  double median_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  // Wake checks per commit, summed over trials: the wake-gate share of the
  // cost (0 when every parked waiter is filtered out before a check).
  double wake_checks_per_commit = 0.0;
  // Parked threads woken during the timed loop (must be 0) and left parked
  // after the release writes (must be 0).
  std::uint64_t spurious_wakeups = 0;
  std::uint64_t lost_wakeups = 0;
};

// Runs `trials` fresh domains per parked count: parks that many threads in
// Retry on private cells, times `commits` two-cell read-modify-write commits
// by one writer on its own cells, then releases every parked thread with one
// write each.
CommitCostResult RunCommitCostVsParked(Backend backend, int parked,
                                       std::uint64_t commits, int trials);

}  // namespace tcs

#endif  // TCS_BENCH_COMMIT_COST_H_
