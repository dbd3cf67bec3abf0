// Capacity-tier sweep: how far the parked-waiter count can be pushed before
// memory or wake latency gives out. Each point parks N waiter threads (small
// pthread stacks — the point is 10^4–10^5 waiters, where glibc's default 8MB
// stacks alone would be 100s of GB of address space), measures the condsync
// footprint per waiter while everyone is parked, then drives a verify phase
// that wakes distinct waiters one commit at a time and counts acknowledgments
// — any gap is a lost wakeup. A configurable fraction of the waiters churns
// short timed waits throughout, so the point also exercises the TimerWheel
// (N timed sleepers share one ticker; the wheel-tick count must stay far
// below the timed-wait count, or the wheel is degenerating into per-wait
// timers).
#ifndef TCS_BENCH_WAITER_SCALE_H_
#define TCS_BENCH_WAITER_SCALE_H_

#include <cstdint>

#include "src/tm/tm_config.h"

namespace tcs {

struct WaiterScaleOptions {
  Backend backend = Backend::kEagerStm;
  // Requested waiter count. The trial clamps this to what the machine can
  // actually host (kernel.pid_max minus live threads, with headroom) before
  // spawning — every pthread consumes a PID, so e.g. the stock pid_max of
  // 32768 caps any process at ~32k threads no matter how small the stacks
  // are. Both numbers land in the result (`requested_waiters` vs `waiters`),
  // so `spawned == waiters` stays a meaningful gate on any machine.
  int waiters = 0;
  // Verify-phase wake commits; clamped to the spawned waiter count so every
  // wake targets a distinct cell (two stores to one cell can coalesce into
  // one observed change, which would read as a false lost wakeup).
  std::uint64_t wake_rounds = 2000;
  // Every Nth waiter runs bounded waits (RetryFor) instead of open-ended
  // ones, timing out and re-arming continuously. 0 disables timed churn.
  int timed_every = 8;
  std::uint64_t timed_timeout_ms = 5;
  // TmConfig::timer_wheel.
  bool timer_wheel = true;
};

struct WaiterScaleResult {
  Backend backend = Backend::kEagerStm;
  int requested_waiters = 0;  // WaiterScaleOptions::waiters as asked for
  int waiters = 0;   // target after the pid_max spawn-ceiling clamp
  int spawned = 0;   // actually running (thread creation may hit EAGAIN)
  bool timer_wheel = false;
  double park_seconds = 0.0;  // spawn start → all spawned waiters registered
  double wake_seconds = 0.0;  // verify-phase wall time
  // Verify phase: wake_rounds distinct-cell wake commits, acks counted by the
  // woken waiters. lost_wakeups = rounds - acks after a generous grace wait.
  std::uint64_t wake_rounds = 0;
  std::uint64_t acks = 0;
  std::uint64_t lost_wakeups = 0;
  // Condsync footprint while all spawned waiters were parked.
  std::uint64_t registry_bytes = 0;
  std::uint64_t wake_index_bytes = 0;
  int registry_segments = 0;
  double mem_bytes_per_waiter = 0.0;
  // Timed-wait churn vs the shared wheel.
  std::uint64_t timed_waits = 0;  // kWaitTimeouts delivered
  std::uint64_t wheel_ticks = 0;
  std::uint64_t wheel_scheduled = 0;
  std::uint64_t wheel_fired = 0;
  std::uint64_t wheel_stale = 0;
  std::uint64_t wheel_max_lag_ns = 0;
  // Wake-path hand-off latency over the verify phase (post → resume).
  std::uint64_t wake_latency_count = 0;
  std::uint64_t wake_p50_ns = 0;
  std::uint64_t wake_p99_ns = 0;
  std::uint64_t wake_p999_ns = 0;
};

WaiterScaleResult RunWaiterScaleTrial(const WaiterScaleOptions& opts);

}  // namespace tcs

#endif  // TCS_BENCH_WAITER_SCALE_H_
