#include "bench/waiter_scale.h"

#include <pthread.h>
#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/assert.h"
#include "src/condsync/waiter_registry.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/tm/tm_system.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: ack and phase counters published by waiter threads and
// observed by the trial body (additionally ordered by thread join at the
// end). acquire/release is a uniform upper bound chosen over per-site
// minimality; none of these sites needs seq_cst totality.

namespace tcs {
namespace {

// One cell per cache line so cells stay in distinct orecs on every backend
// (same rationale as wake_scenarios.cc): the verify phase relies on "one
// commit concerns exactly one waiter".
struct PaddedCell {
  alignas(64) TVar<std::uint64_t> v;
};

constexpr std::uint64_t kStop = ~std::uint64_t{0};

// 10^5 glibc-default 8MB stacks would reserve ~800GB of address space and two
// VMAs per thread (default vm.max_map_count is 65530, so per-thread stacks
// alone cap the spawn near 32k threads); the waiters only run a retry loop
// over heap-allocated TM state, so a small fixed stack is plenty.
constexpr std::size_t kWaiterStackBytes = 256 * 1024;

// One anonymous mapping carved into fixed-size waiter stacks: the whole
// 10^5-stack arena is a single VMA (pages materialize on first touch), so the
// spawn never brushes vm.max_map_count. No per-stack guard page — the waiters
// are shallow (a retry loop over heap TM state) and 256KB is ~25x their
// worst-case depth. Must outlive every thread it backs (trial joins all
// waiters before returning).
class StackArena {
 public:
  StackArena(std::size_t count, std::size_t bytes_each)
      : bytes_each_(bytes_each), size_(count * bytes_each) {
#if defined(MAP_NORESERVE)
    const int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
#else
    const int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#endif
    void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, flags, -1, 0);
    base_ = (p == MAP_FAILED) ? nullptr : p;
  }
  ~StackArena() {
    if (base_ != nullptr) {
      munmap(base_, size_);
    }
  }
  StackArena(const StackArena&) = delete;
  StackArena& operator=(const StackArena&) = delete;

  bool ok() const { return base_ != nullptr; }
  void* StackOf(std::size_t i) {
    return static_cast<char*>(base_) + i * bytes_each_;
  }
  std::size_t bytes_each() const { return bytes_each_; }

 private:
  std::size_t bytes_each_;
  std::size_t size_;
  void* base_ = nullptr;
};

long ReadProcLong(const char* path, long fallback) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return fallback;
  }
  long v = fallback;
  if (std::fscanf(f, "%ld", &v) != 1) {
    v = fallback;
  }
  std::fclose(f);
  return v;
}

// Threads alive system-wide: fourth field of /proc/loadavg is
// "runnable/total".
long SystemThreadCount() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) {
    return 0;
  }
  double l1, l5, l15;
  long runnable = 0, total = 0;
  if (std::fscanf(f, "%lf %lf %lf %ld/%ld", &l1, &l5, &l15, &runnable,
                  &total) != 5) {
    total = 0;
  }
  std::fclose(f);
  return total;
}

// Every pthread consumes a PID, so kernel.pid_max (stock: 32768) bounds the
// spawn regardless of stack size. Clamp the target to the remaining PID
// budget (minus headroom for the rest of the system) instead of letting
// pthread_create fail EAGAIN a third of the way through a 10^5 point.
int SpawnCeiling(int requested) {
  const long pid_max = ReadProcLong("/proc/sys/kernel/pid_max", LONG_MAX);
  if (pid_max == LONG_MAX) {
    return requested;  // not Linux (or /proc unavailable): no clamp
  }
  long budget = pid_max - SystemThreadCount() - 512;
  if (budget < 1) {
    budget = 1;
  }
  return static_cast<int>(
      std::min<long>(static_cast<long>(requested), budget));
}

struct TrialCtx {
  Runtime* rt = nullptr;
  PaddedCell* cells = nullptr;
  const WaiterScaleOptions* opts = nullptr;
  std::atomic<std::uint64_t> ack_count{0};
  // Timed waiters bump this after their first RetryFor round completes (a
  // timeout — nothing is written during the park phase), proving they have
  // descheduled at least once and materialized their registry/index segment.
  std::atomic<int> timed_entered{0};
};

struct WaiterArg {
  TrialCtx* ctx = nullptr;
  int index = 0;
  bool timed = false;
};

void RunUntimedWaiter(TrialCtx& ctx, int w) {
  Runtime& rt = *ctx.rt;
  std::uint64_t last_seen = 0;
  for (;;) {
    std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
      std::uint64_t cur = tx.Load(ctx.cells[w].v);
      if (cur == last_seen) {
        tx.Retry();
      }
      return cur;
    });
    if (v == kStop) {
      return;
    }
    last_seen = v;
    // mo: release — [harness] publish the ack to the trial body.
    ctx.ack_count.fetch_add(1, std::memory_order_release);
  }
}

void RunTimedWaiter(TrialCtx& ctx, int w) {
  Runtime& rt = *ctx.rt;
  const std::chrono::nanoseconds timeout =
      std::chrono::milliseconds(ctx.opts->timed_timeout_ms);
  std::uint64_t last_seen = 0;
  bool first_round = true;
  for (;;) {
    std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
      std::uint64_t cur = tx.Load(ctx.cells[w].v);
      if (cur == last_seen) {
        // kTimedOut returns inline (the deadline spans restarts); a genuine
        // wake restarts the transaction and re-reads a changed cell instead.
        if (tx.RetryFor(timeout) == WaitResult::kTimedOut) {
          return cur;
        }
      }
      return cur;
    });
    if (first_round) {
      first_round = false;
      // mo: release — [harness] publish park-phase progress to the trial body.
      ctx.timed_entered.fetch_add(1, std::memory_order_release);
    }
    if (v == kStop) {
      return;
    }
    if (v != last_seen) {
      last_seen = v;
      // mo: release — [harness] publish the ack to the trial body.
      ctx.ack_count.fetch_add(1, std::memory_order_release);
    }
    // v == last_seen: the bounded wait expired; loop around and re-arm.
  }
}

void* WaiterMain(void* p) {
  WaiterArg* arg = static_cast<WaiterArg*>(p);
  if (arg->timed) {
    RunTimedWaiter(*arg->ctx, arg->index);
  } else {
    RunUntimedWaiter(*arg->ctx, arg->index);
  }
  return nullptr;
}

}  // namespace

WaiterScaleResult RunWaiterScaleTrial(const WaiterScaleOptions& opts) {
  TCS_CHECK(opts.waiters > 0);
  const int target = SpawnCeiling(opts.waiters);
  TmConfig cfg;
  cfg.backend = opts.backend;
  cfg.max_threads = target + 64;
  cfg.timer_wheel = opts.timer_wheel;
  Runtime rt(cfg);

  auto cells =
      std::make_unique<PaddedCell[]>(static_cast<std::size_t>(target));
  TrialCtx ctx;
  ctx.rt = &rt;
  ctx.cells = cells.get();
  ctx.opts = &opts;

  auto args = std::make_unique<WaiterArg[]>(static_cast<std::size_t>(target));
  std::vector<pthread_t> threads;
  threads.reserve(static_cast<std::size_t>(target));
  StackArena arena(static_cast<std::size_t>(target), kWaiterStackBytes);
  pthread_attr_t attr;
  TCS_CHECK(pthread_attr_init(&attr) == 0);
  if (!arena.ok()) {
    // Arena reservation failed: fall back to per-thread kernel stacks (two
    // VMAs each, so the map limit may cap `spawned` — reported honestly).
    TCS_CHECK(pthread_attr_setstacksize(&attr, kWaiterStackBytes) == 0);
  }

  const double t_spawn = NowSec();
  int spawned = 0;
  int timed_spawned = 0;
  for (int w = 0; w < target; ++w) {
    const bool timed = opts.timed_every > 0 && (w % opts.timed_every) == 0 &&
                       opts.timed_every <= target;
    args[w] = WaiterArg{&ctx, w, timed};
    if (arena.ok()) {
      TCS_CHECK(pthread_attr_setstack(&attr,
                                      arena.StackOf(static_cast<std::size_t>(w)),
                                      arena.bytes_each()) == 0);
    }
    pthread_t t;
    if (pthread_create(&t, &attr, &WaiterMain, &args[w]) != 0) {
      // EAGAIN (thread/VMA limits): run the point at whatever count the
      // machine supports and report the degraded `spawned` honestly.
      break;
    }
    threads.push_back(t);
    spawned++;
    if (timed) {
      timed_spawned++;
    }
  }
  pthread_attr_destroy(&attr);
  const int untimed_spawned = spawned - timed_spawned;

  // Park barrier. Untimed waiters stay registered until woken, so the
  // registry count reaching their total means all of them are parked. Timed
  // waiters churn (deregistering for a moment on every timeout), so an exact
  // RegisteredCount match may never hold; their first completed RetryFor
  // round is the proof they parked and materialized their segments.
  while (rt.sys().waiters().RegisteredCount() < untimed_spawned ||
         // mo: acquire — [harness] observe worker-published progress.
         ctx.timed_entered.load(std::memory_order_acquire) < timed_spawned) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double t_parked = NowSec();

  // Footprint while everyone is (or has been) parked. Segments are never
  // freed, so the snapshot is the high-water mark even if timed waiters are
  // momentarily between registrations.
  TmSystem::ObsSnapshot obs_parked = rt.sys().SnapshotObs();
  // Timed waits completed during the park phase (cleared by ResetStats below;
  // added back so timed_waits covers the whole trial).
  const std::uint64_t park_phase_timeouts =
      rt.AggregateStats().Get(Counter::kWaitTimeouts);
  rt.ResetStats();

  // Verify phase: each round writes a fresh value to a DISTINCT cell, so
  // expected acks == rounds exactly (a second write to the same cell could
  // land while its waiter is still between wake and re-park, coalescing two
  // wakes into one observed change — a false "lost wakeup").
  const std::uint64_t rounds =
      spawned > 0
          ? std::min<std::uint64_t>(opts.wake_rounds,
                                    static_cast<std::uint64_t>(spawned))
          : 0;
  const double t_wake0 = NowSec();
  for (std::uint64_t i = 1; i <= rounds; ++i) {
    const int w = static_cast<int>((i - 1) % static_cast<std::uint64_t>(spawned));
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, i); });
  }
  // Grace: every woken waiter acks before re-parking; 30s is orders of
  // magnitude beyond any real hand-off, so a shortfall is a lost wakeup, not
  // impatience.
  const auto grace_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // mo: acquire — [harness] observe worker-published acks.
  while (ctx.ack_count.load(std::memory_order_acquire) < rounds &&
         std::chrono::steady_clock::now() < grace_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double t_wake1 = NowSec();

  TxStats st = rt.AggregateStats();
  TmSystem::ObsSnapshot obs_end = rt.sys().SnapshotObs();

  // Release + join. Every join completing is the definitive no-lost-wakeup
  // check for the release broadcast itself.
  for (int w = 0; w < spawned; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, kStop); });
  }
  for (pthread_t t : threads) {
    pthread_join(t, nullptr);
  }

  WaiterScaleResult r;
  r.backend = opts.backend;
  r.requested_waiters = opts.waiters;
  r.waiters = target;
  r.spawned = spawned;
  r.timer_wheel = opts.timer_wheel;
  r.park_seconds = t_parked - t_spawn;
  r.wake_seconds = t_wake1 - t_wake0;
  r.wake_rounds = rounds;
  // mo: acquire — [harness] observe worker-published acks (joins above also
  // order everything, belt and braces).
  r.acks = ctx.ack_count.load(std::memory_order_acquire);
  r.lost_wakeups = r.acks >= rounds ? 0 : rounds - r.acks;
  r.registry_bytes = obs_parked.condsync_registry_bytes;
  r.wake_index_bytes = obs_parked.condsync_wake_index_bytes;
  r.registry_segments = obs_parked.registry_segments;
  r.mem_bytes_per_waiter =
      spawned > 0 ? static_cast<double>(r.registry_bytes + r.wake_index_bytes) /
                        static_cast<double>(spawned)
                  : 0.0;
  r.timed_waits = park_phase_timeouts + st.Get(Counter::kWaitTimeouts);
  r.wheel_ticks = obs_end.wheel.ticks;
  r.wheel_scheduled = obs_end.wheel.scheduled;
  r.wheel_fired = obs_end.wheel.fired;
  r.wheel_stale = obs_end.wheel.stale;
  r.wheel_max_lag_ns = obs_end.wheel.max_lag_ns;
  r.wake_latency_count = obs_end.wake_latency.Count();
  r.wake_p50_ns = obs_end.wake_latency.Percentile(50);
  r.wake_p99_ns = obs_end.wake_latency.Percentile(99);
  r.wake_p999_ns = obs_end.wake_latency.Percentile(99.9);
  return r;
}

}  // namespace tcs
