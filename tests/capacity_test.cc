// Capacity-tier tests: 10^4 parked waiters per backend against the segmented
// registry/index + futex parking, the ParkSpot token protocol's edge cases,
// the max_threads ceiling's loud death, and timed-wait churn through (and
// without) the shared TimerWheel.
#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "src/common/parking_lot.h"
#include "src/condsync/waiter_registry.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/tm/tm_system.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TCS_CAPACITY_TSAN 1
#endif
#endif
#if !defined(TCS_CAPACITY_TSAN) && defined(__SANITIZE_THREAD__)
#define TCS_CAPACITY_TSAN 1
#endif

namespace tcs {
namespace {

// TSan instruments every thread and keeps per-thread shadow state; 10^4
// threads under it is minutes of wall time and GBs of shadow, so the
// sanitizer job runs the same protocol at a few hundred waiters.
#if defined(TCS_CAPACITY_TSAN)
constexpr int kManyWaiters = 256;
#else
constexpr int kManyWaiters = 10000;
#endif

// The ISSUE's memory gate: directory + segments, per parked waiter.
constexpr double kMaxCondsyncBytesPerWaiter = 4096.0;

struct PaddedCell {
  alignas(64) TVar<std::uint64_t> v;
};

constexpr std::uint64_t kStop = ~std::uint64_t{0};

// Thousands of glibc-default (8MB) stacks burn address space and VMA count
// for threads that only run a retry loop; park the waiters on small fixed
// stacks instead, like the waiter_scale bench.
class SmallStackThreads {
 public:
  ~SmallStackThreads() { JoinAll(); }

  bool Spawn(std::function<void()> fn) {
    fns_.push_back(std::move(fn));  // deque: stable address for the trampoline
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, 256 * 1024);
    pthread_t t;
    int rc = pthread_create(&t, &attr, &Trampoline, &fns_.back());
    pthread_attr_destroy(&attr);
    if (rc != 0) {
      fns_.pop_back();
      return false;
    }
    handles_.push_back(t);
    return true;
  }

  int spawned() const { return static_cast<int>(handles_.size()); }

  void JoinAll() {
    for (pthread_t t : handles_) {
      pthread_join(t, nullptr);
    }
    handles_.clear();
    fns_.clear();
  }

 private:
  static void* Trampoline(void* p) {
    (*static_cast<std::function<void()>*>(p))();
    return nullptr;
  }

  std::deque<std::function<void()>> fns_;
  std::deque<pthread_t> handles_;
};

// Parks `waiters` threads on distinct cells, verifies the per-waiter condsync
// footprint bound while everyone is parked, wakes `wake_rounds` distinct
// waiters and counts their acks (any shortfall is a lost wakeup), then
// releases and joins everyone (the definitive no-lost-wakeup check for the
// release broadcast).
void RunManyWaitersPoint(Backend backend, int waiters) {
  TmConfig cfg;
  cfg.backend = backend;
  cfg.max_threads = waiters + 16;
  Runtime rt(cfg);

  auto cells = std::make_unique<PaddedCell[]>(static_cast<std::size_t>(waiters));
  std::atomic<std::uint64_t> acks{0};
  SmallStackThreads pool;
  for (int w = 0; w < waiters; ++w) {
    bool ok = pool.Spawn([&rt, &cells, &acks, w] {
      std::uint64_t last_seen = 0;
      for (;;) {
        std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
          std::uint64_t cur = tx.Load(cells[w].v);
          if (cur == last_seen) {
            tx.Retry();
          }
          return cur;
        });
        if (v == kStop) {
          return;
        }
        last_seen = v;
        // mo: release — [harness] publish the ack to the test body.
        acks.fetch_add(1, std::memory_order_release);
      }
    });
    ASSERT_TRUE(ok) << "thread creation failed at " << w;
  }

  while (rt.sys().waiters().RegisteredCount() < waiters) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  TmSystem::ObsSnapshot parked = rt.sys().SnapshotObs();
  EXPECT_EQ(parked.registered_waiters, waiters);
  EXPECT_GT(parked.condsync_registry_bytes, 0u);
  EXPECT_GT(parked.condsync_wake_index_bytes, 0u);
  const double per_waiter =
      static_cast<double>(parked.condsync_registry_bytes +
                          parked.condsync_wake_index_bytes) /
      static_cast<double>(waiters);
  EXPECT_LT(per_waiter, kMaxCondsyncBytesPerWaiter);
  // Segments materialize on demand: tids run 0..waiters+main, so the segment
  // count must track ceil(tids / 256), not max_threads.
  EXPECT_LE(parked.registry_segments, (waiters + 16 + 255) / 256);

  // Wake a distinct-cell sample; every wake must produce exactly one ack.
  const std::uint64_t rounds =
      std::min<std::uint64_t>(256, static_cast<std::uint64_t>(waiters));
  for (std::uint64_t i = 1; i <= rounds; ++i) {
    const int w = static_cast<int>(i - 1);
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, i); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  // mo: acquire — [harness] observe worker-published acks.
  while (acks.load(std::memory_order_acquire) < rounds &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // mo: acquire — [harness] observe worker-published acks.
  EXPECT_EQ(acks.load(std::memory_order_acquire), rounds) << "lost wakeups";

  for (int w = 0; w < waiters; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, kStop); });
  }
  pool.JoinAll();

  // Leak check: every waiter deregistered on its way out.
  EXPECT_FALSE(rt.sys().waiters().HasWaiters());
  EXPECT_EQ(rt.sys().SnapshotObs().registered_waiters, 0);
  EXPECT_EQ(rt.sys().ProtocolViolations(), 0u);
}

TEST(CapacityTest, ManyWaitersEager) {
  RunManyWaitersPoint(Backend::kEagerStm, kManyWaiters);
}

TEST(CapacityTest, ManyWaitersLazy) {
  RunManyWaitersPoint(Backend::kLazyStm, kManyWaiters);
}

TEST(CapacityTest, ManyWaitersHtm) {
  RunManyWaitersPoint(Backend::kSimHtm, kManyWaiters);
}

// ParkSpot token protocol, one thread, no runtime: the edges the full-runtime
// churn tests reach only by chance.
constexpr std::uint32_t kBothTokens =
    ParkSpot::kWakeToken | ParkSpot::kTimeoutToken;

// A claimed wakeup must win over a timeout that fired for the same sleep, and
// consuming it retires the stale timeout token too.
TEST(ParkSpotTest, WakeTokenBeatsTimeoutTokenInParkEither) {
  ParkSpot spot;
  EXPECT_TRUE(spot.PostTimeout(spot.ArmTimed()));
  spot.Post();
  EXPECT_EQ(spot.PendingTokens(), kBothTokens);
  EXPECT_TRUE(spot.ParkEither());
  EXPECT_EQ(spot.PendingTokens(), 0u);
}

// At (or past) the deadline ParkUntil still takes a wake token that is
// already in, and reports a plain timeout when none is.
TEST(ParkSpotTest, ParkUntilConsumesWakeTokenAtDeadline) {
  ParkSpot spot;
  const auto past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  spot.Post();
  EXPECT_TRUE(spot.ParkUntil(past));
  EXPECT_EQ(spot.PendingTokens(), 0u);
  EXPECT_FALSE(spot.ParkUntil(past));
}

// A wheel fire for an earlier timed wait of this spot is dropped.
TEST(ParkSpotTest, PostTimeoutWithStaleEpochPostsNothing) {
  ParkSpot spot;
  const std::uint64_t stale = spot.ArmTimed();
  const std::uint64_t current = spot.ArmTimed();
  EXPECT_FALSE(spot.PostTimeout(stale));
  EXPECT_EQ(spot.PendingTokens(), 0u);
  EXPECT_TRUE(spot.PostTimeout(current));
  EXPECT_EQ(spot.PendingTokens(), ParkSpot::kTimeoutToken);
  EXPECT_FALSE(spot.ParkEither());
  EXPECT_EQ(spot.PendingTokens(), 0u);
}

// An untimed wait ends a timed wait's life: a timeout token left over from it
// must not survive to satisfy the next ParkEither.
TEST(ParkSpotTest, ConsumeTokenClearsLeftoverTimeoutToken) {
  ParkSpot spot;
  EXPECT_TRUE(spot.PostTimeout(spot.ArmTimed()));
  spot.Post();
  spot.ConsumeToken();
  EXPECT_EQ(spot.PendingTokens(), 0u);
}

// Descriptor recycling: a new owner starts with no tokens at all.
TEST(ParkSpotTest, ResetClearsBothTokens) {
  ParkSpot spot;
  EXPECT_TRUE(spot.PostTimeout(spot.ArmTimed()));
  spot.Post();
  EXPECT_EQ(spot.PendingTokens(), kBothTokens);
  spot.Reset();
  EXPECT_EQ(spot.PendingTokens(), 0u);
}

// Segment directories grow by appending 256-tid blocks as tids are touched;
// with ~600 waiters the registry must hold exactly ceil(tids/256) = 3
// segments, not a max_threads-sized slab.
TEST(CapacityTest, SegmentsGrowOnDemand) {
  constexpr int kWaiters = 600;
  TmConfig cfg;
  cfg.max_threads = 4096;
  Runtime rt(cfg);
  auto cells = std::make_unique<PaddedCell[]>(kWaiters);
  SmallStackThreads pool;
  for (int w = 0; w < kWaiters; ++w) {
    ASSERT_TRUE(pool.Spawn([&rt, &cells, w] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cells[w].v) == 0) {
          tx.Retry();
        }
      });
    }));
  }
  while (rt.sys().waiters().RegisteredCount() < kWaiters) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  TmSystem::ObsSnapshot obs = rt.sys().SnapshotObs();
  // tids 0..600 (waiters + the main thread) span three 256-tid segments.
  EXPECT_EQ(obs.registry_segments, 3);
  EXPECT_LE(obs.wake_index_segments, 3);
  // The ceiling (4096 tids = 16 segments) was NOT pre-materialized.
  EXPECT_LT(obs.condsync_registry_bytes + obs.condsync_wake_index_bytes,
            static_cast<std::uint64_t>(kMaxCondsyncBytesPerWaiter) * kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, std::uint64_t{1}); });
  }
  pool.JoinAll();
}

// Registration past the max_threads ceiling must die loudly (TCS_CHECK), not
// scribble past a directory. Both threads hold their registration alive while
// the second registers, so tid recycling cannot mask the overflow.
TEST(CapacityDeathTest, MaxThreadsCeilingDiesLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TmConfig cfg;
        cfg.max_threads = 1;
        Runtime rt(cfg);
        std::uint64_t x = 0;
        std::atomic<bool> first_registered{false};
        std::atomic<bool> second_died{false};  // never set; pins thread a
        // Thread a registers (tid 0) and then stays alive, so its tid cannot
        // be recycled to mask the overflow when b registers.
        std::thread a([&] {
          Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
          // mo: release — [harness] publish registration to the test body.
          first_registered.store(true, std::memory_order_release);
          // mo: acquire — [harness] spin until the process dies under us.
          while (!second_died.load(std::memory_order_acquire)) {
          }
        });
        // mo: acquire — [harness] observe worker-published state.
        while (!first_registered.load(std::memory_order_acquire)) {
        }
        std::thread b([&] {
          Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{2}); });
        });
        b.join();
        a.join();
      },
      "too many threads for this TM domain");
}

// Timed churn against the shared wheel: many concurrent short timed waits
// must be serviced by ONE ticker at O(1) per tick — the wheel's tick count
// stays far below the timed-wait count (the pre-wheel design paid one kernel
// timeout per wait).
TEST(CapacityTest, TimedChurnSharesOneWheel) {
  constexpr int kTimedWaiters = 64;
  TmConfig cfg;
  cfg.max_threads = kTimedWaiters + 16;
  Runtime rt(cfg);
  auto cells = std::make_unique<PaddedCell[]>(kTimedWaiters);
  SmallStackThreads pool;
  for (int w = 0; w < kTimedWaiters; ++w) {
    ASSERT_TRUE(pool.Spawn([&rt, &cells, w] {
      for (;;) {
        std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
          std::uint64_t cur = tx.Load(cells[w].v);
          if (cur == 0) {
            // kTimedOut returns inline; a wake restarts and re-reads.
            if (tx.RetryFor(std::chrono::milliseconds(2)) ==
                WaitResult::kTimedOut) {
              return cur;
            }
          }
          return cur;
        });
        if (v != 0) {
          return;
        }
      }
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (int w = 0; w < kTimedWaiters; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, std::uint64_t{1}); });
  }
  pool.JoinAll();

  const std::uint64_t timed_waits =
      rt.AggregateStats().Get(Counter::kWaitTimeouts);
  TmSystem::ObsSnapshot obs = rt.sys().SnapshotObs();
  ASSERT_TRUE(obs.wheel_enabled);
  // 64 waiters × (500ms / 2ms) ≈ 16k waits; the 1ms ticker fits ~500 ticks
  // in the same window. Generous margins keep this robust on loaded CI.
  EXPECT_GT(timed_waits, static_cast<std::uint64_t>(kTimedWaiters));
  EXPECT_GT(obs.wheel.scheduled, 0u);
  EXPECT_GT(obs.wheel.fired, 0u);
  EXPECT_LT(obs.wheel.ticks, timed_waits / 2) << "wheel degenerated toward "
                                                 "one tick per timed wait";
  EXPECT_EQ(rt.sys().ProtocolViolations(), 0u);
}

// Wheel-off ablation regression: per-wait kernel timeouts (ParkUntil) must
// still deliver expiries and survive wake-vs-timeout races (the drain
// documented in DescheduleImpl).
TEST(CapacityTest, WheelOffTimedWaitsStillExpireAndWake) {
  TmConfig cfg;
  cfg.timer_wheel = false;
  Runtime rt(cfg);
  TVar<std::uint64_t> cell;
  std::thread waiter([&] {
    for (;;) {
      std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
        std::uint64_t cur = tx.Load(cell);
        if (cur == 0) {
          if (tx.RetryFor(std::chrono::milliseconds(3)) ==
              WaitResult::kTimedOut) {
            return cur;
          }
        }
        return cur;
      });
      if (v != 0) {
        return;
      }
    }
  });
  while (rt.AggregateStats().Get(Counter::kWaitTimeouts) < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{1}); });
  waiter.join();
  TmSystem::ObsSnapshot obs = rt.sys().SnapshotObs();
  EXPECT_FALSE(obs.wheel_enabled);
  EXPECT_EQ(obs.wheel.scheduled, 0u);
  EXPECT_GE(rt.AggregateStats().Get(Counter::kWaitTimeouts), 5u);
}

// Wake-vs-timeout churn with the wheel ON: rapid writer commits against a
// 1ms-timeout waiter force every interleaving of claimed wake, wheel fire,
// and re-arm (ArmTimed must retire stale timeout tokens, ParkEither must
// prefer the wake token). Termination of the join is the assertion.
TEST(CapacityTest, TimedWaitWakeRaceChurn) {
  TmConfig cfg;
  cfg.timer_wheel_tick_us = 500;
  Runtime rt(cfg);
  TVar<std::uint64_t> cell;
  std::thread waiter([&] {
    std::uint64_t last_seen = 0;
    for (;;) {
      std::uint64_t v = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
        std::uint64_t cur = tx.Load(cell);
        if (cur == last_seen) {
          if (tx.RetryFor(std::chrono::milliseconds(1)) ==
              WaitResult::kTimedOut) {
            return cur;
          }
        }
        return cur;
      });
      if (v == kStop) {
        return;
      }
      last_seen = v;
    }
  });
  for (std::uint64_t i = 1; i <= 300; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, i); });
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, kStop); });
  waiter.join();
  EXPECT_EQ(rt.sys().ProtocolViolations(), 0u);
}

}  // namespace
}  // namespace tcs
