// The lock-free CAS wake-claim fast path racing the batched wake-transaction
// path (both live by default): the common disjoint-waiter case must claim with
// zero wake transactions, arbitrary-predicate waiters must still go through
// the batch path, and under churn the two claim paths must never double-post
// or lose a wakeup. CI runs this binary under TSan and again with
// TCS_PROTOCOL_CHECKS=ON, where any claim/post imbalance (a CAS claim without
// a post, a post without a claim, a double claim) aborts the process.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/condsync/waiter_registry.h"
#include "src/condsync/wake_index.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace tcs {
namespace {

TmConfig ConfigFor(Backend b) {
  TmConfig cfg;
  cfg.backend = b;
  cfg.orec_table_log2 = 12;
  cfg.max_threads = 64;
  // Defaults, but spelled out: this suite is about both paths being live.
  cfg.cas_claim_fast_path = true;
  cfg.adaptive_wake_batch = true;
  cfg.wake_batch_size = 4;
  return cfg;
}

void AwaitCounter(Runtime& rt, Counter c, std::uint64_t target) {
  for (int i = 0; i < 100000; ++i) {
    if (rt.AggregateStats().Get(c) >= target) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "counter " << CounterName(c) << " never reached " << target;
}

// Cache-line padding keeps each cell in its own orec on every backend,
// including the simulated HTM's line-granular table.
struct PaddedCell {
  alignas(64) TVar<std::uint64_t> v;
};

std::string BackendTestName(Backend b) {
  switch (b) {
    case Backend::kEagerStm:
      return "EagerStm";
    case Backend::kLazyStm:
      return "LazyStm";
    case Backend::kSimHtm:
      return "SimHtm";
  }
  return "Unknown";
}

class CasClaimTest : public ::testing::TestWithParam<Backend> {};

// The acceptance case: 1..4 disjoint waiters released one at a time by an
// uncontended writer. Every claim must come from the CAS fast path, with zero
// wake transactions — the fast path strictly reduces wake transactions per
// commit relative to the batched baseline (which needed one per wake pass).
TEST_P(CasClaimTest, DisjointWaitersClaimWithoutWakeTransactions) {
  for (int n_waiters : {1, 2, 4}) {
    Runtime rt(ConfigFor(GetParam()));
    auto cells = std::make_unique<PaddedCell[]>(n_waiters);
    std::vector<std::thread> waiters;
    for (int t = 0; t < n_waiters; ++t) {
      waiters.emplace_back([&, t] {
        Atomically(rt.sys(), [&](Tx& tx) {
          if (tx.Load(cells[t].v) == 0) {
            tx.Retry();
          }
        });
      });
    }
    AwaitCounter(rt, Counter::kSleeps, n_waiters);
    rt.ResetStats();
    // Release one waiter at a time and let it finish before the next store: a
    // woken waiter that re-executes in sim-HTM serial mode would otherwise
    // race the next claim, and that claim then correctly falls back to a
    // wake batch.
    for (int t = 0; t < n_waiters; ++t) {
      Atomically(rt.sys(),
                 [&](Tx& tx) { tx.Store(cells[t].v, std::uint64_t{1}); });
      waiters[static_cast<std::size_t>(t)].join();
    }
    TxStats s = rt.AggregateStats();
    EXPECT_EQ(s.Get(Counter::kCasWakeClaims),
              static_cast<std::uint64_t>(n_waiters))
        << n_waiters << " disjoint waiters";
    EXPECT_EQ(s.Get(Counter::kWakeBatches), 0u)
        << "an uncontended claim still paid for a wake transaction";
    EXPECT_EQ(s.Get(Counter::kWakeups),
              static_cast<std::uint64_t>(n_waiters));
    EXPECT_EQ(s.Get(Counter::kFalseWakeups), 0u);
    EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
    EXPECT_TRUE(rt.sys().wake_index().Empty());
  }
}

struct ThresholdState {
  std::uint64_t count = 0;
};

bool CountAtLeastPred(TmSystem& sys, const WaitArgs& args) {
  const auto* st = reinterpret_cast<const ThresholdState*>(args.v[0]);
  TmWord v = sys.Read(reinterpret_cast<const TmWord*>(&st->count));
  return v >= args.v[1];
}

// Arbitrary predicates cannot be snapshot-evaluated outside a transaction, so
// WaitPred waiters must be claimed by the batched path even with the fast
// path enabled — and the fast path must count them as fallbacks, not claims.
TEST_P(CasClaimTest, ArbitraryPredicateWaitersUseTheBatchPath) {
  Runtime rt(ConfigFor(GetParam()));
  ThresholdState st;
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(st.count) < 1) {
        WaitArgs args;
        args.v[0] = reinterpret_cast<TmWord>(&st);
        args.v[1] = 1;
        args.n = 2;
        tx.WaitPred(&CountAtLeastPred, args);
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  rt.ResetStats();
  Atomically(rt.sys(),
             [&](Tx& tx) { tx.Store(st.count, tx.Load(st.count) + 1); });
  waiter.join();
  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kCasWakeClaims), 0u)
      << "a non-findChanges predicate was claimed without a transaction";
  EXPECT_GE(s.Get(Counter::kCasClaimFallbacks), 1u);
  EXPECT_GE(s.Get(Counter::kWakeBatches), 1u);
  EXPECT_GE(s.Get(Counter::kWakeups), 1u);
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// Race stress: many writers hammer a shared hub (every parked waiter becomes
// a candidate of every commit, so concurrent wake passes race on the same
// slots — CAS losers fall back to wake transactions mid-flight) while waiters
// churn through timed and untimed parks. Correctness bars: nobody hangs, no
// false wakeups (a claim of an unsatisfied waiter), exact claim/post balance
// (enforced fatally by the protocol checker when compiled in), and no leaked
// registry or index entries.
TEST_P(CasClaimTest, FastAndBatchedClaimsRaceUnderChurn) {
  constexpr int kWaiters = 8;
  constexpr int kWriters = 4;
  constexpr int kRoundsPerWaiter = 25;
  Runtime rt(ConfigFor(GetParam()));
  PaddedCell hub;
  auto cells = std::make_unique<PaddedCell[]>(kWaiters);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::uint64_t i = 0;
      // mo: acquire — [harness] observe worker-published state.
      while (!stop.load(std::memory_order_acquire)) {
        if ((i + w) % 2 == 0) {
          Atomically(rt.sys(),
                     [&](Tx& tx) { tx.Store(hub.v, tx.Load(hub.v) + 1); });
        } else {
          int target = static_cast<int>(i + w) % kWaiters;
          Atomically(rt.sys(), [&](Tx& tx) {
            tx.Store(cells[target].v, tx.Load(cells[target].v) + 1);
          });
        }
        ++i;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&, t] {
      std::uint64_t last_hub = 0;
      std::uint64_t last_own = 0;
      for (int r = 0; r < kRoundsPerWaiter; ++r) {
        auto timeout = std::chrono::microseconds(50 + (r % 5) * 150);
        auto pair = Atomically(
            rt.sys(), [&](Tx& tx) -> std::pair<std::uint64_t, std::uint64_t> {
              std::uint64_t h = tx.Load(hub.v);
              std::uint64_t own = tx.Load(cells[t].v);
              if (h == last_hub && own == last_own) {
                if (tx.RetryFor(timeout) == WaitResult::kTimedOut) {
                  return {h, own};
                }
              }
              return {h, own};
            });
        last_hub = pair.first;
        last_own = pair.second;
      }
    });
  }
  for (auto& t : waiters) {
    t.join();
  }
  // mo: release — [harness] publish state to other harness threads.
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) {
    t.join();
  }

  // Deterministic finale: everyone parks untimed, each is released by its own
  // write. A lost wakeup (double claim, missed claim) hangs the join.
  waiters.clear();
  std::atomic<int> woken{0};
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&, t] {
      std::uint64_t seen = cells[t].v.UnsafeRead();
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cells[t].v) == seen) {
          tx.Retry();
        }
      });
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      woken.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  while (rt.sys().waiters().RegisteredCount() < kWaiters) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (int t = 0; t < kWaiters; ++t) {
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(cells[t].v, tx.Load(cells[t].v) + 1);
    });
  }
  for (auto& t : waiters) {
    t.join();
  }
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(woken.load(std::memory_order_acquire), kWaiters);
  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kFalseWakeups), 0u)
      << "a claim path woke a waiter whose predicate never changed";
  EXPECT_GE(s.Get(Counter::kCasWakeClaims), 1u)
      << "the fast path never claimed anything under churn";
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty())
      << "an index entry leaked through the racing claim paths";
}

// wake_single with the fast path: a commit satisfying many waiters may post
// exactly one wakeup, even when the claims come from the CAS path.
TEST_P(CasClaimTest, WakeSingleBudgetHoldsOnTheFastPath) {
  constexpr int kWaiters = 6;
  TmConfig cfg = ConfigFor(GetParam());
  cfg.wake_single = true;
  Runtime rt(cfg);
  PaddedCell cell;
  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cell.v) == 0) {
          tx.Retry();
        }
      });
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      woken.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  AwaitCounter(rt, Counter::kSleeps, kWaiters);
  rt.ResetStats();
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.v, std::uint64_t{1}); });
  // mo: acquire — [harness] observe worker-published state.
  while (woken.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kWakeups), 1u)
      << "wake_single leaked extra wakeups through the fast path";
  // The woken waiter's read-only commit wakes nobody; drive the rest out.
  // mo: acquire — [harness] observe worker-published state.
  while (woken.load(std::memory_order_acquire) < kWaiters) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.v, std::uint64_t{1}); });
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CasClaimTest,
                         ::testing::Values(Backend::kEagerStm,
                                           Backend::kLazyStm, Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendTestName(info.param);
                         });

}  // namespace
}  // namespace tcs
