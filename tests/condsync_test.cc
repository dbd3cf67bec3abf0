// Behavioral tests for the condition-synchronization mechanisms: Retry (Alg. 5),
// Await (Alg. 6), WaitPred (Alg. 7), Deschedule's lost-wakeup window, Retry-Orig
// (Alg. 1), TMCondVar (atomicity break), and the Restart strawman — across all
// three TM backends. Assertions use the runtime's event counters (sleeps, wakeups,
// wake checks) rather than timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json_writer.h"
#include "src/condsync/tm_condvar.h"
#include "src/condsync/waiter_registry.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/core/tvar.h"
#include "src/sync/bounded_buffer.h"
#include "tests/matrix.h"

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
  cfg.max_threads = 32;
  return cfg;
}

// Polls aggregate stats until `counter` reaches `target` (waiter observably
// asleep / woken), bounded by a generous timeout.
void AwaitCounter(Runtime& rt, Counter c, std::uint64_t target) {
  for (int i = 0; i < 100000; ++i) {
    if (rt.AggregateStats().Get(c) >= target) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "counter " << CounterName(c) << " never reached " << target;
}

class CondSyncTest : public ::testing::TestWithParam<Backend> {
 protected:
  CondSyncTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(CondSyncTest, RetryWakesOnChange) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  TxStats s = rt_.AggregateStats();
  if (GetParam() == Backend::kSimHtm) {
    // On HTM, Retry aborts the hardware attempt and re-executes in software mode
    // with logging already enabled; there is no separate logging restart.
    EXPECT_GE(s.Get(Counter::kHtmExplicitAborts), 1u);
  } else {
    EXPECT_GE(s.Get(Counter::kRetryRestarts), 1u);  // first pass re-executes to log
  }
  EXPECT_GE(s.Get(Counter::kWakeups), 1u);
  EXPECT_GE(s.Get(Counter::kDeschedules), 1u);
}

TEST_P(CondSyncTest, SilentStoreDoesNotWakeRetry) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // A silent store: writes the value already present. Value-based waitsets make
  // this invisible to the waiter (§2.2.3); the writer checks but must not wake.
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{0}); });
  AwaitCounter(rt_, Counter::kWakeChecks, 1);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(CondSyncTest, AwaitIgnoresUnrelatedWrites) {
  std::uint64_t interesting = 0;
  std::uint64_t unrelated = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(interesting) == 0) {
        tx.Await(interesting);
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // Writes to locations outside the Await address list must not wake. With the
  // targeted wake index these commits normally skip even the wake *check*
  // (their write-set shards don't cover the waiter); a hash collision may
  // still produce a harmless rejected check, never a wakeup.
  for (int i = 1; i <= 3; ++i) {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(unrelated, static_cast<std::uint64_t>(i));
    });
  }
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(interesting, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(CondSyncTest, AwaitSeesOwnWritesRolledBack) {
  // A transaction that wrote the awaited location must log the pre-transaction
  // value, not its own speculative one, or it would wake spuriously (§2.2.6).
  std::uint64_t x = 5;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(x) == 5) {
        tx.Store(x, std::uint64_t{99});  // speculative write, undone by Await
        tx.Await(x);
      }
      // After wakeup: x was changed by the writer.
      EXPECT_EQ(tx.Load(x), 6u);
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // A silent store to x targets the waiter's own shard, so the wake check runs
  // even under targeted wakeup; the waitset entry for x must hold 5 (the
  // rolled-back value), which still matches memory, so no wake.
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{5}); });
  AwaitCounter(rt_, Counter::kWakeChecks, 1);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{6}); });
  waiter.join();
}

struct ThresholdState {
  std::uint64_t count = 0;
};

bool CountAtLeastPred(TmSystem& sys, const WaitArgs& args) {
  const auto* st = reinterpret_cast<const ThresholdState*>(args.v[0]);
  TmWord v = sys.Read(reinterpret_cast<const TmWord*>(&st->count));
  return v >= args.v[1];
}

TEST_P(CondSyncTest, WaitPredFiltersUnsatisfyingWrites) {
  ThresholdState st;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(st.count) < 3) {
        WaitArgs args;
        args.v[0] = reinterpret_cast<TmWord>(&st);
        args.v[1] = 3;
        args.n = 2;
        tx.WaitPred(&CountAtLeastPred, args);
      }
      EXPECT_GE(tx.Load(st.count), 3u);
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // Increments 1 and 2 change the location the predicate reads, but do not
  // satisfy it: WaitPred's whole point is that these cause no wakeup (unlike
  // Retry/Await, which would wake on any change).
  for (int i = 1; i <= 2; ++i) {
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(st.count, tx.Load(st.count) + 1); });
  }
  AwaitCounter(rt_, Counter::kWakeChecks, 2);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(st.count, tx.Load(st.count) + 1); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(CondSyncTest, DescheduleDoubleCheckAvoidsSleepWhenConditionHolds) {
  // If the precondition already holds when the registration transaction
  // double-checks it, the waiter must restart immediately instead of sleeping
  // (Algorithm 4, line 7). Forced deterministically with an always-true
  // predicate: the body's own test was stale, the registration check is not.
  std::uint64_t dummy = 1;
  int calls = 0;
  Atomically(rt_.sys(), [&](Tx& tx) {
    // Allow up to two attempts to reach WaitPred (on HTM the first call only
    // switches to software mode); the deschedule then restarts the body, which
    // must finally commit without ever sleeping.
    if (++calls <= 2) {
      WaitArgs args;
      args.v[0] = reinterpret_cast<TmWord>(&dummy);
      args.v[1] = 1;  // threshold already met
      args.n = 2;
      // Reuse the threshold predicate against a location that already satisfies
      // it: deschedules, double-checks, and restarts without sleeping.
      tx.WaitPred(&CountAtLeastPred, args);
    }
  });
  TxStats s = rt_.AggregateStats();
  EXPECT_GE(s.Get(Counter::kDeschedules), 1u);
  EXPECT_EQ(s.Get(Counter::kSleeps), 0u);
}

TEST_P(CondSyncTest, ManyWaitersBroadcastWake) {
  std::uint64_t flag = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(flag) == 0) {
          tx.Retry();
        }
      });
    });
  }
  AwaitCounter(rt_, Counter::kSleeps, kWaiters);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  for (auto& t : waiters) {
    t.join();
  }
  // One commit satisfied all waiters: effectively a broadcast (§2.4.1).
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), kWaiters);
}

TEST_P(CondSyncTest, PingPongRetry) {
  // Two threads alternate on a turn variable through many sleep/wake cycles.
  constexpr std::uint64_t kRounds = 400;
  std::uint64_t turn = 0;
  auto runner = [&](std::uint64_t me) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(turn) % 2 != me) {
          tx.Retry();
        }
        tx.Store(turn, tx.Load(turn) + 1);
      });
    }
  };
  std::thread a([&] { runner(0); });
  std::thread b([&] { runner(1); });
  a.join();
  b.join();
  EXPECT_EQ(turn, 2 * kRounds);
}

TEST_P(CondSyncTest, LostWakeupStress) {
  // The central race (§2.1): a writer commits while the waiter is registering.
  // Any lost wakeup hangs this test (ctest timeout).
  constexpr int kRounds = 300;
  std::uint64_t flag = 0;
  for (int r = 1; r <= kRounds; ++r) {
    std::thread waiter([&] {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(flag) < static_cast<std::uint64_t>(r)) {
          tx.Retry();
        }
      });
    });
    // No sleep synchronization on purpose: the writer races the registration.
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, static_cast<std::uint64_t>(r)); });
    waiter.join();
  }
  SUCCEED();
}

TEST_P(CondSyncTest, RestartMechanismCompletes) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.RestartNow();
      }
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kExplicitRestarts), 1u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kSleeps), 0u);  // spins, never sleeps
}

TEST_P(CondSyncTest, TmCondVarBasicHandoff) {
  std::uint64_t flag = 0;
  TmCondVar cv(32);
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.CondWait(cv);
      }
    });
  });
  AwaitCounter(rt_, Counter::kCondVarWaits, 1);
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(flag, std::uint64_t{1});
    tx.CondSignal(cv);
  });
  waiter.join();
  EXPECT_EQ(flag, 1u);
}

TEST_P(CondSyncTest, TmCondVarBreaksAtomicity) {
  // The partial update before the wait becomes visible while the waiter sleeps —
  // the precise hazard of Algorithm 3 that the paper's mechanisms avoid.
  std::uint64_t partial = 0;
  std::uint64_t flag = 0;
  TmCondVar cv(32);
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(partial, std::uint64_t{1});
      if (tx.Load(flag) == 0) {
        tx.CondWait(cv);
      }
      tx.Store(partial, std::uint64_t{0});
    });
  });
  AwaitCounter(rt_, Counter::kCondVarWaits, 1);
  std::uint64_t observed =
      Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(partial); });
  EXPECT_EQ(observed, 1u) << "condvar wait must expose the partial update";
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(flag, std::uint64_t{1});
    tx.CondSignal(cv);
  });
  waiter.join();
  EXPECT_EQ(partial, 0u);
}

TEST_P(CondSyncTest, RetryPreservesAtomicityWhereCondVarBreaksIt) {
  // Same shape as TmCondVarBreaksAtomicity, but with Retry: the partial update
  // must never be observable.
  std::uint64_t partial = 0;
  std::uint64_t flag = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(partial, std::uint64_t{1});
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
      tx.Store(partial, std::uint64_t{0});
    });
  });
  std::thread observer([&] {
    // mo: acquire — [harness] observe worker-published state.
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t v =
          Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(partial); });
      if (v != 0) {
        // mo: acq_rel — [harness] cross-thread counter/flag RMW.
        violations.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  // mo: release — [harness] publish state to other harness threads.
  stop.store(true, std::memory_order_release);
  observer.join();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(violations.load(std::memory_order_acquire), 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CondSyncTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           switch (info.param) {
                             case Backend::kEagerStm:
                               return "EagerStm";
                             case Backend::kLazyStm:
                               return "LazyStm";
                             case Backend::kSimHtm:
                               return "SimHtm";
                           }
                           return "Unknown";
                         });

// Retry-Orig runs only on the STM backends (§2.1).
class RetryOrigTest : public ::testing::TestWithParam<Backend> {
 protected:
  RetryOrigTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(RetryOrigTest, WakesOnOverlappingWrite) {
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.RetryOrig();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_EQ(flag, 1u);
}

TEST_P(RetryOrigTest, SilentStoreWakesOrigButNotOurs) {
  // Orec-based wakeups cannot distinguish silent stores: Retry-Orig wakes (and
  // the waiter re-sleeps), demonstrating the imprecision value-based waitsets fix.
  std::uint64_t flag = 0;
  std::atomic<int> attempts{0};
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      attempts.fetch_add(1, std::memory_order_acq_rel);
      if (tx.Load(flag) == 0) {
        tx.RetryOrig();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  // mo: acquire — [harness] observe worker-published state.
  int before = attempts.load(std::memory_order_acquire);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{0}); });  // silent
  // The orec version changed, so Retry-Orig wakes and the body re-runs.
  // mo: acquire — [harness] observe worker-published state.
  for (int i = 0; i < 10000 && attempts.load(std::memory_order_acquire) == before; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_GT(attempts.load(std::memory_order_acquire), before) << "Retry-Orig should wake on a silent store";
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
}

TEST_P(RetryOrigTest, PingPong) {
  constexpr std::uint64_t kRounds = 200;
  std::uint64_t turn = 0;
  auto runner = [&](std::uint64_t me) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      Atomically(rt_.sys(), [&](Tx& tx) {
        if (tx.Load(turn) % 2 != me) {
          tx.RetryOrig();
        }
        tx.Store(turn, tx.Load(turn) + 1);
      });
    }
  };
  std::thread a([&] { runner(0); });
  std::thread b([&] { runner(1); });
  a.join();
  b.join();
  EXPECT_EQ(turn, 2 * kRounds);
}

INSTANTIATE_TEST_SUITE_P(StmBackends, RetryOrigTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kEagerStm ? "EagerStm"
                                                                   : "LazyStm";
                         });

// --- OrElse: composable choice with partial rollback ---

class OrElseTest : public ::testing::TestWithParam<Backend> {
 protected:
  OrElseTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(OrElseTest, FirstBranchWinsWhenItCompletes) {
  TVar<std::uint64_t> x(7);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse([&](Tx& t) { return t.Load(x); },
                     [&](Tx&) -> std::uint64_t { return 999; });
  });
  EXPECT_EQ(got, 7u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kOrElseFallbacks), 0u);
}

TEST_P(OrElseTest, FallsBackWhenFirstBranchRetries) {
  TVar<std::uint64_t> empty_flag(0);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          if (t.Load(empty_flag) == 0) {
            t.Retry();
          }
          return 1;
        },
        [&](Tx&) -> std::uint64_t { return 2; });
  });
  EXPECT_EQ(got, 2u);
  TxStats s = rt_.AggregateStats();
  EXPECT_GE(s.Get(Counter::kOrElseFallbacks), 1u);
  EXPECT_GE(s.Get(Counter::kPartialRollbacks), 1u);
  // The fallback happened inside one transaction: no deschedule, no sleep.
  EXPECT_EQ(s.Get(Counter::kSleeps), 0u);
}

TEST_P(OrElseTest, PartialRollbackUndoesFirstBranchWrites) {
  TVar<std::uint64_t> cell(5);
  TVar<std::uint64_t> gate(0);
  std::uint64_t seen_in_branch2 = 99;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(cell, std::uint64_t{77});  // speculative, must be undone
          if (t.Load(gate) == 0) {
            t.Retry();
          }
        },
        [&](Tx& t) { seen_in_branch2 = t.Load(cell); });
  });
  EXPECT_EQ(seen_in_branch2, 5u) << "branch 2 must see pre-branch-1 state";
  EXPECT_EQ(cell.UnsafeRead(), 5u) << "branch 1's write must not commit";
}

TEST_P(OrElseTest, SecondBranchWritesCommit) {
  TVar<std::uint64_t> a(0);
  TVar<std::uint64_t> b(0);
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(a, std::uint64_t{1});
          t.Retry();
        },
        [&](Tx& t) { t.Store(b, std::uint64_t{2}); });
  });
  EXPECT_EQ(a.UnsafeRead(), 0u);
  EXPECT_EQ(b.UnsafeRead(), 2u);
}

TEST_P(OrElseTest, NestedOrElseCascadesInnermostFirst) {
  TVar<std::uint64_t> never(0);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          return t.OrElse(
              [&](Tx& t2) -> std::uint64_t {
                if (t2.Load(never) == 0) {
                  t2.Retry();  // inner branch 1 fails
                }
                return 1;
              },
              [&](Tx& t2) -> std::uint64_t {
                if (t2.Load(never) == 0) {
                  t2.Retry();  // inner branch 2 fails -> outer alternative
                }
                return 2;
              });
        },
        [&](Tx&) -> std::uint64_t { return 3; });
  });
  EXPECT_EQ(got, 3u);
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kOrElseFallbacks), 2u);
}

TEST_P(OrElseTest, BothBranchesRetryWakesOnEitherReadSet) {
  // The acceptance scenario: both branches retry, so the thread descheds on
  // the *union* of their read sets. A write to either cell must wake it.
  for (int round = 0; round < 2; ++round) {
    Runtime rt(ConfigFor(GetParam()));
    TVar<std::uint64_t> cell_a(0);
    TVar<std::uint64_t> cell_b(0);
    std::uint64_t got = 0;
    std::thread waiter([&] {
      got = Atomically(rt.sys(), [&](Tx& tx) {
        return tx.OrElse(
            [&](Tx& t) -> std::uint64_t {
              std::uint64_t v = t.Load(cell_a);
              if (v == 0) {
                t.Retry();
              }
              return 100 + v;
            },
            [&](Tx& t) -> std::uint64_t {
              std::uint64_t v = t.Load(cell_b);
              if (v == 0) {
                t.Retry();
              }
              return 200 + v;
            });
      });
    });
    AwaitCounter(rt, Counter::kSleeps, 1);
    if (round == 0) {
      // Wake via the FIRST branch's read set.
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell_a, std::uint64_t{1}); });
      waiter.join();
      EXPECT_EQ(got, 101u);
    } else {
      // Wake via the SECOND branch's read set.
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell_b, std::uint64_t{5}); });
      waiter.join();
      EXPECT_EQ(got, 205u);
    }
    EXPECT_GE(rt.AggregateStats().Get(Counter::kWakeups), 1u);
  }
}

TEST_P(OrElseTest, AwaitAndWaitPredAlsoTransferToAlternative) {
  // Every wait style inside an OrElse branch — not just Retry — must fall
  // back to the alternative instead of descheduling the whole transaction.
  TVar<std::uint64_t> cell(0);
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          if (t.Load(cell) == 0) {
            t.Await(cell);  // would sleep forever without the fallback
          }
          return 1;
        },
        [&](Tx&) -> std::uint64_t { return 2; });
  });
  EXPECT_EQ(got, 2u);
  got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse(
        [&](Tx& t) -> std::uint64_t {
          if (t.Load(cell) == 0) {
            WaitArgs args;
            args.v[0] = reinterpret_cast<TmWord>(&cell);
            args.v[1] = 1;
            args.n = 2;
            t.WaitPred(&CountAtLeastPred, args);
          }
          return 1;
        },
        [&](Tx&) -> std::uint64_t { return 3; });
  });
  EXPECT_EQ(got, 3u);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kSleeps), 0u);
}

TEST_P(OrElseTest, ComposesAcrossNestedAtomically) {
  // Subsumption nesting: a Retry raised inside a nested Atomically body
  // propagates to the enclosing OrElse alternative (§1.2 composability).
  TVar<std::uint64_t> empty_flag(0);
  auto blocking_take = [&](Tx& tx) -> std::uint64_t {
    return Atomically(tx.sys(), [&](Tx& t) -> std::uint64_t {
      if (t.Load(empty_flag) == 0) {
        t.Retry();
      }
      return 1;
    });
  };
  std::uint64_t got = Atomically(rt_.sys(), [&](Tx& tx) {
    return tx.OrElse([&](Tx& t) { return blocking_take(t); },
                     [&](Tx&) -> std::uint64_t { return 42; });
  });
  EXPECT_EQ(got, 42u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OrElseTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           switch (info.param) {
                             case Backend::kEagerStm:
                               return "EagerStm";
                             case Backend::kLazyStm:
                               return "LazyStm";
                             case Backend::kSimHtm:
                               return "SimHtm";
                           }
                           return "Unknown";
                         });

// --- Timed waits: RetryFor / AwaitFor / WaitPredFor ---

class TimedWaitTest : public ::testing::TestWithParam<Backend> {
 protected:
  TimedWaitTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(TimedWaitTest, RetryForTimesOutAndLeavesNoRegistryEntry) {
  TVar<std::uint64_t> flag(0);
  bool got = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
    if (tx.Load(flag) == 0) {
      if (tx.RetryFor(std::chrono::milliseconds(30)) == WaitResult::kTimedOut) {
        return false;
      }
    }
    return true;
  });
  EXPECT_FALSE(got);
  TxStats s = rt_.AggregateStats();
  EXPECT_GE(s.Get(Counter::kWaitTimeouts), 1u);
  EXPECT_GE(s.Get(Counter::kSleeps), 1u);
  // The acceptance criterion: the expired waiter must not leak its slot.
  EXPECT_EQ(rt_.sys().waiters().RegisteredCount(), 0);
  // And later writer commits must not pay wake checks for a ghost waiter.
  std::uint64_t checks_before = s.Get(Counter::kWakeChecks);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeChecks), checks_before);
}

TEST_P(TimedWaitTest, RetryForWakesBeforeDeadline) {
  TVar<std::uint64_t> flag(0);
  bool got = false;
  std::thread waiter([&] {
    got = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      if (tx.Load(flag) == 0) {
        if (tx.RetryFor(std::chrono::seconds(30)) == WaitResult::kTimedOut) {
          return false;
        }
      }
      return true;
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_TRUE(got);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 0u);
}

TEST_P(TimedWaitTest, RetryForInfiniteTimeoutEqualsRetry) {
  // kNoTimeout must behave exactly like plain Retry: sleep indefinitely, wake
  // on a relevant write, never produce a timeout.
  TVar<std::uint64_t> flag(0);
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        WaitResult r = tx.RetryFor(kNoTimeout);
        // Unreachable: an untimed retry never returns.
        ADD_FAILURE() << "RetryFor(kNoTimeout) returned "
                      << static_cast<int>(r);
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  TxStats s = rt_.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kWaitTimeouts), 0u);
  EXPECT_GE(s.Get(Counter::kWakeups), 1u);
  EXPECT_GE(s.Get(Counter::kDeschedules), 1u);
}

TEST_P(TimedWaitTest, AwaitForTimesOut) {
  TVar<std::uint64_t> cell(0);
  bool timed_out = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
    if (tx.Load(cell) == 0) {
      return tx.AwaitFor(std::chrono::milliseconds(30), cell) ==
             WaitResult::kTimedOut;
    }
    return false;
  });
  EXPECT_TRUE(timed_out);
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 1u);
  EXPECT_EQ(rt_.sys().waiters().RegisteredCount(), 0);
}

bool FlagSetPred(TmSystem& sys, const WaitArgs& args) {
  const auto* cell = reinterpret_cast<const TVar<std::uint64_t>*>(args.v[0]);
  return sys.Read(cell->word()) != 0;
}

TEST_P(TimedWaitTest, WaitPredForTimesOut) {
  TVar<std::uint64_t> cell(0);
  bool timed_out = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
    if (tx.Load(cell) == 0) {
      WaitArgs args;
      args.v[0] = reinterpret_cast<TmWord>(&cell);
      args.n = 1;
      return tx.WaitPredFor(&FlagSetPred, args, std::chrono::milliseconds(30)) ==
             WaitResult::kTimedOut;
    }
    return false;
  });
  EXPECT_TRUE(timed_out);
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 1u);
  EXPECT_EQ(rt_.sys().waiters().RegisteredCount(), 0);
}

TEST_P(TimedWaitTest, TimeoutRaceWithWakeupDrainsSemaphore) {
  // Hammer the timeout/wakeup race: a waiter with a tiny deadline against a
  // writer committing at the same moment. Whatever interleaving happens, the
  // waiter must terminate (bounded!), leave no registry entry, and a stale
  // semaphore post must never satisfy the next round's sleep spuriously.
  for (int round = 1; round <= 50; ++round) {
    TVar<std::uint64_t> flag(0);
    std::thread waiter([&] {
      (void)Atomically(rt_.sys(), [&](Tx& tx) -> bool {
        if (tx.Load(flag) == 0) {
          if (tx.RetryFor(std::chrono::microseconds(200)) ==
              WaitResult::kTimedOut) {
            return false;
          }
        }
        return true;
      });
    });
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
    waiter.join();
    ASSERT_EQ(rt_.sys().waiters().RegisteredCount(), 0) << "round " << round;
  }
}

TEST_P(TimedWaitTest, DeadlineSpansRestartsNotSleeps) {
  // Two unsatisfying wakeups before the deadline: the bound covers total
  // elapsed time, so the waiter re-sleeps with the remaining budget and
  // eventually reports kTimedOut rather than resetting its clock per sleep.
  TVar<std::uint64_t> target(0);
  TVar<std::uint64_t> noise(0);
  std::atomic<bool> done{false};
  bool got = true;
  std::thread waiter([&] {
    got = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      tx.Load(noise);
      if (tx.Load(target) == 0) {
        if (tx.RetryFor(std::chrono::milliseconds(150)) ==
            WaitResult::kTimedOut) {
          return false;
        }
      }
      return true;
    });
    // mo: release — [harness] publish state to other harness threads.
    done.store(true, std::memory_order_release);
  });
  // Unsatisfying wakeups: noise changes, target stays 0.
  auto start = std::chrono::steady_clock::now();
  std::uint64_t n = 0;
  // mo: acquire — [harness] observe worker-published state.
  while (!done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(20)) {
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(noise, ++n); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  waiter.join();
  EXPECT_FALSE(got) << "waiter should time out despite repeated false wakeups";
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 1u);
}

TEST_P(TimedWaitTest, SequentialTimedWaitsGetIndependentDeadlines) {
  // Two timed waits in sequence: wait for step1 with a short budget, then —
  // after step1 is satisfied — wait for step2 with a generous one. Deadlines
  // are scoped to the individual call, so the second wait starts its own
  // clock. Under the old shared restart-spanning transaction deadline the
  // second wait inherited the first call's (short, mostly spent) budget and
  // timed out long before step2 was published.
  TVar<std::uint64_t> step1(0);
  TVar<std::uint64_t> step2(0);
  std::atomic<int> phase{0};
  bool step2_seen = false;
  std::thread waiter([&] {
    step2_seen = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      if (tx.Load(step1) == 0) {
        // mo: release — [harness] publish state to other harness threads.
        phase.store(1, std::memory_order_release);
        if (tx.AwaitFor(std::chrono::milliseconds(500), step1) ==
            WaitResult::kTimedOut) {
          return false;
        }
      }
      if (tx.Load(step2) == 0) {
        // mo: release — [harness] publish state to other harness threads.
        phase.store(2, std::memory_order_release);
        if (tx.AwaitFor(std::chrono::seconds(30), step2) ==
            WaitResult::kTimedOut) {
          return false;
        }
      }
      return true;
    });
  });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step1, std::uint64_t{1}); });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Publish step2 well after the first call's 500ms budget is gone; the
  // second call's 30s budget has barely started.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step2, std::uint64_t{1}); });
  waiter.join();
  EXPECT_TRUE(step2_seen)
      << "second timed wait inherited the first call's deadline";
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 0u);
}

TEST_P(TimedWaitTest, SameCallSiteSequentialWaitsGetIndependentDeadlines) {
  // The adapter pattern: both waits funnel through ONE RetryFor call site (a
  // shared helper), so the source location alone cannot tell them apart. The
  // wait's identity also folds in the waitset's addresses — the second wait
  // reads a different set and must still get its own budget.
  TVar<std::uint64_t> step1(0);
  TVar<std::uint64_t> step2(0);
  std::atomic<int> phase{0};
  bool ok = false;
  std::thread waiter([&] {
    ok = Atomically(rt_.sys(), [&](Tx& tx) -> bool {
      auto wait_nonzero = [&](TVar<std::uint64_t>& cell,
                              std::chrono::nanoseconds timeout,
                              int ph) -> bool {
        if (tx.Load(cell) != 0) {
          return true;
        }
        // mo: release — [harness] publish state to other harness threads.
        phase.store(ph, std::memory_order_release);
        // One shared call site for every wait in this transaction.
        return tx.RetryFor(timeout) != WaitResult::kTimedOut;
      };
      if (!wait_nonzero(step1, std::chrono::milliseconds(500), 1)) {
        return false;
      }
      if (!wait_nonzero(step2, std::chrono::seconds(30), 2)) {
        return false;
      }
      return true;
    });
  });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step1, std::uint64_t{1}); });
  // mo: acquire — [harness] observe worker-published state.
  while (phase.load(std::memory_order_acquire) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(step2, std::uint64_t{1}); });
  waiter.join();
  EXPECT_TRUE(ok) << "second wait through the shared call site inherited the "
                     "first wait's deadline";
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWaitTimeouts), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TimedWaitTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           switch (info.param) {
                             case Backend::kEagerStm:
                               return "EagerStm";
                             case Backend::kLazyStm:
                               return "LazyStm";
                             case Backend::kSimHtm:
                               return "SimHtm";
                           }
                           return "Unknown";
                         });

// Simulated-HTM specifics.
TEST(SimHtmCondSyncTest, RetryFallsBackToSoftwareMode) {
  Runtime rt(ConfigFor(Backend::kSimHtm));
  std::uint64_t flag = 0;
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  TxStats s = rt.AggregateStats();
  // The hardware attempt aborted explicitly and re-executed serially.
  EXPECT_GE(s.Get(Counter::kHtmExplicitAborts), 1u);
  EXPECT_GE(s.Get(Counter::kHtmFallbacks), 1u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
}

TEST(SimHtmCondSyncTest, NonWaitingTransactionsStayInHardwareMode) {
  Runtime rt(ConfigFor(Backend::kSimHtm));
  std::uint64_t x = 0;
  for (int i = 0; i < 100; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, tx.Load(x) + 1); });
  }
  // No waiter ever existed: writers paid no fallback and no wake checks.
  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kHtmFallbacks), 0u);
  EXPECT_EQ(s.Get(Counter::kWakeChecks), 0u);
}

// Adaptive pre-park spin (deschedule.cc): an untimed findChanges wait of a
// thread whose recent waits were short polls its waitset orecs before it
// registers. Every test first primes the waiter, so no assertion depends on
// how long one particular park took.

std::uint64_t OwnCount(Runtime& rt, Counter c) {
  return rt.sys().Desc().stats.Get(c);
}

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
// Sanitizer builds can slow every futex round trip past the re-arm bound.
// What the spin tests check is what a primed thread does, so there priming
// falls back to arming the flag itself; the normal build checks that short
// waits arm it.
constexpr bool kArmIfPrimingFails = true;
#else
constexpr bool kArmIfPrimingFails = false;
#endif

// Runs on the waiter thread: short waits on `tick`, each answered by a
// responder thread as soon as the waiter is seen asleep, until one park is
// short enough to arm the spin. Returns whether it armed.
bool PrimeSpin(Runtime& rt, TVar<std::uint64_t>& tick) {
  std::atomic<bool> stop{false};
  // Sampled before the first wait, so the responder cannot miss its sleep.
  const std::uint64_t sleeps = rt.AggregateStats().Get(Counter::kSleeps);
  std::thread responder([&, seen = sleeps]() mutable {
    // mo: acquire — [harness] observe the waiter's stop request.
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = rt.AggregateStats().Get(Counter::kSleeps);
      if (now == seen) {
        std::this_thread::yield();
        continue;
      }
      seen = now;
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(tick, tx.Load(tick) + 1); });
    }
  });
  TxDesc& d = rt.sys().Desc();
  for (int i = 0; i < 500 && !d.spin_before_park; ++i) {
    const std::uint64_t t =
        Atomically(rt.sys(), [&](Tx& tx) { return tx.Load(tick); });
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(tick) == t) {
        tx.Retry();
      }
    });
  }
  // mo: release — [harness] publish the stop request to the responder.
  stop.store(true, std::memory_order_release);
  responder.join();
  if (kArmIfPrimingFails) {
    d.spin_before_park = true;
  }
  return d.spin_before_park;
}

// Waits (Retry) until `x` differs from `old`.
void WaitForChange(Runtime& rt, TVar<std::uint64_t>& x, std::uint64_t old) {
  Atomically(rt.sys(), [&](Tx& tx) {
    if (tx.Load(x) == old) {
      tx.Retry();
    }
  });
}

class SpinPolicyTest : public ::testing::TestWithParam<Backend> {
 protected:
  SpinPolicyTest() : rt_(MatrixConfig(GetParam())) {}

  std::uint64_t Own(Counter c) { return OwnCount(rt_, c); }
  bool Prime() { return PrimeSpin(rt_, tick_); }

  Runtime rt_;
  TVar<std::uint64_t> tick_{0};
};

// A writer commits after the waiter's logging read and before its Retry: the
// spin sees the new value at once, and the waiter restarts without
// indexing itself or sleeping. On sim-HTM the logging pass runs serially and
// excludes every hardware commit, so the writer queues behind the serial
// token and commits right after the waiter's rollback releases it; a few
// rounds absorb a writer descheduled past the spin budget.
TEST_P(SpinPolicyTest, CommitBeforeRetryRestartsWithoutRegistering) {
  // The writer commits while the waiter is still inside its transaction;
  // commit-time quiescence would wait for that transaction to end.
  TmConfig cfg = MatrixConfig(GetParam());
  cfg.privatization_safety = false;
  Runtime rt(cfg);
  auto own = [&](Counter c) { return OwnCount(rt, c); };
  const bool sim_htm = GetParam() == Backend::kSimHtm;
  const int rounds = sim_htm ? 20 : 1;
  int spin_rounds = 0;
  for (int r = 0; r < rounds && spin_rounds == 0; ++r) {
    TVar<std::uint64_t> x(0);
    std::binary_semaphore logged{0};
    std::binary_semaphore committed{0};
    std::thread waiter([&] {
      EXPECT_TRUE(PrimeSpin(rt, tick_));
      const std::uint64_t spins = own(Counter::kSpinWakeups);
      const std::uint64_t sleeps = own(Counter::kSleeps);
      const std::uint64_t indexed = own(Counter::kIndexedDeschedules);
      const std::uint64_t waits = rt.sys().Desc().obs.wait_duration.Count();
      bool paused = false;
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(x) == 0) {
          if (rt.sys().Desc().retry_logging && !paused) {
            paused = true;
            logged.release();
            if (sim_htm) {
              // Let the writer reach the serial-token wait.
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            } else {
              committed.acquire();
            }
          }
          tx.Retry();
        }
      });
      if (own(Counter::kSpinWakeups) == spins + 1) {
        ++spin_rounds;
        EXPECT_EQ(own(Counter::kSleeps), sleeps);
        EXPECT_EQ(own(Counter::kIndexedDeschedules), indexed);
        // A spin-satisfied wait is still a wait in the duration histogram.
        EXPECT_EQ(rt.sys().Desc().obs.wait_duration.Count(), waits + 1);
      } else {
        EXPECT_TRUE(sim_htm) << "the spin missed a commit that preceded it";
      }
    });
    logged.acquire();
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
    committed.release();
    waiter.join();
  }
  EXPECT_EQ(spin_rounds, 1);
  JsonWriter w;
  rt.sys().SnapshotMetrics(w);
  const std::string doc = w.str();
  const std::string condsync = doc.substr(doc.find("\"condsync\":"));
  EXPECT_NE(condsync.find("\"spin_wakeups\":" +
                          std::to_string(rt.AggregateStats().Get(
                              Counter::kSpinWakeups))),
            std::string::npos);
  EXPECT_NE(condsync.find("\"spin_misses\":"), std::string::npos);
}

// Timed waits never spin, however short the thread's recent waits were.
TEST_P(SpinPolicyTest, PrimedRetryForNeverSpins) {
  TVar<std::uint64_t> x(0);
  std::thread waiter([&] {
    EXPECT_TRUE(Prime());
    const std::uint64_t spins = Own(Counter::kSpinWakeups);
    const std::uint64_t misses = Own(Counter::kSpinMisses);
    const std::uint64_t timeouts = Own(Counter::kWaitTimeouts);
    const bool got = Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(x) == 0) {
        return tx.RetryFor(std::chrono::milliseconds(2)) !=
               WaitResult::kTimedOut;
      }
      return true;
    });
    EXPECT_FALSE(got);
    EXPECT_EQ(Own(Counter::kWaitTimeouts), timeouts + 1);
    EXPECT_EQ(Own(Counter::kSpinWakeups), spins);
    EXPECT_EQ(Own(Counter::kSpinMisses), misses);
  });
  waiter.join();
}

// A primed wait that outlasts the budget spins once, misses and parks. That
// park lasts 5 ms, far past the re-arm bound, so the next wait parks at once.
TEST_P(SpinPolicyTest, LongParkDisarmsTheSpin) {
  TVar<std::uint64_t> x(0);
  std::binary_semaphore primed{0};
  std::binary_semaphore go{0};
  std::binary_semaphore first_done{0};
  std::thread waiter([&] {
    EXPECT_TRUE(Prime());
    primed.release();
    go.acquire();
    const std::uint64_t misses = Own(Counter::kSpinMisses);
    WaitForChange(rt_, x, 0);
    EXPECT_EQ(Own(Counter::kSpinMisses), misses + 1);
    EXPECT_FALSE(rt_.sys().Desc().spin_before_park);
    first_done.release();
    const std::uint64_t spins = Own(Counter::kSpinWakeups);
    WaitForChange(rt_, x, 1);
    EXPECT_EQ(Own(Counter::kSpinMisses), misses + 1);
    EXPECT_EQ(Own(Counter::kSpinWakeups), spins);
  });
  primed.acquire();
  const std::uint64_t sleeps = rt_.AggregateStats().Get(Counter::kSleeps);
  go.release();
  AwaitCounter(rt_, Counter::kSleeps, sleeps + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
  first_done.acquire();
  AwaitCounter(rt_, Counter::kSleeps, sleeps + 2);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{2}); });
  waiter.join();
}

// Eager STM's rollback restores each word the attempt wrote to its logged
// pre-transaction value, and republishes the word's orec at a bumped version.
// That is the waiter's own doing, not a change: were it taken for one, a
// waiter that writes its waitset before Retry would restart forever.
TEST_P(SpinPolicyTest, OwnRollbackIsNotAChange) {
  TVar<std::uint64_t> x(0);
  std::binary_semaphore primed{0};
  std::binary_semaphore go{0};
  std::thread waiter([&] {
    EXPECT_TRUE(Prime());
    primed.release();
    go.acquire();
    const std::uint64_t spins = Own(Counter::kSpinWakeups);
    const std::uint64_t misses = Own(Counter::kSpinMisses);
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Store(x, tx.Load(x));
      if (tx.Load(x) == 0) {
        tx.Retry();
      }
    });
    EXPECT_EQ(Own(Counter::kSpinWakeups), spins);
    EXPECT_EQ(Own(Counter::kSpinMisses), misses + 1);
  });
  primed.acquire();
  const std::uint64_t sleeps = rt_.AggregateStats().Get(Counter::kSleeps);
  go.release();
  AwaitCounter(rt_, Counter::kSleeps, sleeps + 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
  waiter.join();
}

// Runs `wait` on a primed waiter thread while this thread writes x = 1 only
// once the waiter has parked, so the wait's spin always misses.
template <typename Wait>
void RunMissedSpinWait(Runtime& rt, TVar<std::uint64_t>& tick,
                       TVar<std::uint64_t>& x, Wait wait) {
  std::binary_semaphore primed{0};
  std::binary_semaphore go{0};
  std::thread waiter([&] {
    EXPECT_TRUE(PrimeSpin(rt, tick));
    primed.release();
    go.acquire();
    wait();
  });
  primed.acquire();
  const std::uint64_t sleeps = rt.AggregateStats().Get(Counter::kSleeps);
  go.release();
  AwaitCounter(rt, Counter::kSleeps, sleeps + 1);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
  waiter.join();
}

// The wait runs from the restart loop: by the time its spin starts, the
// body's frames are unwound and their RAII guards destroyed.
TEST_P(SpinPolicyTest, BodyUnwindsBeforeTheSpin) {
  TVar<std::uint64_t> x(0);
  RunMissedSpinWait(rt_, tick_, x, [&] {
    struct Seen {
      bool wait_pending;
      std::uint64_t spins, misses, sleeps;
    };
    std::vector<Seen> seen;
    struct Guard {
      std::function<void()> on_exit;
      ~Guard() { on_exit(); }
    };
    const std::uint64_t spins = Own(Counter::kSpinWakeups);
    const std::uint64_t misses = Own(Counter::kSpinMisses);
    const std::uint64_t sleeps = Own(Counter::kSleeps);
    Atomically(rt_.sys(), [&](Tx& tx) {
      Guard guard{[&] {
        seen.push_back({rt_.sys().Desc().pending_wait.fn != nullptr,
                        Own(Counter::kSpinWakeups), Own(Counter::kSpinMisses),
                        Own(Counter::kSleeps)});
      }};
      if (tx.Load(x) == 0) {
        tx.Retry();
      }
    });
    EXPECT_EQ(Own(Counter::kSpinMisses), misses + 1);
    EXPECT_EQ(Own(Counter::kSleeps), sleeps + 1);
    int waited = 0;
    for (const Seen& s : seen) {
      if (s.wait_pending) {
        // The attempt that asked for the wait: its guard ran before the
        // spin did anything.
        ++waited;
        EXPECT_EQ(s.spins, spins);
        EXPECT_EQ(s.misses, misses);
        EXPECT_EQ(s.sleeps, sleeps);
      }
    }
    EXPECT_EQ(waited, 1);
  });
}

// A spin that misses goes straight on to registration and park: the body
// runs once with retry logging (the attempt that waits) and once more only
// after the wakeup.
TEST_P(SpinPolicyTest, SpinMissRegistersWithoutReexecutingTheBody) {
  TVar<std::uint64_t> x(0);
  RunMissedSpinWait(rt_, tick_, x, [&] {
    const std::uint64_t spins = Own(Counter::kSpinWakeups);
    const std::uint64_t misses = Own(Counter::kSpinMisses);
    const std::uint64_t sleeps = Own(Counter::kSleeps);
    const std::uint64_t indexed = Own(Counter::kIndexedDeschedules);
    const std::uint64_t wakeups = rt_.AggregateStats().Get(Counter::kWakeups);
    int logged_retries = 0;
    int after_wakeup = 0;
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(x) == 0) {
        if (rt_.sys().Desc().retry_logging) {
          ++logged_retries;
        }
        tx.Retry();
      }
      ++after_wakeup;
    });
    EXPECT_EQ(logged_retries, 1);
    EXPECT_EQ(after_wakeup, 1);
    EXPECT_EQ(Own(Counter::kSpinWakeups), spins);
    EXPECT_EQ(Own(Counter::kSpinMisses), misses + 1);
    EXPECT_EQ(Own(Counter::kIndexedDeschedules), indexed + 1);
    EXPECT_EQ(Own(Counter::kSleeps), sleeps + 1);
    EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), wakeups + 1);
  });
}

// The spin compares values, not orec versions. A writer that keeps
// rewriting the waited word with the value it already holds bumps its orec
// but changes nothing, so the primed waiter's spin runs out and parks, and
// only the later real change wakes it. The rewrites stop after 2 s at most,
// so a spin that took them for changes fails the checks instead of hanging.
TEST_P(SpinPolicyTest, SameValueCommitDoesNotEndTheSpin) {
  TVar<std::uint64_t> x(0);
  std::binary_semaphore primed{0};
  std::binary_semaphore go{0};
  std::thread waiter([&] {
    EXPECT_TRUE(Prime());
    primed.release();
    go.acquire();
    const std::uint64_t spins = Own(Counter::kSpinWakeups);
    const std::uint64_t misses = Own(Counter::kSpinMisses);
    const std::uint64_t sleeps = Own(Counter::kSleeps);
    WaitForChange(rt_, x, 0);
    EXPECT_EQ(Own(Counter::kSpinWakeups), spins);
    EXPECT_EQ(Own(Counter::kSpinMisses), misses + 1);
    EXPECT_EQ(Own(Counter::kSleeps), sleeps + 1);
  });
  primed.acquire();
  const std::uint64_t sleeps = rt_.AggregateStats().Get(Counter::kSleeps);
  go.release();
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint64_t rewrites = 0;
  while (rt_.AggregateStats().Get(Counter::kSleeps) == sleeps &&
         std::chrono::steady_clock::now() < give_up) {
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{0}); });
    ++rewrites;
  }
  EXPECT_GT(rewrites, 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
  waiter.join();
}

// A transaction that waited through Retry leaves retry logging on for the
// thread's next transaction, whose Retry then deschedules without the
// logging restart. A transaction that commits without waiting clears it.
// Sim-HTM hardware attempts never log; their Retry switches to software mode
// with logging on, which is no logging restart either.
TEST_P(SpinPolicyTest, WaitCarriesRetryLoggingIntoTheNextTransaction) {
  TVar<std::uint64_t> x(0);
  const std::uint64_t sleeps = rt_.AggregateStats().Get(Counter::kSleeps);
  std::thread waiter([&] {
    TxDesc& d = rt_.sys().Desc();
    WaitForChange(rt_, x, 0);
    EXPECT_TRUE(d.retry_logging);
    const std::uint64_t restarts = Own(Counter::kRetryRestarts);
    int body_runs = 0;
    bool first_attempt_logged = false;
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (body_runs++ == 0) {
        first_attempt_logged = d.retry_logging;
      }
      if (tx.Load(x) == 1) {
        tx.Retry();
      }
    });
    EXPECT_EQ(Own(Counter::kRetryRestarts), restarts);
    EXPECT_EQ(first_attempt_logged, GetParam() != Backend::kSimHtm);
    EXPECT_TRUE(d.retry_logging);
    Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(x); });
    EXPECT_FALSE(d.retry_logging);
  });
  AwaitCounter(rt_, Counter::kSleeps, sleeps + 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
  AwaitCounter(rt_, Counter::kSleeps, sleeps + 2);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{2}); });
  waiter.join();
}

// A thread that never waits never turns retry logging on: its reads append
// nothing to the waitset, commit after commit.
TEST_P(SpinPolicyTest, ThreadThatNeverWaitsNeverLogs) {
  TVar<std::uint64_t> x(1);
  TVar<std::uint64_t> y(0);
  std::thread t([&] {
    TxDesc& d = rt_.sys().Desc();
    for (int i = 0; i < 3; ++i) {
      Atomically(rt_.sys(), [&](Tx& tx) {
        EXPECT_FALSE(d.retry_logging);
        tx.Store(y, tx.Load(x) + tx.Load(y));
        EXPECT_TRUE(d.waitset.Empty());
      });
      EXPECT_FALSE(d.retry_logging);
      EXPECT_TRUE(d.waitset.Empty());
    }
  });
  t.join();
  EXPECT_EQ(Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(y); }), 3u);
}

// Capacity-1 ping-pong, 2 producers and 2 consumers: every item arrives
// exactly once, whether its consumer caught it spinning or parked. On sim-HTM
// a producer that waited commits its Put in serial mode, past every orec.
TEST_P(SpinPolicyTest, PingPongDeliversEveryItem) {
  constexpr int kSide = 2;
  constexpr std::uint64_t kItems = 3000;  // per producer
  BoundedBuffer buf(&rt_, Mechanism::kRetry, 1);
  std::uint64_t sum[kSide] = {};
  std::uint64_t count[kSide] = {};
  std::vector<std::thread> threads;
  for (int p = 0; p < kSide; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 1; i <= kItems; ++i) {
        buf.Produce(static_cast<std::uint64_t>(p) * kItems + i);
      }
    });
  }
  for (int c = 0; c < kSide; ++c) {
    threads.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        sum[c] += buf.Consume();
        ++count[c];
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const std::uint64_t n = kSide * kItems;
  EXPECT_EQ(count[0] + count[1], n);
  EXPECT_EQ(sum[0] + sum[1], n * (n + 1) / 2);
  EXPECT_EQ(rt_.sys().waiters().RegisteredCount(), 0);
  if (GetParam() == Backend::kSimHtm) {
    EXPECT_GT(rt_.AggregateStats().Get(Counter::kHtmFallbacks), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SpinPolicyTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           switch (info.param) {
                             case Backend::kEagerStm:
                               return "EagerStm";
                             case Backend::kLazyStm:
                               return "LazyStm";
                             case Backend::kSimHtm:
                               return "SimHtm";
                           }
                           return "Unknown";
                         });

// Sim-HTM serial-mode writers bump no orec, but the spin compares values, so
// a serial writer's commit satisfies it. The writer queues behind the
// waiter's serial logging pass; its two-line write overflows the one-line
// write capacity, so it commits serially while the waiter spins. A round
// whose writer is descheduled past the spin budget completes the wait
// through registration instead; a few rounds absorb that.
TEST(SimHtmCondSyncTest, SerialWriterCompletesSpinningWaitThroughRegistration) {
  TmConfig cfg = MatrixConfig(Backend::kSimHtm);
  cfg.htm_write_capacity_lines = 1;
  Runtime rt(cfg);
  struct alignas(64) Line {
    TVar<std::uint64_t> v{0};
  };
  int spin_rounds = 0;
  for (int r = 0; r < 20 && spin_rounds == 0; ++r) {
    Line tick, x, y;
    std::binary_semaphore logged{0};
    bool completed = false;
    std::thread waiter([&] {
      EXPECT_TRUE(PrimeSpin(rt, tick.v));
      const std::uint64_t spins = OwnCount(rt, Counter::kSpinWakeups);
      const std::uint64_t misses = OwnCount(rt, Counter::kSpinMisses);
      const std::uint64_t indexed = OwnCount(rt, Counter::kIndexedDeschedules);
      bool paused = false;
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(x.v) == 0) {
          if (rt.sys().Desc().retry_logging && !paused) {
            paused = true;
            logged.release();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          tx.Retry();
        }
      });
      completed = true;
      if (OwnCount(rt, Counter::kSpinWakeups) == spins + 1) {
        ++spin_rounds;
        EXPECT_EQ(OwnCount(rt, Counter::kSpinMisses), misses);
        EXPECT_EQ(OwnCount(rt, Counter::kIndexedDeschedules), indexed);
      } else {
        EXPECT_EQ(OwnCount(rt, Counter::kSpinMisses), misses + 1);
        EXPECT_EQ(OwnCount(rt, Counter::kIndexedDeschedules), indexed + 1);
      }
    });
    logged.acquire();
    const std::uint64_t serial = rt.AggregateStats().Get(Counter::kHtmFallbacks);
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(x.v, std::uint64_t{1});
      tx.Store(y.v, std::uint64_t{1});
    });
    waiter.join();
    EXPECT_TRUE(completed);
    EXPECT_GT(rt.AggregateStats().Get(Counter::kHtmFallbacks), serial);
  }
  EXPECT_EQ(spin_rounds, 1);
}

}  // namespace
}  // namespace tcs
