// TVar<T> typed-cell coverage: multi-word values, alignment, padding
// determinism, parity with the raw word-granularity API, and multi-word
// atomicity (no torn reads) plus Await/Retry wakeups on multi-word cells —
// across all three TM backends.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/core/tvar.h"

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

void AwaitCounter(Runtime& rt, Counter c, std::uint64_t target) {
  for (int i = 0; i < 100000; ++i) {
    if (rt.AggregateStats().Get(c) >= target) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "counter " << CounterName(c) << " never reached " << target;
}

struct Triple {
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
  bool operator==(const Triple&) const = default;
};
static_assert(sizeof(Triple) == 24);
static_assert(TVar<Triple>::kWords == 3);

struct Odd {
  std::uint64_t x;
  std::uint32_t y;
  bool operator==(const Odd&) const = default;
};
static_assert(TVar<Odd>::kWords == 2);

struct alignas(32) OverAligned {
  std::uint64_t v[4];
};
static_assert(TVar<OverAligned>::kWords == 4);

class TVarTest : public ::testing::TestWithParam<Backend> {
 protected:
  TVarTest() : rt_(ConfigFor(GetParam())) {}
  Runtime rt_;
};

TEST_P(TVarTest, MultiWordRoundTrip) {
  TVar<Triple> cell(Triple{1, 2, 3});
  EXPECT_EQ(cell.UnsafeRead(), (Triple{1, 2, 3}));
  Triple got = Atomically(rt_.sys(), [&](Tx& tx) {
    Triple t = tx.Load(cell);
    t.a += 10;
    t.c += 30;
    tx.Store(cell, t);
    return tx.Load(cell);  // read-own-write across all words
  });
  EXPECT_EQ(got, (Triple{11, 2, 33}));
  EXPECT_EQ(cell.UnsafeRead(), (Triple{11, 2, 33}));
}

TEST_P(TVarTest, OddSizePaddingIsDeterministic) {
  TVar<Odd> cell(Odd{7, 9});
  // The tail word's padding bytes must be zero so value-based waitset
  // comparisons on the final word never see garbage.
  EXPECT_EQ(*cell.word(1) >> 32, 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(cell, Odd{8, 10}); });
  EXPECT_EQ(cell.UnsafeRead(), (Odd{8, 10}));
  EXPECT_EQ(*cell.word(1) >> 32, 0u);
}

TEST_P(TVarTest, StorageIsWordAndTypeAligned) {
  TVar<Odd> small;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.word(0)) % sizeof(TmWord), 0u);
  TVar<OverAligned> big;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.word(0)) % 32, 0u);
}

TEST_P(TVarTest, SubWordTVarsDoNotShareWords) {
  // A sub-word T in a TVar occupies its own full word, so neighboring cells
  // never clobber each other (the raw API takes whole words only).
  struct {
    TVar<std::uint32_t> lo{41};
    TVar<std::uint32_t> hi{77};
  } packed;
  EXPECT_NE(packed.lo.word(0), packed.hi.word(0));
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(packed.lo, tx.Load(packed.lo) + 1);
  });
  EXPECT_EQ(packed.lo.UnsafeRead(), 42u);
  EXPECT_EQ(packed.hi.UnsafeRead(), 77u);
}

TEST_P(TVarTest, NoTornMultiWordReads) {
  // A writer flips the cell between two self-consistent patterns; readers must
  // never observe a mix — the multi-word load is one atomic unit.
  TVar<Triple> cell(Triple{0, 0, 0});
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 2000; ++i) {
      Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(cell, Triple{i, i, i}); });
    }
    // mo: release — [harness] publish state to other harness threads.
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    // mo: acquire — [harness] observe worker-published state.
    while (!stop.load(std::memory_order_acquire)) {
      Triple t = Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(cell); });
      if (t.a != t.b || t.b != t.c) {
        // mo: acq_rel — [harness] cross-thread counter/flag RMW.
        torn.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });
  writer.join();
  reader.join();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(torn.load(std::memory_order_acquire), 0);
  EXPECT_EQ(cell.UnsafeRead(), (Triple{2000, 2000, 2000}));
}

TEST_P(TVarTest, RetryWakesOnMultiWordChange) {
  // The waiter's read set spans all three words; a write that changes only the
  // last field must still wake it.
  TVar<Triple> cell(Triple{1, 2, 3});
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(cell).c == 3) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) {
    Triple t = tx.Load(cell);
    t.c = 4;
    tx.Store(cell, t);
  });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(TVarTest, AwaitCoversEveryBackingWord) {
  TVar<Triple> cell(Triple{1, 2, 3});
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      if (tx.Load(cell).b == 2) {
        tx.Await(cell);  // registers all kWords addresses
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) {
    Triple t = tx.Load(cell);
    t.b = 9;  // middle word only
    tx.Store(cell, t);
  });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(TVarTest, SilentMultiWordStoreDoesNotWake) {
  // Re-storing an equal value writes identical words (padding zeroed), so a
  // Retry waiter must check but not wake — TVar preserves the value-based
  // waitset's silent-store immunity.
  TVar<Odd> cell(Odd{5, 6});
  TVar<std::uint64_t> flag(0);
  std::thread waiter([&] {
    Atomically(rt_.sys(), [&](Tx& tx) {
      tx.Load(cell);
      if (tx.Load(flag) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt_, Counter::kSleeps, 1);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(cell, Odd{5, 6}); });  // silent
  AwaitCounter(rt_, Counter::kWakeChecks, 1);
  EXPECT_EQ(rt_.AggregateStats().Get(Counter::kWakeups), 0u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(flag, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt_.AggregateStats().Get(Counter::kWakeups), 1u);
}

TEST_P(TVarTest, ConcurrentCountersOnTypedCells) {
  TVar<std::uint64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Atomically(rt_.sys(),
                   [&](Tx& tx) { tx.Store(counter, tx.Load(counter) + 1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.UnsafeRead(), kThreads * kPerThread);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TVarTest,
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

}  // namespace
}  // namespace tcs
