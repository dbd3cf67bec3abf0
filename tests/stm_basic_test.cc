// Single-threaded semantics of the three backends: visibility, rollback,
// read-own-writes, sub-word TVars, transactional allocation, flat nesting, and
// return values. Parameterized over all backends (TEST_P).
#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/core/tvar.h"

namespace tcs {
namespace {

class StmBasicTest : public ::testing::TestWithParam<Backend> {
 protected:
  StmBasicTest() : rt_(MakeConfig()) {}

  TmConfig MakeConfig() {
    TmConfig cfg;
    cfg.backend = GetParam();
    cfg.orec_table_log2 = 12;
    cfg.max_threads = 8;
    return cfg;
  }

  Runtime rt_;
};

TEST_P(StmBasicTest, CommitMakesWritesVisible) {
  std::uint64_t x = 0;
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{7}); });
  EXPECT_EQ(x, 7u);
}

TEST_P(StmBasicTest, ReadReturnsCommittedValue) {
  std::uint64_t x = 13;
  std::uint64_t got =
      Atomically(rt_.sys(), [&](Tx& tx) -> std::uint64_t { return tx.Load(x); });
  EXPECT_EQ(got, 13u);
}

TEST_P(StmBasicTest, ReadOwnWriteReturnsSpeculativeValue) {
  std::uint64_t x = 1;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(x, std::uint64_t{2});
    EXPECT_EQ(tx.Load(x), 2u);
    tx.Store(x, std::uint64_t{3});
    EXPECT_EQ(tx.Load(x), 3u);
  });
  EXPECT_EQ(x, 3u);
}

TEST_P(StmBasicTest, RestartRollsBackAllEffects) {
  std::uint64_t x = 0;
  std::uint64_t y = 100;
  bool restarted = false;
  Atomically(rt_.sys(), [&](Tx& tx) {
    // On the first attempt, observe clean state, dirty it, then restart;
    // the second attempt must see the original values.
    EXPECT_EQ(tx.Load(x), 0u);
    EXPECT_EQ(tx.Load(y), 100u);
    tx.Store(x, std::uint64_t{55});
    tx.Store(y, std::uint64_t{66});
    if (!restarted) {
      restarted = true;
      tx.RestartNow();
    }
    tx.Store(x, std::uint64_t{1});
  });
  EXPECT_TRUE(restarted);
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(y, 66u);
}

TEST_P(StmBasicTest, SubWordTVarsKeepNeighbors) {
  // Each sub-word TVar owns a whole word, so writing one never touches the
  // bytes of another (the raw shim only takes whole words).
  TVar<std::uint8_t> a(1);
  TVar<std::uint8_t> b(2);
  TVar<std::uint16_t> c(3);
  TVar<std::uint32_t> d(4);
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(a, std::uint8_t{10});
    tx.Store(c, std::uint16_t{30});
    EXPECT_EQ(tx.Load(a), 10);
    EXPECT_EQ(tx.Load(b), 2);
    EXPECT_EQ(tx.Load(c), 30);
    EXPECT_EQ(tx.Load(d), 4u);
  });
  EXPECT_EQ(a.UnsafeRead(), 10);
  EXPECT_EQ(b.UnsafeRead(), 2);
  EXPECT_EQ(c.UnsafeRead(), 30);
  EXPECT_EQ(d.UnsafeRead(), 4u);
}

TEST_P(StmBasicTest, BoolAndPointerFields) {
  TVar<bool> flag(false);
  std::uint64_t target = 5;
  std::uint64_t* ptr = nullptr;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(flag, true);
    tx.Store(ptr, &target);
  });
  EXPECT_TRUE(flag.UnsafeRead());
  ASSERT_EQ(ptr, &target);
}

TEST_P(StmBasicTest, SubWordRollbackRestoresNeighbors) {
  TVar<std::uint32_t> pair[2] = {TVar<std::uint32_t>(111),
                                 TVar<std::uint32_t>(222)};
  bool restarted = false;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(pair[0], std::uint32_t{999});
    if (!restarted) {
      restarted = true;
      tx.RestartNow();
    }
  });
  EXPECT_EQ(pair[0].UnsafeRead(), 999u);
  EXPECT_EQ(pair[1].UnsafeRead(), 222u);
}

TEST_P(StmBasicTest, FlatNestingRunsInnerInline) {
  std::uint64_t x = 0;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(x, std::uint64_t{1});
    Atomically(rt_.sys(), [&](Tx& inner) {
      EXPECT_EQ(inner.Load(x), 1u);  // inner sees outer's speculative state
      inner.Store(x, std::uint64_t{2});
    });
    EXPECT_EQ(tx.Load(x), 2u);
  });
  EXPECT_EQ(x, 2u);
}

TEST_P(StmBasicTest, NestedRestartUnrollsOutermost) {
  std::uint64_t x = 0;
  bool restarted = false;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.Store(x, std::uint64_t{10});
    Atomically(rt_.sys(), [&](Tx& inner) {
      if (!restarted) {
        restarted = true;
        inner.RestartNow();  // must unroll the outer write too
      }
      EXPECT_EQ(inner.Load(x), 10u);
    });
  });
  EXPECT_TRUE(restarted);
  EXPECT_EQ(x, 10u);
}

TEST_P(StmBasicTest, AtomicallyReturnsValue) {
  std::uint64_t x = 21;
  auto doubled = Atomically(rt_.sys(), [&](Tx& tx) { return tx.Load(x) * 2; });
  EXPECT_EQ(doubled, 42u);
}

TEST_P(StmBasicTest, TxAllocSurvivesCommit) {
  std::uint64_t* cell = nullptr;
  Atomically(rt_.sys(), [&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(tx.AllocBytes(sizeof(std::uint64_t)));
    tx.Store(*p, std::uint64_t{77});
    cell = p;  // capture for post-commit inspection
  });
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(*cell, 77u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.FreeBytes(cell); });
}

TEST_P(StmBasicTest, TxAllocUndoneOnRestart) {
  // The restarted attempt's allocation must be reclaimed; the committed attempt's
  // allocation survives. (ASAN build verifies the reclaim.)
  std::uint64_t* cell = nullptr;
  bool restarted = false;
  Atomically(rt_.sys(), [&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(tx.AllocBytes(sizeof(std::uint64_t)));
    tx.Store(*p, std::uint64_t{1});
    if (!restarted) {
      restarted = true;
      tx.RestartNow();
    }
    cell = p;
  });
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(*cell, 1u);
  Atomically(rt_.sys(), [&](Tx& tx) { tx.FreeBytes(cell); });
}

TEST_P(StmBasicTest, FreeIsDeferredUntilCommit) {
  auto* p = static_cast<std::uint64_t*>(std::malloc(sizeof(std::uint64_t)));
  *p = 5;
  bool restarted = false;
  Atomically(rt_.sys(), [&](Tx& tx) {
    tx.FreeBytes(p);
    if (!restarted) {
      restarted = true;
      tx.RestartNow();  // free must NOT have happened
    }
    // p is still valid here because the free only executes at commit.
    EXPECT_EQ(tx.Load(*p), 5u);
  });
}

TEST_P(StmBasicTest, ManySequentialTransactions) {
  std::uint64_t x = 0;
  for (int i = 0; i < 1000; ++i) {
    Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, tx.Load(x) + 1); });
  }
  EXPECT_EQ(x, 1000u);
}

TEST_P(StmBasicTest, LargeWriteSetCommits) {
  // Exceeds the simulated HTM's write capacity: must fall back and still commit.
  std::vector<std::uint64_t> data(100000, 0);
  Atomically(rt_.sys(), [&](Tx& tx) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      tx.Store(data[i], static_cast<std::uint64_t>(i));
    }
  });
  for (std::size_t i = 0; i < data.size(); i += 1017) {
    EXPECT_EQ(data[i], i);
  }
  if (GetParam() == Backend::kSimHtm) {
    TxStats s = rt_.AggregateStats();
    EXPECT_GE(s.Get(Counter::kHtmFallbacks), 1u);
    EXPECT_GE(s.Get(Counter::kHtmCapacityAborts), 1u);
  }
}

TEST_P(StmBasicTest, StatsCountCommits) {
  rt_.ResetStats();
  std::uint64_t x = 0;
  Atomically(rt_.sys(), [&](Tx& tx) { tx.Store(x, std::uint64_t{1}); });
  Atomically(rt_.sys(), [&](Tx& tx) { (void)tx.Load(x); });
  TxStats s = rt_.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kCommits), 1u);
  EXPECT_EQ(s.Get(Counter::kReadOnlyCommits), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StmBasicTest,
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
