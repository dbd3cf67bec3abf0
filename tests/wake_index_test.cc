// Tests for the sharded wakeup index (src/condsync/wake_index.h): unit-level
// shard bookkeeping (parameterized over shard counts 1..1024 — the shard set
// is a multi-word bitmap, not one word), targeted-wake correctness across all
// three backends at 64 and 1024 shards, no lost wakeups with many disjoint
// waiters, leak-freedom under concurrent register/deregister/timeout churn,
// the empty-waitset global fallback, waitset pruning, the OrElse
// partial-rollback orec release, and the counting gate ahead of the shard
// scan (WakeGateTest). ManyWaitersChurn doubles as the TSan run of
// the many-waiters ablation (CI runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/cpu.h"
#include "src/condsync/waiter_registry.h"
#include "src/condsync/wake_index.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/core/tvar.h"
#include "src/tm/orec_table.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace tcs {
namespace {

TmConfig ConfigFor(Backend b, bool targeted = true, int shards = 0) {
  TmConfig cfg;
  cfg.backend = b;
  cfg.orec_table_log2 = 12;
  cfg.max_threads = 96;
  cfg.targeted_wakeup = targeted;
  if (shards > 0) {
    cfg.wake_index_shards = shards;
  }
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

// --- unit tests over the bare index ---

TEST(WakeIndexUnitTest, EmptyIndexYieldsNoCandidates) {
  WakeIndex idx(64, 64);
  Orec o;
  const Orec* orecs[] = {&o};
  int visits = 0;
  idx.ForEachCandidate(orecs, 1, [&](int) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
  EXPECT_TRUE(idx.Empty());
}

TEST(WakeIndexUnitTest, IndexedWaiterIsCandidateOnlyForItsShards) {
  WakeIndex idx(128, 64);
  // Find two orecs in different shards.
  std::vector<Orec> orecs(256);
  const Orec* a = &orecs[0];
  const Orec* b = nullptr;
  for (std::size_t i = 1; i < orecs.size(); ++i) {
    if (idx.ShardOf(&orecs[i]) != idx.ShardOf(a)) {
      b = &orecs[i];
      break;
    }
  }
  ASSERT_NE(b, nullptr) << "256 orecs all hashed to one of 64 shards";

  const Orec* reg[] = {a};
  idx.AddIndexed(7, reg, 1);
  EXPECT_TRUE(idx.HasEntries(7));
  EXPECT_FALSE(idx.IsGlobal(7));
  EXPECT_EQ(idx.ShardSetPopulation(7), 1);
  EXPECT_TRUE(idx.InShardSet(7, idx.ShardOf(a)));

  std::vector<int> seen;
  const Orec* writes_a[] = {a};
  idx.ForEachCandidate(writes_a, 1, [&](int tid) {
    seen.push_back(tid);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{7}));

  seen.clear();
  const Orec* writes_b[] = {b};
  idx.ForEachCandidate(writes_b, 1, [&](int tid) {
    seen.push_back(tid);
    return true;
  });
  EXPECT_TRUE(seen.empty()) << "disjoint shard produced a candidate";

  idx.Remove(7);
  EXPECT_FALSE(idx.HasEntries(7));
  EXPECT_TRUE(idx.Empty());
}

TEST(WakeIndexUnitTest, GlobalWaiterIsAlwaysACandidate) {
  WakeIndex idx(64, 64);
  Orec o;
  idx.AddGlobal(3);
  EXPECT_TRUE(idx.IsGlobal(3));
  const Orec* writes[] = {&o};
  std::vector<int> seen;
  idx.ForEachCandidate(writes, 1, [&](int tid) {
    seen.push_back(tid);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{3}));
  idx.Remove(3);
  EXPECT_TRUE(idx.Empty());
}

TEST(WakeIndexUnitTest, DuplicateOrecsRegisterShardOnce) {
  WakeIndex idx(64, 64);
  Orec o;
  const Orec* reg[] = {&o, &o, &o};
  idx.AddIndexed(1, reg, 3);
  EXPECT_EQ(idx.ShardSetPopulation(1), 1);
  EXPECT_EQ(idx.ShardPopulation(idx.ShardOf(&o)), 1);
  idx.Remove(1);
  EXPECT_TRUE(idx.Empty());
}

// Documents the duplicate-emission hazard the WakeWaiters seen-bitmap defends
// against: the global pass masks against the *current* shard words, so a tid
// that deregisters its indexed entry and re-registers globally between the
// shard pass emitting it and the global pass sampling the mask is emitted
// twice. Simulated deterministically by performing the re-registration inside
// the visitor callback — exactly the interleaving a racing waiter produces.
TEST(WakeIndexUnitTest, GlobalPassMayReEmitARacinglyReRegisteredTid) {
  WakeIndex idx(64, 64);
  Orec o;
  const Orec* reg[] = {&o};
  idx.AddIndexed(5, reg, 1);
  std::vector<int> seen;
  const Orec* writes[] = {&o};
  idx.ForEachCandidate(writes, 1, [&](int tid) {
    if (seen.empty()) {
      // Racing waiter: timeout-deregister, then re-park with an arbitrary
      // predicate (global list) before the visitor's global pass runs.
      idx.Remove(tid);
      idx.AddGlobal(tid);
    }
    seen.push_back(tid);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{5, 5}))
      << "if this stops re-emitting, the index now dedups internally and "
         "WakeWaiters' seen bitmap is redundant";
  idx.Remove(5);
  EXPECT_TRUE(idx.Empty());
}

TEST(WakeIndexUnitTest, SingleShardDegradesToGlobalScan) {
  WakeIndex idx(64, 1);
  Orec a;
  Orec b;
  const Orec* reg[] = {&a};
  idx.AddIndexed(2, reg, 1);
  const Orec* writes[] = {&b};  // different orec, same (only) shard
  std::vector<int> seen;
  idx.ForEachCandidate(writes, 1, [&](int tid) {
    seen.push_back(tid);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{2}));
}

// --- shard-count sweep over the bare index (the >64-shard bitmap rework) ---

class WakeIndexShardCountTest : public ::testing::TestWithParam<int> {};

TEST_P(WakeIndexShardCountTest, ShardBookkeepingCoversEveryRegisteredOrec) {
  const int shards = GetParam();
  WakeIndex idx(128, shards);
  EXPECT_EQ(idx.shard_count(), shards);
  EXPECT_EQ(idx.shard_words(), (shards + 63) / 64);
  std::vector<Orec> orecs(64);
  std::vector<const Orec*> reg;
  for (const Orec& o : orecs) {
    reg.push_back(&o);
  }
  idx.AddIndexed(70, reg.data(), reg.size());  // tid in the second mask word
  EXPECT_TRUE(idx.HasEntries(70));
  EXPECT_FALSE(idx.IsGlobal(70));
  int pop = idx.ShardSetPopulation(70);
  EXPECT_GE(pop, 1);
  EXPECT_LE(pop, std::min<int>(static_cast<int>(reg.size()), shards));
  for (const Orec* o : reg) {
    EXPECT_TRUE(idx.InShardSet(70, idx.ShardOf(o)));
    std::vector<int> seen;
    const Orec* writes[] = {o};
    idx.ForEachCandidate(writes, 1, [&](int tid) {
      seen.push_back(tid);
      return true;
    });
    EXPECT_EQ(seen, (std::vector<int>{70}))
        << "a registered orec's shard lost its waiter";
  }
  idx.Remove(70);
  EXPECT_FALSE(idx.HasEntries(70));
  EXPECT_EQ(idx.ShardSetPopulation(70), 0);
  EXPECT_TRUE(idx.Empty());
}

TEST_P(WakeIndexShardCountTest, TargetedLookupsStaySelectiveAndConservative) {
  const int shards = GetParam();
  constexpr int kWaiters = 96;
  WakeIndex idx(128, shards);
  std::vector<Orec> orecs(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    const Orec* reg[] = {&orecs[t]};
    idx.AddIndexed(t, reg, 1);
  }
  long total_candidates = 0;
  for (int t = 0; t < kWaiters; ++t) {
    const Orec* writes[] = {&orecs[t]};
    bool saw_owner = false;
    idx.ForEachCandidate(writes, 1, [&](int tid) {
      ++total_candidates;
      saw_owner |= (tid == t);
      return true;
    });
    EXPECT_TRUE(saw_owner) << "conservativeness violated: waiter " << t
                           << " missing for its own orec";
  }
  if (shards == 1) {
    // One shard degenerates to the global scan: every lookup sees everyone.
    EXPECT_EQ(total_candidates, static_cast<long>(kWaiters) * kWaiters);
  }
  if (shards >= 1024) {
    // At 1024+ shards, aliasing among 96 disjoint waiters is nearly gone:
    // expected candidates per lookup is 1 + 95/shards ≈ 1.09.
    EXPECT_LE(static_cast<double>(total_candidates) / kWaiters, 1.5);
  }
  for (int t = 0; t < kWaiters; ++t) {
    idx.Remove(t);
  }
  EXPECT_TRUE(idx.Empty()) << "leak after bulk removal at " << shards
                           << " shards";
}

TEST_P(WakeIndexShardCountTest, RemoveIsIdempotentAndExact) {
  const int shards = GetParam();
  WakeIndex idx(192, shards);
  std::vector<Orec> orecs(128);
  std::vector<const Orec*> reg;
  for (const Orec& o : orecs) {
    reg.push_back(&o);
  }
  for (int tid : {0, 63, 64, 100}) {  // spans both presence-mask words
    idx.AddIndexed(tid, reg.data(), reg.size());
  }
  idx.AddGlobal(101);
  idx.Remove(64);
  idx.Remove(64);  // second removal is a no-op
  EXPECT_FALSE(idx.HasEntries(64));
  for (int tid : {0, 63, 100}) {
    EXPECT_TRUE(idx.HasEntries(tid)) << "Remove(64) clobbered tid " << tid;
  }
  EXPECT_TRUE(idx.HasEntries(101));
  for (int tid : {0, 63, 100, 101}) {
    idx.Remove(tid);
    idx.Remove(tid);
  }
  EXPECT_TRUE(idx.Empty());
}

TEST_P(WakeIndexShardCountTest, EmptyOrecListFallsBackToGlobal) {
  // The headline registration bug: an empty address list used to store an
  // empty shard set, unreachable by any writer's shard union. It must land on
  // the global fallback list instead.
  WakeIndex idx(64, GetParam());
  idx.AddIndexed(5, nullptr, 0);
  EXPECT_TRUE(idx.HasEntries(5));
  EXPECT_TRUE(idx.IsGlobal(5));
  EXPECT_EQ(idx.ShardSetPopulation(5), 0);
  Orec o;
  const Orec* writes[] = {&o};
  std::vector<int> seen;
  idx.ForEachCandidate(writes, 1, [&](int tid) {
    seen.push_back(tid);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{5}))
      << "empty-waitset waiter is not reachable by a writer";
  idx.Remove(5);
  EXPECT_TRUE(idx.Empty());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, WakeIndexShardCountTest,
                         ::testing::Values(1, 64, 256, 1024),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

// --- behavioral tests through the runtime, at 64 and 1024 shards ---

using BackendShards = std::tuple<Backend, int>;

class WakeIndexBackendTest : public ::testing::TestWithParam<BackendShards> {
 protected:
  Backend backend() const { return std::get<0>(GetParam()); }
  int shards() const { return std::get<1>(GetParam()); }
  TmConfig Config(bool targeted = true) const {
    return ConfigFor(backend(), targeted, shards());
  }
};

// A committing writer's wake work must scale with the waiters its write set
// could satisfy, not with the number of registered waiters: the same workload
// under the global scan pays ~waiters × commits checks, under the index ~1 per
// commit (plus rare shard collisions).
TEST_P(WakeIndexBackendTest, TargetedWakeSkipsIrrelevantWaiters) {
  constexpr int kWaiters = 16;
  constexpr std::uint64_t kCommits = 200;
  std::uint64_t checks[2] = {0, 0};
  for (bool targeted : {false, true}) {
    Runtime rt(Config(targeted));
    auto cells = std::make_unique<PaddedCell[]>(kWaiters);
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&, w] {
        Atomically(rt.sys(), [&](Tx& tx) {
          if (tx.Load(cells[w].v) == 0) {
            tx.Retry();
          }
        });
      });
    }
    AwaitCounter(rt, Counter::kSleeps, kWaiters);
    rt.ResetStats();
    // The hot producer touches cell 0 with silent stores: every commit is a
    // writer commit, no waiter is ever satisfied, and under targeting only
    // cell 0's shard is ever checked.
    for (std::uint64_t i = 0; i < kCommits; ++i) {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[0].v, std::uint64_t{0}); });
    }
    checks[targeted ? 1 : 0] = rt.AggregateStats().Get(Counter::kWakeChecks);
    EXPECT_EQ(rt.AggregateStats().Get(Counter::kWakeups), 0u);
    // Release everyone.
    for (int w = 0; w < kWaiters; ++w) {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w].v, std::uint64_t{1}); });
    }
    for (auto& t : waiters) {
      t.join();
    }
  }
  EXPECT_EQ(checks[0], kWaiters * kCommits) << "global scan checks everyone";
  // ≥2x is the acceptance floor; with 16 disjoint waiters the expected factor
  // is ~16 minus shard collisions (which shrink as the shard count grows).
  EXPECT_LE(checks[1] * 2, checks[0])
      << "targeted wakeup did not reduce wake-check work";
}

// Writing each cell in turn must wake exactly its waiter — shard targeting
// must never lose a wakeup (the test hangs on a lost one; ctest's timeout
// turns that into a failure).
TEST_P(WakeIndexBackendTest, EveryDisjointWaiterWakesOnItsOwnWrite) {
  constexpr int kWaiters = 24;
  Runtime rt(Config());
  auto cells = std::make_unique<PaddedCell[]>(kWaiters);
  std::vector<std::thread> waiters;
  std::atomic<int> woken{0};
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cells[w].v) == 0) {
          tx.Retry();
        }
      });
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      woken.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  AwaitCounter(rt, Counter::kSleeps, kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(cells[w].v, static_cast<std::uint64_t>(w) + 1);
    });
  }
  for (auto& t : waiters) {
    t.join();
  }
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(woken.load(std::memory_order_acquire), kWaiters);
}

// WaitPred has no address list, so it must take the global-fallback path and
// still be woken by any writer that satisfies it.
bool CellAtLeastPred(TmSystem& sys, const WaitArgs& args) {
  const auto* cell = reinterpret_cast<const TVar<std::uint64_t>*>(args.v[0]);
  return sys.Read(cell->word()) >= args.v[1];
}

TEST_P(WakeIndexBackendTest, WaitPredFallsBackToGlobalList) {
  Runtime rt(Config());
  TVar<std::uint64_t> cell(0);
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell) < 2) {
        WaitArgs args;
        args.v[0] = reinterpret_cast<TmWord>(&cell);
        args.v[1] = 2;
        args.n = 2;
        tx.WaitPred(&CellAtLeastPred, args);
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  EXPECT_GE(rt.AggregateStats().Get(Counter::kGlobalDeschedules), 1u);
  EXPECT_EQ(rt.sys().wake_index().GlobalPopulation(), 1);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{2}); });
  waiter.join();
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// Retry/Await waiters must land in the index, not on the fallback list.
TEST_P(WakeIndexBackendTest, RetryWaitersAreIndexed) {
  Runtime rt(Config());
  TVar<std::uint64_t> cell(0);
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  EXPECT_GE(rt.AggregateStats().Get(Counter::kIndexedDeschedules), 1u);
  EXPECT_EQ(rt.sys().wake_index().GlobalPopulation(), 0);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{1}); });
  waiter.join();
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// Concurrent register/deregister/timeout churn: short timed waits racing
// writer commits. Whatever interleaving occurs, every thread terminates and
// neither the registry nor any index shard leaks an entry. This is also the
// TSan run of the many-waiters ablation shape (disjoint cells, hot writer).
TEST_P(WakeIndexBackendTest, ManyWaitersChurnLeavesNoEntries) {
  constexpr int kThreads = 12;
  constexpr int kRoundsPerThread = 40;
  Runtime rt(Config());
  auto cells = std::make_unique<PaddedCell[]>(kThreads);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    // mo: acquire — [harness] observe worker-published state.
    while (!stop.load(std::memory_order_acquire)) {
      // Bump a rotating cell so some waits are satisfied and some time out.
      int target = static_cast<int>(i % kThreads);
      Atomically(rt.sys(), [&](Tx& tx) {
        tx.Store(cells[target].v, tx.Load(cells[target].v) + 1);
      });
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> waiters;
  for (int t = 0; t < kThreads; ++t) {
    waiters.emplace_back([&, t] {
      std::uint64_t last = 0;
      for (int r = 0; r < kRoundsPerThread; ++r) {
        // Race a tiny deadline against the writer: exercises wakeup, timeout,
        // and the timeout-vs-wake semaphore drain.
        auto timeout = std::chrono::microseconds(50 + (r % 7) * 100);
        last = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
          std::uint64_t cur = tx.Load(cells[t].v);
          if (cur == last) {
            if (tx.RetryFor(timeout) == WaitResult::kTimedOut) {
              return cur;
            }
          }
          return cur;
        });
      }
    });
  }
  for (auto& t : waiters) {
    t.join();
  }
  // mo: release — [harness] publish state to other harness threads.
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty())
      << "an index entry leaked through the churn";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsByShards, WakeIndexBackendTest,
    ::testing::Combine(::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                         Backend::kSimHtm),
                       ::testing::Values(64, 1024)),
    [](const ::testing::TestParamInfo<BackendShards>& info) {
      return BackendTestName(std::get<0>(info.param)) + "_Shards" +
             std::to_string(std::get<1>(info.param));
    });

// --- waitset fingerprints and per-shard segment summaries ---

// One cell per orec granule (8 bytes on the STMs, a 64-byte line on
// sim-HTM), as many as the orec table has entries, so nearly every orec of
// the table covers a cell.
class GranuleCells {
 public:
  // `tables` > 1 lays out that many table sizes of granules, so some cells
  // share an orec.
  explicit GranuleCells(TmSystem& sys, int tables = 1)
      : stride_(sys.orecs().granularity_bytes() / sizeof(TVar<std::uint64_t>)),
        size_(static_cast<int>(sys.orecs().size()) * tables),
        vars_(std::make_unique<TVar<std::uint64_t>[]>(
            static_cast<std::size_t>(size_) * stride_)) {}
  int size() const { return size_; }
  TVar<std::uint64_t>& operator[](int i) {
    return vars_[static_cast<std::size_t>(i) * stride_];
  }

 private:
  std::size_t stride_;
  int size_;
  std::unique_ptr<TVar<std::uint64_t>[]> vars_;
};

// Two cells in distinct orecs of the same wake-index shard and the same gate
// bucket, so the writer's commit passes the counting gate and reaches the
// fingerprint filter. With `colliding` the second orec's fingerprint bits lie
// inside the first's, so the filter cannot tell them apart; without, it can.
struct CellPair {
  int waited = -1;
  int written = -1;
};

CellPair FindShardAliases(TmSystem& sys, GranuleCells& cells, bool colliding) {
  const WakeIndex& idx = sys.wake_index();
  std::vector<std::vector<int>> by_bucket(
      static_cast<std::size_t>(idx.gate_buckets()));
  for (int c = 0; c < cells.size(); ++c) {
    by_bucket[static_cast<std::size_t>(
                  idx.GateBucketOf(&sys.orecs().For(cells[c].word())))]
        .push_back(c);
  }
  for (const std::vector<int>& bucket : by_bucket) {
    for (int a : bucket) {
      const Orec* oa = &sys.orecs().For(cells[a].word());
      for (int b : bucket) {
        const Orec* ob = &sys.orecs().For(cells[b].word());
        if (oa == ob || idx.ShardOf(oa) != idx.ShardOf(ob)) {
          continue;
        }
        const std::uint64_t fb = WakeIndex::FingerprintOf(ob);
        if (WakeIndex::MayOverlap(WakeIndex::FingerprintOf(oa), &fb, 1) ==
            colliding) {
          return {a, b};
        }
      }
    }
  }
  return {};
}

class FingerprintFilterTest : public ::testing::TestWithParam<Backend> {
 protected:
  // One shard: every waiter aliases every writer, so only the fingerprint
  // separates them. A 2^15-orec table (2^15 gate buckets) gives ~30
  // fingerprint-colliding orec pairs that share a bucket; 2^12 gave ~3.
  TmConfig Config() const {
    TmConfig cfg = ConfigFor(GetParam(), true, 1);
    cfg.orec_table_log2 = 15;
    return cfg;
  }
};

// A waiter that merely shares a shard (and a gate bucket) with a hot writer's
// cell costs that writer no wake check at all: the fingerprint drops it
// before any claim.
TEST_P(FingerprintFilterTest, AliasedWaiterCostsNoWakeChecks) {
  constexpr std::uint64_t kCommits = 100;
  Runtime rt(Config());
  GranuleCells cells(rt.sys());
  const CellPair p = FindShardAliases(rt.sys(), cells, false);
  ASSERT_GE(p.waited, 0) << "no fingerprint-distinct orec pair in a bucket "
                         << "among " << cells.size() << " cells";
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cells[p.waited]) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  rt.ResetStats();
  for (std::uint64_t i = 1; i <= kCommits; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[p.written], i); });
  }
  const TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kWakeChecks), 0u);
  EXPECT_EQ(s.Get(Counter::kWakeFingerprintSkips), kCommits);
  EXPECT_EQ(s.Get(Counter::kWakeups), 0u);
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.Store(cells[p.waited], std::uint64_t{1});
  });
  waiter.join();
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// A fingerprint is a filter, never a verdict: an aliased waiter whose bits
// collide with the writer's still gets its (failing) wake check, and its own
// cell's write still wakes it exactly once.
TEST_P(FingerprintFilterTest, CollidingFingerprintStillWakesExactlyOnce) {
  constexpr std::uint64_t kCommits = 50;
  Runtime rt(Config());
  GranuleCells cells(rt.sys());
  const CellPair p = FindShardAliases(rt.sys(), cells, true);
  ASSERT_GE(p.waited, 0) << "no fingerprint-colliding orec pair in a bucket "
                         << "among " << cells.size() << " cells";
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cells[p.waited]) == 0) {
        tx.Retry();
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  rt.ResetStats();
  for (std::uint64_t i = 1; i <= kCommits; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[p.written], i); });
  }
  TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kWakeChecks), kCommits);
  EXPECT_EQ(s.Get(Counter::kWakeFingerprintSkips), 0u);
  EXPECT_EQ(s.Get(Counter::kWakeups), 0u);
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.Store(cells[p.waited], std::uint64_t{1});
  });
  waiter.join();
  s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kWakeups), 1u);
  EXPECT_EQ(s.Get(Counter::kSleeps), 0u) << "the waiter re-parked";
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// Sleepers and churning timed waiters share a handful of shards, so the
// per-shard segment summary bits are cleared and re-set constantly while
// writers consult them. Every sleeper must still see every write addressed
// to it (a lost wakeup hangs the test), and nothing may leak.
TEST_P(FingerprintFilterTest, SegmentSummaryChurnLosesNoWakeup) {
  constexpr int kSleepers = 4;
  constexpr int kChurners = 4;
  constexpr std::uint64_t kRounds = 30;
  TmConfig cfg = ConfigFor(GetParam(), true, 4);
  Runtime rt(cfg);
  auto cells = std::make_unique<PaddedCell[]>(kSleepers + kChurners);
  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&, c] {
      // mo: acquire — [harness] observe worker-published state.
      while (!stop.load(std::memory_order_acquire)) {
        Atomically(rt.sys(), [&](Tx& tx) {
          if (tx.Load(cells[kSleepers + c].v) == 0) {
            (void)tx.RetryFor(std::chrono::microseconds(100));
          }
        });
      }
    });
  }
  std::vector<std::thread> sleepers;
  for (int s = 0; s < kSleepers; ++s) {
    sleepers.emplace_back([&, s] {
      for (std::uint64_t r = 1; r <= kRounds; ++r) {
        Atomically(rt.sys(), [&](Tx& tx) {
          if (tx.Load(cells[s].v) < r) {
            tx.Retry();
          }
        });
      }
    });
  }
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    for (int s = 0; s < kSleepers; ++s) {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[s].v, r); });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  for (auto& t : sleepers) {
    t.join();
  }
  // mo: release — [harness] publish state to other harness threads.
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) {
    t.join();
  }
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty())
      << "an index entry or summary bit leaked through the churn";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FingerprintFilterTest,
                         ::testing::Values(Backend::kEagerStm,
                                           Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendTestName(info.param);
                         });

// --- the counting gate ---

class WakeGateTest : public ::testing::TestWithParam<Backend> {
 protected:
  TmConfig Config() const { return ConfigFor(GetParam()); }
};

// A writer whose orecs miss every gate bucket a parked waiter counts on is
// stopped by the gate: no wake check, no fingerprint test, no wakeup.
TEST_P(WakeGateTest, WriterMissingEveryWaitedBucketDoesNoWakeWork) {
  constexpr int kWaiters = 8;
  constexpr std::uint64_t kCommits = 100;
  Runtime rt(Config());
  GranuleCells cells(rt.sys());
  const WakeIndex& idx = rt.sys().wake_index();
  auto bucket_of = [&](int c) {
    return idx.GateBucketOf(&rt.sys().orecs().For(cells[c].word()));
  };
  std::vector<int> waited_buckets;
  for (int w = 0; w < kWaiters; ++w) {
    waited_buckets.push_back(bucket_of(w));
  }
  int written = -1;
  for (int c = kWaiters; c < cells.size() && written < 0; ++c) {
    if (std::find(waited_buckets.begin(), waited_buckets.end(),
                  bucket_of(c)) == waited_buckets.end()) {
      written = c;
    }
  }
  ASSERT_GE(written, 0) << "every cell shares a bucket with a waiter";
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cells[w]) == 0) {
          tx.Retry();
        }
      });
    });
  }
  AwaitCounter(rt, Counter::kSleeps, kWaiters);
  for (int b : waited_buckets) {
    EXPECT_GE(idx.GateCountAt(b), 1u) << "a parked waiter is not counted";
  }
  rt.ResetStats();
  for (std::uint64_t i = 1; i <= kCommits; ++i) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[written], i); });
  }
  const TxStats s = rt.AggregateStats();
  EXPECT_EQ(s.Get(Counter::kWakeGateSkips), kCommits);
  EXPECT_EQ(s.Get(Counter::kWakeChecks), 0u);
  EXPECT_EQ(s.Get(Counter::kWakeFingerprintSkips), 0u);
  EXPECT_EQ(s.Get(Counter::kWakeups), 0u);
  for (int w = 0; w < kWaiters; ++w) {
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cells[w], std::uint64_t{1}); });
  }
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_TRUE(idx.Empty());
}

// A registration races a commit to its own cell, round after round, with the
// commit jittered across the waiter's unwind and registration. The waits are
// timed, so they never spin (the registration transaction is the only place
// that can see the write) and a lost wakeup shows up as a wait that ran out
// its deadline instead of a hang.
TEST_P(WakeGateTest, RegistrationRacingACommitLosesNoWakeup) {
  constexpr int kRounds = 1000;
  constexpr auto kDeadline = std::chrono::seconds(1);
  Runtime rt(Config());
  PaddedCell cell;
  std::atomic<int> started{0};
  std::atomic<int> lost_round{0};
  std::thread waiter([&] {
    for (int r = 1; r <= kRounds; ++r) {
      // mo: release — [harness] publish state to other harness threads.
      started.store(r, std::memory_order_release);
      const auto t0 = std::chrono::steady_clock::now();
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cell.v) < static_cast<std::uint64_t>(r)) {
          (void)tx.RetryFor(kDeadline);
        }
      });
      if (std::chrono::steady_clock::now() - t0 >= kDeadline) {
        // mo: release — [harness] publish state to other harness threads.
        lost_round.store(r, std::memory_order_release);
        // mo: release — [harness] publish state to other harness threads.
        started.store(kRounds + 1, std::memory_order_release);
        return;
      }
    }
    // mo: release — [harness] publish state to other harness threads.
    started.store(kRounds + 1, std::memory_order_release);
  });
  for (int r = 1; r <= kRounds; ++r) {
    // mo: acquire — [harness] observe worker-published state.
    while (started.load(std::memory_order_acquire) < r) {
      CpuRelax();
    }
    // mo: acquire — [harness] observe worker-published state.
    if (lost_round.load(std::memory_order_acquire) != 0) {
      break;
    }
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds((r * 37) % 32);
    while (std::chrono::steady_clock::now() < until) {
      CpuRelax();
    }
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(cell.v, static_cast<std::uint64_t>(r));
    });
  }
  waiter.join();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(lost_round.load(std::memory_order_acquire), 0)
      << "a committed write never woke the waiter registered before it";
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// Timed waits, OrElse waits whose union waitset names one orec twice, and
// WaitPred waits (global list) churn against a writer. Once every thread has
// joined, each gate count and the global count are back to zero.
TEST_P(WakeGateTest, ChurnLeavesTheGateDrained) {
  constexpr int kTimed = 4;
  constexpr int kOrElse = 2;
  constexpr int kPred = 2;
  constexpr int kRounds = 40;
  Runtime rt(Config());
  // Twice the table's granules: some two cells share an orec.
  GranuleCells cells(rt.sys(), 2);
  int twin_a = -1;
  int twin_b = -1;
  {
    std::vector<int> first(rt.sys().orecs().size(), -1);
    for (int c = 0; c < cells.size() && twin_b < 0; ++c) {
      int& f = first[rt.sys().orecs().IndexOf(
          &rt.sys().orecs().For(cells[c].word()))];
      if (f >= 0) {
        twin_a = f;
        twin_b = c;
      }
      f = c;
    }
  }
  ASSERT_GE(twin_b, 0) << "no two cells share an orec";
  // Cells 0..kTimed-1 for timed waiters, kTimed.. for WaitPred waiters.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    // mo: acquire — [harness] observe worker-published state.
    while (!stop.load(std::memory_order_acquire)) {
      const int target = static_cast<int>(i % (kTimed + kPred + 2));
      TVar<std::uint64_t>& v =
          target < kTimed + kPred ? cells[target]
                                  : cells[target == kTimed + kPred ? twin_a
                                                                   : twin_b];
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(v, tx.Load(v) + 1); });
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(150));
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kTimed; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t last = 0;
      for (int r = 0; r < kRounds; ++r) {
        last = Atomically(rt.sys(), [&](Tx& tx) -> std::uint64_t {
          const std::uint64_t cur = tx.Load(cells[t]);
          if (cur == last) {
            (void)tx.RetryFor(std::chrono::microseconds(50 + (r % 7) * 100));
          }
          return cur;
        });
      }
    });
  }
  for (int t = 0; t < kOrElse; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        const auto timeout = std::chrono::microseconds(100 + (r % 5) * 100);
        Atomically(rt.sys(), [&](Tx& tx) {
          const std::uint64_t a = tx.Load(cells[twin_a]);
          const std::uint64_t b = tx.Load(cells[twin_b]);
          tx.OrElse(
              [&](Tx& t1) {
                if (t1.Load(cells[twin_a]) == a) {
                  t1.Retry();
                }
              },
              [&](Tx& t2) {
                if (t2.Load(cells[twin_b]) == b) {
                  (void)t2.RetryFor(timeout);
                }
              });
        });
      }
    });
  }
  for (int t = 0; t < kPred; ++t) {
    threads.emplace_back([&, t] {
      TVar<std::uint64_t>& v = cells[kTimed + t];
      for (int r = 0; r < kRounds; ++r) {
        Atomically(rt.sys(), [&](Tx& tx) {
          WaitArgs args;
          args.v[0] = reinterpret_cast<TmWord>(&v);
          args.v[1] = tx.Load(v) + 1;
          args.n = 2;
          (void)tx.WaitPredFor(&CellAtLeastPred, args,
                               std::chrono::microseconds(100 + (r % 3) * 200));
        });
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // mo: release — [harness] publish state to other harness threads.
  stop.store(true, std::memory_order_release);
  writer.join();
  const TxStats s = rt.AggregateStats();
  EXPECT_GT(s.Get(Counter::kIndexedDeschedules), 0u);
  EXPECT_GT(s.Get(Counter::kGlobalDeschedules), 0u);
  const WakeIndex& idx = rt.sys().wake_index();
  int counted = 0;
  for (int b = 0; b < idx.gate_buckets(); ++b) {
    counted += idx.GateCountAt(b) != 0 ? 1 : 0;
  }
  EXPECT_EQ(counted, 0) << "a gate bucket kept a count past every wait";
  EXPECT_EQ(idx.GlobalWaiterCount(), 0u);
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(idx.Empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, WakeGateTest,
                         ::testing::Values(Backend::kEagerStm,
                                           Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendTestName(info.param);
                         });

// The summary-repair race at the bare index: a churner's last waiter leaves a
// (shard, segment) row — clearing its summary bit under the repair protocol —
// while a registrant in the same segment and shard inserts. Once both are
// done the registrant is still registered, so a writer's scan must find it:
// a repair that cleared the bit without rescanning would hide it for good.
TEST(WakeIndexUnitTest, SummaryRepairRaceKeepsRegistrationVisible) {
  constexpr int kRounds = 2000;
  constexpr int kChurnTid = 1;
  constexpr int kTid = 2;
  WakeIndex idx(/*max_threads=*/512, /*num_shards=*/64);
  Orec o;
  const Orec* orecs[1] = {&o};
  std::vector<std::uint64_t> shard_set(
      static_cast<std::size_t>(idx.shard_words()));
  idx.BuildShardSet(orecs, 1, shard_set.data());
  int misses = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ready{0};
    auto rendezvous = [&] {
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      ready.fetch_add(1, std::memory_order_acq_rel);
      // mo: acquire — [harness] observe worker-published state.
      while (ready.load(std::memory_order_acquire) < 2) {
      }
    };
    idx.AddIndexed(kChurnTid, orecs, 1);
    std::thread churner([&] {
      rendezvous();
      idx.Remove(kChurnTid);
    });
    std::thread registrant([&] {
      rendezvous();
      idx.AddIndexed(kTid, orecs, 1);
    });
    churner.join();
    registrant.join();
    bool seen = false;
    idx.ForEachCandidateIn(shard_set.data(), [&](int tid) {
      seen |= (tid == kTid);
      return true;
    });
    misses += seen ? 0 : 1;
    idx.Remove(kTid);
  }
  EXPECT_EQ(misses, 0) << "a summary repair hid a live registration";
  EXPECT_TRUE(idx.Empty());
}

// --- empty-waitset registration (the wake-path registration bugfix) ---

class EmptyWaitsetTest : public ::testing::TestWithParam<Backend> {};

// A Retry whose logging pass read nothing transactionally publishes an empty
// waitset. Pre-fix, DescheduleImpl indexed it with an empty shard set — no
// writer shard union ever covered it, so it slept until timeout (or forever).
// It must register on the global fallback list, count as a global deschedule,
// and be woken by the next writer commit.
TEST_P(EmptyWaitsetTest, EmptyWaitsetWaiterIsWokenByAnyWriterCommit) {
  Runtime rt(ConfigFor(GetParam()));
  TVar<std::uint64_t> unrelated(0);
  std::atomic<bool> go{false};
  std::atomic<bool> timed_out{false};
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      // `go` is a plain atomic (an escape read), so the retry waitset stays
      // empty; the generous deadline only bounds the pre-fix hang.
      // mo: acquire — [harness] observe the main thread's release of `go`.
      if (!go.load(std::memory_order_acquire)) {
        if (tx.RetryFor(std::chrono::seconds(5)) == WaitResult::kTimedOut) {
          // mo: release — [harness] publish state to other harness threads.
          timed_out.store(true, std::memory_order_release);
        }
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  EXPECT_GE(rt.AggregateStats().Get(Counter::kGlobalDeschedules), 1u)
      << "empty waitset must register as a global deschedule";
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kIndexedDeschedules), 0u);
  EXPECT_EQ(rt.sys().wake_index().GlobalPopulation(), 1);
  // mo: release — [harness] publish `go` before the wake-triggering commit.
  go.store(true, std::memory_order_release);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(unrelated, std::uint64_t{1}); });
  waiter.join();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_FALSE(timed_out.load(std::memory_order_acquire))
      << "empty-waitset waiter was not wakeable by a writer commit";
  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kWakeups), 1u);
  // The conservative wake is vacuous — no evidence the waiter was satisfied —
  // and must be tallied separately so precision metrics can subtract it.
  EXPECT_GE(s.Get(Counter::kVacuousWakeups), 1u);
  EXPECT_GE(s.Get(Counter::kWakeups), s.Get(Counter::kVacuousWakeups));
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// With no writer at all, the empty-waitset timed wait must still expire
// cleanly and deregister everything.
TEST_P(EmptyWaitsetTest, EmptyWaitsetTimedWaitTimesOutCleanly) {
  Runtime rt(ConfigFor(GetParam()));
  std::atomic<bool> timed_out{false};
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      // mo: relaxed — [harness] same-thread re-read; the flag is only ever
      // written by this thread below.
      if (!timed_out.load(std::memory_order_relaxed)) {
        if (tx.RetryFor(std::chrono::milliseconds(30)) ==
            WaitResult::kTimedOut) {
          // mo: release — [harness] publish state to other harness threads.
          timed_out.store(true, std::memory_order_release);
        }
      }
    });
  });
  waiter.join();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_TRUE(timed_out.load(std::memory_order_acquire));
  EXPECT_GE(rt.AggregateStats().Get(Counter::kWaitTimeouts), 1u);
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// The waitset-entries counter must reflect the *published* waitset: a
// pure-predicate wait publishes no address list, so it contributes zero even
// when the descriptor's retry waitset holds stale entries from an earlier
// Retry in the same transaction (the logging flag survives restarts, so the
// re-execution after the Retry wakeup re-logs its reads).
TEST_P(EmptyWaitsetTest, WaitPredDoesNotInflateWaitsetEntriesCounter) {
  Runtime rt(ConfigFor(GetParam()));
  TVar<std::uint64_t> cell(0);
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      std::uint64_t v = tx.Load(cell);
      if (v == 0) {
        tx.Retry();  // first wait: findChanges on {cell} — one real entry
      }
      if (v == 1) {
        // Woken by cell=1, now wait through a predicate. The re-logged retry
        // waitset ({cell}, stale for this wait) must not be counted.
        WaitArgs args;
        args.v[0] = reinterpret_cast<TmWord>(&cell);
        args.v[1] = 2;
        args.n = 2;
        tx.WaitPred(&CellAtLeastPred, args);
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kWaitsetEntries), 1u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{1}); });
  AwaitCounter(rt, Counter::kSleeps, 2);
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kWaitsetEntries), 1u)
      << "a stale retry waitset was counted for a pure-predicate wait";
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{2}); });
  waiter.join();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EmptyWaitsetTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendTestName(info.param);
                         });

// --- wake_single shard-locality preference ---

TEST(WakeIndexUnitTest, CandidatesVisitIndexedBeforeGlobal) {
  // The candidate order is the wake_single policy: shard-indexed waiters (whose
  // waitsets name addresses the write set covers) come before global-fallback
  // waiters, regardless of tid order.
  WakeIndex idx(64, 64);
  Orec o;
  idx.AddGlobal(2);  // lower tid, but only on the fallback list
  const Orec* reg[] = {&o};
  idx.AddIndexed(9, reg, 1);
  const Orec* writes[] = {&o};
  std::vector<int> seen;
  idx.ForEachCandidate(writes, 1, [&](int tid) {
    seen.push_back(tid);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{9, 2}))
      << "indexed candidate must be offered before the global one";
  idx.Remove(2);
  idx.Remove(9);
  EXPECT_TRUE(idx.Empty());
}

bool AlwaysReadCellPred(TmSystem& sys, const WaitArgs& args) {
  const auto* cell = reinterpret_cast<const TVar<std::uint64_t>*>(args.v[0]);
  return sys.Read(cell->word()) != 0;
}

class WakeSingleLocalityTest : public ::testing::TestWithParam<int> {};

TEST_P(WakeSingleLocalityTest, PrefersShardLocalWaiterOverGlobalFallback) {
  // Two waiters, both satisfied by the same write: a WaitPred waiter on the
  // global fallback list (registered first, so it holds the lower tid and
  // would win a tid-ordered scan) and a Retry waiter indexed under the
  // written cell's shard. With wake_single, the committing writer must prefer
  // the shard-local candidate: the indexed waiter wakes, the global one stays
  // asleep until a later commit. Runs at 64 and 1024 shards — the ordering
  // must hold across the multi-word shard-set representation.
  TmConfig cfg = ConfigFor(Backend::kEagerStm, /*targeted=*/true, GetParam());
  cfg.wake_single = true;
  Runtime rt(cfg);
  TVar<std::uint64_t> cell(0);
  std::atomic<bool> pred_woke{false};
  std::atomic<bool> indexed_woke{false};

  std::thread pred_waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell) == 0) {
        WaitArgs args;
        args.v[0] = reinterpret_cast<TmWord>(&cell);
        args.n = 1;
        tx.WaitPred(&AlwaysReadCellPred, args);
      }
    });
    // mo: release — [harness] publish state to other harness threads.
    pred_woke.store(true, std::memory_order_release);
  });
  AwaitCounter(rt, Counter::kGlobalDeschedules, 1);
  std::thread indexed_waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell) == 0) {
        tx.Retry();
      }
    });
    // mo: release — [harness] publish state to other harness threads.
    indexed_woke.store(true, std::memory_order_release);
  });
  AwaitCounter(rt, Counter::kSleeps, 2);

  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{1}); });
  // mo: acquire — [harness] observe worker-published state.
  while (!indexed_woke.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  indexed_waiter.join();
  // Give a mis-ordered wakeup time to surface before asserting.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_TRUE(indexed_woke.load(std::memory_order_acquire));
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_FALSE(pred_woke.load(std::memory_order_acquire))
      << "wake_single woke the global-fallback waiter over the shard-local one";
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kWakeups), 1u);

  // A second commit releases the remaining (global) waiter.
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{2}); });
  pred_waiter.join();
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, WakeSingleLocalityTest,
                         ::testing::Values(64, 1024),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

TEST(WakeSingleEmptyWaitsetTest, VacuousWakeDoesNotStealTheSingleWakeup) {
  // An empty-waitset waiter is woken conservatively on any writer commit, but
  // that vacuous wake is no evidence anyone was satisfied — under wake_single
  // it must not absorb the single-wakeup budget, or a genuinely satisfied
  // waiter later on the global list starves behind a waiter that just
  // re-parks without ever committing.
  TmConfig cfg = ConfigFor(Backend::kEagerStm);
  cfg.wake_single = true;
  Runtime rt(cfg);
  TVar<std::uint64_t> cell(0);
  std::atomic<bool> go{false};
  std::atomic<bool> pred_done{false};
  // The empty-waitset waiter registers first (lower tid → visited first on
  // the global list).
  std::thread empty_waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      // mo: acquire — [harness] observe the main thread's release of `go`.
      if (!go.load(std::memory_order_acquire)) {
        (void)tx.RetryFor(std::chrono::seconds(10));
      }
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  std::thread pred_waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      if (tx.Load(cell) < 1) {
        WaitArgs args;
        args.v[0] = reinterpret_cast<TmWord>(&cell);
        args.v[1] = 1;
        args.n = 2;
        tx.WaitPred(&CellAtLeastPred, args);
      }
    });
    // mo: release — [harness] publish state to other harness threads.
    pred_done.store(true, std::memory_order_release);
  });
  AwaitCounter(rt, Counter::kSleeps, 2);
  // One writer commit both vacuously wakes the empty-waitset waiter and
  // satisfies the predicate; the single-wakeup budget must go to the
  // satisfied waiter.
  // mo: release — [harness] publish `go` before the wake-triggering commit.
  go.store(true, std::memory_order_release);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{1}); });
  bool ok = false;
  // mo: acquire — [harness] observe worker-published state.
  for (int i = 0; i < 2000 && !(ok = pred_done.load(std::memory_order_acquire)); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ok)
      << "the vacuous wake absorbed the single wakeup; the satisfied waiter "
         "was never checked";
  if (!ok) {
    // Unstick the starved waiter so the test tears down.
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, std::uint64_t{2}); });
  }
  pred_waiter.join();
  empty_waiter.join();
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

// --- batched wake transactions (TmConfig::wake_batch_size) ---

// The batched wake path must be invisible to correctness: claims are the same
// transactional asleep 1→0 transitions, posts still follow the (now shared)
// commit. These suites force multi-candidate batches and batch boundaries and
// assert no wakeup is lost and none is delivered twice.

using BackendWakeSingle = std::tuple<Backend, bool>;

class WakeBatchingTest : public ::testing::TestWithParam<BackendWakeSingle> {
 protected:
  Backend backend() const { return std::get<0>(GetParam()); }
  bool wake_single() const { return std::get<1>(GetParam()); }
  TmConfig Config(int batch, bool targeted = true) const {
    TmConfig cfg = ConfigFor(backend(), targeted);
    cfg.wake_batch_size = batch;
    cfg.wake_single = wake_single();
    // These suites exercise the batched wake-transaction path specifically;
    // the CAS fast path would claim most candidates before any batch forms,
    // and adaptive sizing would perturb the exact batch-count accounting.
    cfg.cas_claim_fast_path = false;
    cfg.adaptive_wake_batch = false;
    return cfg;
  }
};

// Churn: waiters register, time out, and re-park while writers commit — with
// batch size 3 the candidate list is cut mid-batch constantly. A shared hub
// cell keeps every commit's candidate set large (all waiters read it), so
// batches really carry multiple claims. After the churn, a deterministic
// untimed phase parks every waiter and releases each with its own write: a
// lost wakeup hangs here (ctest's timeout fails the test), and the index and
// registry must end empty.
TEST_P(WakeBatchingTest, StressChurnMidBatchLosesNothing) {
  constexpr int kThreads = 12;
  constexpr int kRoundsPerThread = 30;
  Runtime rt(Config(/*batch=*/3));
  PaddedCell hub;
  auto cells = std::make_unique<PaddedCell[]>(kThreads);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    // mo: acquire — [harness] observe worker-published state.
    while (!stop.load(std::memory_order_acquire)) {
      if (i % 3 == 0) {
        // Hub bump: every parked waiter is a candidate (multi-claim batches).
        Atomically(rt.sys(),
                   [&](Tx& tx) { tx.Store(hub.v, tx.Load(hub.v) + 1); });
      } else {
        int target = static_cast<int>(i) % kThreads;
        Atomically(rt.sys(), [&](Tx& tx) {
          tx.Store(cells[target].v, tx.Load(cells[target].v) + 1);
        });
      }
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> waiters;
  for (int t = 0; t < kThreads; ++t) {
    waiters.emplace_back([&, t] {
      std::uint64_t last_hub = 0;
      std::uint64_t last_own = 0;
      for (int r = 0; r < kRoundsPerThread; ++r) {
        auto timeout = std::chrono::microseconds(50 + (r % 7) * 100);
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
  writer.join();

  // Deterministic finale: everyone parks untimed on their own cell, then each
  // cell is written once. A lost (or misdirected) wakeup hangs the join.
  waiters.clear();
  std::atomic<int> woken{0};
  for (int t = 0; t < kThreads; ++t) {
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
  while (rt.sys().waiters().RegisteredCount() < kThreads) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (int t = 0; t < kThreads; ++t) {
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(cells[t].v, tx.Load(cells[t].v) + 1);
    });
  }
  for (auto& t : waiters) {
    t.join();
  }
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(woken.load(std::memory_order_acquire), kThreads);
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty())
      << "an index entry leaked through the batched churn";
  TxStats s = rt.AggregateStats();
  EXPECT_GE(s.Get(Counter::kWakeBatches), 1u);
  EXPECT_EQ(s.Get(Counter::kWakeChecksBatched), s.Get(Counter::kWakeChecks))
      << "every wake check now runs inside a batched wake transaction";
}

// No double-posts. K waiters park on ONE cell; a single writer commit
// satisfies all of them, so the claims span several batches (batch size 4,
// K = 10). Each waiter then re-parks waiting for the next value. If any claim
// had been posted twice (e.g. a batch abort replaying its posts), the stale
// token would satisfy that waiter's second sleep instantly, it would re-check
// its still-unsatisfied predicate, and kFalseWakeups would tick. With
// wake_single the budget stops at one waiter per commit instead, so the
// writer keeps committing until everyone advanced — double-posts would still
// surface as false wakeups.
TEST_P(WakeBatchingTest, MultiClaimBatchesNeverDoublePost) {
  constexpr int kWaiters = 10;
  Runtime rt(Config(/*batch=*/4));
  PaddedCell cell;
  std::atomic<int> round_done{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      for (std::uint64_t target = 1; target <= 2; ++target) {
        Atomically(rt.sys(), [&](Tx& tx) {
          if (tx.Load(cell.v) < target) {
            tx.Retry();
          }
        });
        // mo: acq_rel — [harness] cross-thread counter/flag RMW.
        round_done.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  AwaitCounter(rt, Counter::kSleeps, kWaiters);
  // Round 1: one value change satisfies all K. Under wake_single only one
  // waiter wakes per commit, so repeat silent-value commits until all K moved
  // on (each re-commit re-offers the remaining sleepers).
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.v, std::uint64_t{1}); });
  // mo: acquire — [harness] observe worker-published state.
  for (int spins = 0; round_done.load(std::memory_order_acquire) < kWaiters && spins < 20000; ++spins) {
    if (wake_single()) {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.v, std::uint64_t{1}); });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // mo: acquire — [harness] observe worker-published state.
  ASSERT_EQ(round_done.load(std::memory_order_acquire), kWaiters) << "round-1 wakeup lost";
  // Everyone re-parks for value 2; a stale double-post token would wake a
  // waiter instantly into a false wakeup here.
  AwaitCounter(rt, Counter::kSleeps, 2 * kWaiters);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kFalseWakeups), 0u)
      << "a batched claim was posted more than once";
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.v, std::uint64_t{2}); });
  // mo: acquire — [harness] observe worker-published state.
  for (int spins = 0; round_done.load(std::memory_order_acquire) < 2 * kWaiters && spins < 20000;
       ++spins) {
    if (wake_single()) {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell.v, std::uint64_t{2}); });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // mo: acquire — [harness] observe worker-published state.
  ASSERT_EQ(round_done.load(std::memory_order_acquire), 2 * kWaiters) << "round-2 wakeup lost";
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_EQ(rt.AggregateStats().Get(Counter::kFalseWakeups), 0u);
  EXPECT_EQ(rt.sys().waiters().RegisteredCount(), 0);
  EXPECT_TRUE(rt.sys().wake_index().Empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsByWakeSingle, WakeBatchingTest,
    ::testing::Combine(::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                         Backend::kSimHtm),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<BackendWakeSingle>& info) {
      return BackendTestName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_WakeSingle" : "_WakeAll");
    });

// Batching's accounting: with targeting off, a commit's candidate set is all
// N parked waiters, so batch size B must cut the internal wake transactions
// to ceil(N/B) per commit while the check count stays N per commit.
TEST(WakeBatchCountersTest, BatchesAreCeilCandidatesOverBatchSize) {
  constexpr int kWaiters = 16;
  constexpr std::uint64_t kCommits = 50;
  for (int batch : {1, 8}) {
    TmConfig cfg = ConfigFor(Backend::kEagerStm, /*targeted=*/false);
    cfg.wake_batch_size = batch;
    // Exact ceil(N/B) accounting only holds on the pure batched path: the CAS
    // fast path resolves unchanged-predicate candidates without any wake
    // transaction, and adaptive sizing may shrink B under abort pressure.
    cfg.cas_claim_fast_path = false;
    cfg.adaptive_wake_batch = false;
    Runtime rt(cfg);
    auto cells = std::make_unique<PaddedCell[]>(kWaiters);
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&, w] {
        Atomically(rt.sys(), [&](Tx& tx) {
          if (tx.Load(cells[w].v) == 0) {
            tx.Retry();
          }
        });
      });
    }
    AwaitCounter(rt, Counter::kSleeps, kWaiters);
    rt.ResetStats();
    for (std::uint64_t i = 0; i < kCommits; ++i) {
      // Silent stores: writer commits that satisfy nobody, so all 16 stay
      // parked and every commit's candidate set is exactly the 16 waiters.
      Atomically(rt.sys(),
                 [&](Tx& tx) { tx.Store(cells[0].v, std::uint64_t{0}); });
    }
    TxStats s = rt.AggregateStats();
    const std::uint64_t expected_batches =
        kCommits * ((kWaiters + batch - 1) / batch);
    EXPECT_EQ(s.Get(Counter::kWakeChecks), kCommits * kWaiters);
    EXPECT_EQ(s.Get(Counter::kWakeChecksBatched), kCommits * kWaiters);
    EXPECT_EQ(s.Get(Counter::kWakeBatches), expected_batches)
        << "batch=" << batch;
    for (int w = 0; w < kWaiters; ++w) {
      Atomically(rt.sys(),
                 [&](Tx& tx) { tx.Store(cells[w].v, std::uint64_t{1}); });
    }
    for (auto& t : waiters) {
      t.join();
    }
  }
}

// wake_single must stop at the first non-vacuous satisfied waiter *across*
// batch boundaries too: with 10 satisfied candidates and batch size 2, one
// commit may post exactly one wakeup.
TEST(WakeBatchCountersTest, WakeSingleStopsAcrossBatches) {
  constexpr int kWaiters = 10;
  TmConfig cfg = ConfigFor(Backend::kEagerStm);
  cfg.wake_single = true;
  cfg.wake_batch_size = 2;
  // Cross-batch stop behavior is only observable on the batched path.
  cfg.cas_claim_fast_path = false;
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
      << "wake_single leaked extra wakeups across batch boundaries";
  // The woken waiter committed; its own post-commit wake pass (and ours)
  // releases the rest eventually — drive it with further commits.
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

// --- waitset pruning ---

class WaitsetPruneTest : public ::testing::TestWithParam<Backend> {};

TEST_P(WaitsetPruneTest, OrElseUnionWaitsetDropsDuplicates) {
  // Both branches read `shared`, so the union waitset holds two entries for
  // it; pruning must publish (and index) it once — and the wakeup must still
  // arrive through the deduplicated entry.
  Runtime rt(ConfigFor(GetParam()));
  TVar<std::uint64_t> shared(0);
  std::thread waiter([&] {
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.OrElse(
          [&](Tx& t) {
            if (t.Load(shared) == 0) {
              t.Retry();
            }
          },
          [&](Tx& t) {
            if (t.Load(shared) == 0) {
              t.Retry();
            }
          });
    });
  });
  AwaitCounter(rt, Counter::kSleeps, 1);
  EXPECT_GE(rt.AggregateStats().Get(Counter::kWaitsetPruned), 1u);
  Atomically(rt.sys(), [&](Tx& tx) { tx.Store(shared, std::uint64_t{1}); });
  waiter.join();
  EXPECT_GE(rt.AggregateStats().Get(Counter::kWakeups), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, WaitsetPruneTest,
                         ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                                           Backend::kSimHtm),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendTestName(info.param);
                         });

// --- OrElse partial-rollback orec release ---

TEST(OrElseOrecReleaseTest, EagerReleasesBlindWrittenOrecs) {
  Runtime rt(ConfigFor(Backend::kEagerStm));
  TVar<std::uint64_t> cell(5);
  TVar<std::uint64_t> other(0);
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(cell, std::uint64_t{77});  // blind write, then abandon
          t.Retry();
        },
        [&](Tx& t) {
          // The released orec must be usable by this very transaction again:
          // read (the timestamp extension keeps our snapshot valid past the
          // release bump) and re-write.
          EXPECT_EQ(t.Load(cell), 5u);
          t.Store(cell, std::uint64_t{6});
          t.Store(other, std::uint64_t{1});
        });
  });
  EXPECT_GE(rt.AggregateStats().Get(Counter::kOrElseOrecReleases), 1u);
  EXPECT_EQ(cell.UnsafeRead(), 6u);
  EXPECT_EQ(other.UnsafeRead(), 1u);
}

TEST(OrElseOrecReleaseTest, EagerReleaseUnblocksConcurrentWriter) {
  // While the surviving branch runs, another thread must be able to commit to
  // the location the abandoned branch blind-wrote. Without the release it
  // would spin on the still-held orec until the OrElse transaction finished.
  Runtime rt(ConfigFor(Backend::kEagerStm));
  TVar<std::uint64_t> contested(0);
  TVar<std::uint64_t> gate(0);
  std::atomic<bool> sidecar_done{false};
  std::thread sidecar;
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(contested, std::uint64_t{99});
          t.Retry();
        },
        [&](Tx& t) {
          if (!sidecar.joinable()) {
            // Escape action (runs at most a handful of times on restart):
            // start a writer targeting the released orec and wait for it.
            sidecar = std::thread([&] {
              // mo: acquire — [harness] observe worker-published state.
              for (int i = 0; i < 10000 && !sidecar_done.load(std::memory_order_acquire); ++i) {
                bool won = Atomically(rt.sys(), [&](Tx& tx2) -> bool {
                  if (tx2.Load(contested) == 0) {
                    tx2.Store(contested, std::uint64_t{1});
                    return true;
                  }
                  return false;
                });
                if (won) {
                  break;
                }
              }
              // mo: release — [harness] publish state to other harness threads.
              sidecar_done.store(true, std::memory_order_release);
            });
          }
          // Wait outside the contested orec until the sidecar committed.
          // mo: acquire — [harness] observe worker-published state.
          if (t.Load(gate) == 0 && !sidecar_done.load(std::memory_order_acquire)) {
            if (t.RetryFor(std::chrono::milliseconds(2)) ==
                WaitResult::kTimedOut) {
              t.RestartNow();
            }
          }
        });
  });
  sidecar.join();
  EXPECT_EQ(contested.UnsafeRead(), 1u)
      << "sidecar writer never got through the released orec";
  EXPECT_GE(rt.AggregateStats().Get(Counter::kOrElseOrecReleases), 1u);
}

TEST(OrElseOrecReleaseTest, SimHtmReleasesBranchLines) {
  Runtime rt(ConfigFor(Backend::kSimHtm));
  TVar<std::uint64_t> cell(5);
  TVar<std::uint64_t> other(0);
  Atomically(rt.sys(), [&](Tx& tx) {
    tx.OrElse(
        [&](Tx& t) {
          t.Store(cell, std::uint64_t{77});
          t.Retry();
        },
        [&](Tx& t) {
          EXPECT_EQ(t.Load(cell), 5u);
          t.Store(other, std::uint64_t{1});
        });
  });
  // Hardware-mode writes are buffered, so the branch's lines release at their
  // exact pre-acquisition version.
  EXPECT_GE(rt.AggregateStats().Get(Counter::kOrElseOrecReleases), 1u);
  EXPECT_EQ(cell.UnsafeRead(), 5u);
  EXPECT_EQ(other.UnsafeRead(), 1u);
}

}  // namespace
}  // namespace tcs
