// Litmus-shaped regression tests for the relaxed happens-before edges in the
// glossary (src/condsync/wake_index.h). Each test pins one edge to the
// classic weak-memory shape its argument is phrased in — message passing
// (MP), publication, and store buffering (SB) — so any future weakening of an
// endpoint ordering has a dedicated failing shape, natively and under TSan.
//
// These are *pinning* tests: on strong hardware (x86) most reorderings the
// edges forbid cannot manifest anyway, but TSan checks the happens-before
// reasoning itself (a payload read without the edge's synchronization is a
// reported race), and on weaker ISAs the shapes fail outright if an edge's
// release/acquire pairing is dropped.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <semaphore>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/condsync/wake_index.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/tm/orec_table.h"
#include "src/tm/quiesce.h"
#include "src/tm/version_clock.h"

// mo-edge: [harness] (minimal: release/acquire) — test/bench harness
// coordination: flags and counters published by worker threads and
// observed by the test body or sibling threads (often additionally
// ordered by thread join). acquire/release is a uniform upper bound
// chosen over per-site minimality; none of these sites needs seq_cst
// totality.

namespace tcs {
namespace {

// Keeps the calling thread busy for a few hundred nanoseconds, so a racing
// thread can get well into its side of a litmus shape.
void Dwell() {
  for (int i = 0; i < 256; ++i) {
    CpuRelax();
  }
}

// --------------------------------------------------------------------------
// [wake-publish] — message passing through the bitmap + clock chain.
//
// Waiter: plain payload write → release bitmap insert → clock RMW (its
// registration commit). Writer: clock RMW → bitmap scan. The edge's claim:
// whenever the writer's RMW serializes after the waiter's in the [clock-chain]
// release sequence, the scan sees the bit, and seeing the bit (acquire read of
// the release insert) makes the payload visible.
// --------------------------------------------------------------------------
TEST(LitmusWakePublishTest, InsertPublishesThroughClockChain) {
  constexpr int kRounds = 300;
  constexpr int kTid = 3;
  WakeIndex idx(/*max_threads=*/64, /*num_shards=*/64);
  VersionClock clock;
  Orec o;
  const Orec* orecs[1] = {&o};
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t payload = 0;        // plain: published by the edge
    std::uint64_t end_waiter = 0;     // read after join only
    std::uint64_t end_writer = 0;
    bool seen = false;
    std::uint64_t seen_payload = 0;
    std::thread waiter([&] {
      payload = static_cast<std::uint64_t>(round) + 1;
      idx.AddIndexed(kTid, orecs, 1);
      end_waiter = clock.Increment();
    });
    std::thread writer([&] {
      end_writer = clock.Increment();
      std::vector<std::uint64_t> shard_set(
          static_cast<std::size_t>(idx.shard_words()));
      idx.BuildShardSet(orecs, 1, shard_set.data());
      idx.ForEachCandidateIn(shard_set.data(), [&](int tid) {
        if (tid == kTid) {
          seen = true;
          seen_payload = payload;  // race-free iff [wake-publish] holds
        }
        return true;
      });
    });
    waiter.join();
    writer.join();
    if (end_writer > end_waiter) {
      EXPECT_TRUE(seen) << "writer serialized after registration (commit "
                        << end_writer << " > " << end_waiter
                        << ") but missed the bitmap bit — lost wakeup shape";
      EXPECT_EQ(seen_payload, static_cast<std::uint64_t>(round) + 1)
          << "bit visible but pre-insert payload not published";
    }
    idx.Remove(kTid);
  }
  EXPECT_TRUE(idx.Empty());
}

// --------------------------------------------------------------------------
// [orec-publish] — publication: a committer's plain data write-back followed
// by the orec word's release store of an unlocked version; any acquire load
// that observes the new version must also observe the data.
// --------------------------------------------------------------------------
TEST(LitmusOrecPublishTest, ReleaseVersionStorePublishesData) {
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    Orec o;
    std::uint64_t data = 0;  // plain: the "write-back"
    std::uint64_t observed = 0;
    bool saw_version = false;
    std::thread committer([&] {
      data = 42;
      // mo: release — [orec-publish]: the unlocked-version store publishes
      // the plain write-back above, exactly as a commit's orec release does.
      o.word.store(Orec::MakeVersion(1), std::memory_order_release);
    });
    std::thread reader([&] {
      // mo: acquire — [orec-publish]: samples the orec word like a
      // transactional read's pre/post-validation load.
      std::uint64_t w = o.word.load(std::memory_order_acquire);
      if (!Orec::IsLocked(w) && Orec::Version(w) == 1) {
        saw_version = true;
        observed = data;  // race-free iff [orec-publish] holds
      }
    });
    committer.join();
    reader.join();
    if (saw_version) {
      EXPECT_EQ(observed, 42u)
          << "orec version visible but write-back not published";
    }
  }
}

// --------------------------------------------------------------------------
// [retry-dekker] — store buffering: the fence-anchored exclusion behind
// RetryOrig. Waiter: raise count (relaxed), seq_cst fence, read orec.
// Writer: release orec, seq_cst fence, read count. Forbidden outcome: both
// read the pre-update values (waiter validates stale AND writer sees no
// waiter → lost wakeup). The model mirrors WaitForOverlap/the commit path in
// tm_system.cc op for op.
// --------------------------------------------------------------------------
TEST(LitmusRetryDekkerTest, FencesExcludeStoreBufferingOutcome) {
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> orec{0};
    std::uint64_t waiter_saw_orec = ~std::uint64_t{0};
    std::uint64_t writer_saw_count = ~std::uint64_t{0};
    std::thread waiter([&] {
      // mo: relaxed — [retry-dekker] rider: the raise is anchored by the
      // fence below, as in RetryOrigRegistry::WaitForOverlap.
      count.fetch_add(1, std::memory_order_relaxed);
      // mo: seq_cst fence — [retry-dekker] waiter leg.
      // seq_cst-required: store-buffering exclusion — W(count)/R(orec) here
      // vs the writer's W(orec)/R(count); acquire/release fences cannot
      // forbid both sides reading the pre-update values.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      // mo: acquire — [orec-publish], riding the [retry-dekker] fences: the
      // validation load.
      waiter_saw_orec = orec.load(std::memory_order_acquire);
    });
    std::thread writer([&] {
      // mo: release — [orec-publish]: the commit's orec release.
      orec.store(1, std::memory_order_release);
      // mo: seq_cst fence — [retry-dekker] writer leg.
      // seq_cst-required: same store-buffering exclusion as the waiter leg;
      // mirrors the commit-side fence in tm_system.cc.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      // mo: relaxed — [retry-dekker] rider: the HasWaiters peek.
      writer_saw_count = count.load(std::memory_order_relaxed);
    });
    waiter.join();
    writer.join();
    EXPECT_FALSE(waiter_saw_orec == 0 && writer_saw_count == 0)
        << "both sides read pre-update values: the lost-wakeup SB outcome "
           "the [retry-dekker] fences forbid";
  }
}

// --------------------------------------------------------------------------
// [quiesce-dekker] run-state leg — store buffering between a thread that
// starts running (it registers, or leaves a park) and a committer's scan.
// Thread: clear its not-running bit (seq_cst RMW), sample the clock, publish
// its slot, sample the orec, and — only if the orec is clean — read the
// payload. Committer: bump the orec, Increment the clock, scan (not-running
// bitmap, then slots), then reclaim the payload. Forbidden outcome: the scan
// skips the thread on a stale set bit AND the thread's orec sample misses the
// bump — it would read reclaimed memory. The plain payload makes that outcome
// a reported race under TSan as well. Before each round, `leave(round)`
// returns the round's tid with its slot not running (never claimed, exited,
// or parked).
// --------------------------------------------------------------------------
template <typename Leave>
void RunStateLitmus(QuiesceTable& quiesce, int rounds, Leave leave) {
  constexpr int kCommitter = 0;
  VersionClock clock;
  for (int round = 0; round < rounds; ++round) {
    const int tid = leave(round);
    std::atomic<std::uint64_t> orec{0};
    std::uint64_t payload = 1;  // plain: reclaimed by the committer
    std::uint64_t seen_payload = 0;
    std::atomic<bool> reclaimed{false};
    bool clean = false;
    std::atomic<int> ready{0};
    auto rendezvous = [&] {
      // mo: acq_rel — [harness] cross-thread counter/flag RMW.
      ready.fetch_add(1, std::memory_order_acq_rel);
      // mo: acquire — [harness] observe worker-published state.
      while (ready.load(std::memory_order_acquire) < 2) {
        CpuRelax();
      }
    };
    std::thread thread([&] {
      rendezvous();
      quiesce.MarkRunning(tid);
      quiesce.SetActive(tid, clock.Load());
      // mo: acquire — [orec-publish]: the transaction's orec sample.
      clean = orec.load(std::memory_order_acquire) == 0;
      if (clean) {
        Dwell();  // hold the transaction open while the committer scans
        seen_payload = payload;  // race-free iff the run-state leg holds
        // mo: acquire — [harness] observe worker-published state.
        EXPECT_FALSE(reclaimed.load(std::memory_order_acquire))
            << "round " << round << ": running reader skipped as not running";
      }
      quiesce.SetInactive(tid);
    });
    std::thread committer([&] {
      rendezvous();
      // mo: release — [orec-publish]: the commit's orec bump.
      orec.store(1, std::memory_order_release);
      const std::uint64_t end = clock.Increment();
      quiesce.WaitForReadersBefore(end, kCommitter);
      payload = 0;
      // mo: release — [harness] publish state to other harness threads.
      reclaimed.store(true, std::memory_order_release);
    });
    thread.join();
    committer.join();
    if (clean) {
      EXPECT_EQ(seen_payload, 1u);
    }
  }
}

// Leaving a park.
TEST(LitmusQuiesceParkedTest, ParkedBitClearExcludesStaleSkip) {
  constexpr int kThread = 1;
  QuiesceTable quiesce(/*max_threads=*/64);
  RunStateLitmus(quiesce, 1000, [&](int) {
    quiesce.MarkParked(kThread);
    return kThread;
  });
}

// Registering on a never-claimed tid: every round takes a fresh slot, so the
// thread's first transaction races the scan, and the first tid of each
// segment also publishes its segment during the race ([seg-publish]).
TEST(LitmusQuiesceRegistrationTest, FreshTidIsWaitedForFromItsFirstTransaction) {
  constexpr int kRounds = 1000;
  QuiesceTable quiesce(/*max_threads=*/kRounds + 1);
  RunStateLitmus(quiesce, kRounds, [](int round) { return round + 1; });
}

// Registering on a recycled tid: the slot's previous owner ran a transaction
// and exited (its bit set again) before the new owner registers.
TEST(LitmusQuiesceRegistrationTest, RecycledTidIsWaitedForAfterReregistration) {
  constexpr int kTid = 1;
  QuiesceTable quiesce(/*max_threads=*/64);
  RunStateLitmus(quiesce, 1000, [&](int round) {
    quiesce.MarkRunning(kTid);  // the previous owner's registration
    quiesce.SetActive(kTid, static_cast<std::uint64_t>(round));
    quiesce.SetInactive(kTid);
    quiesce.MarkParked(kTid);  // ... and its exit
    return kTid;
  });
}

// The scan skips what cannot be running: a stale start left in a slot whose
// bit is set would block WaitForReadersBefore forever if it were scanned.
TEST(QuiesceRunStateTest, UnclaimedAndExitedSlotsAreNotScanned) {
  QuiesceTable quiesce(/*max_threads=*/512);
  EXPECT_EQ(quiesce.RunningSlots(), 0);
  quiesce.SetActive(300, 1);  // never claimed: a fresh segment, all bits set
  EXPECT_EQ(quiesce.RunningSlots(), 0);
  quiesce.WaitForReadersBefore(10, 0);
  quiesce.SetInactive(300);

  quiesce.MarkRunning(5);  // registration
  quiesce.MarkRunning(7);
  EXPECT_EQ(quiesce.RunningSlots(), 2);
  quiesce.SetInactive(5);
  quiesce.MarkParked(5);  // exit
  EXPECT_EQ(quiesce.RunningSlots(), 1);
  quiesce.SetActive(5, 1);
  quiesce.WaitForReadersBefore(10, 0);
}

// The same count on a domain: a thread's slot is scanned from its first
// transaction until it exits, and a recycled tid is scanned again.
TEST(QuiesceRunStateTest, DomainScansOnlyLiveThreads) {
  TmConfig cfg;
  cfg.max_threads = 16;
  Runtime rt(cfg);
  TVar<std::uint64_t> cell(0);
  const QuiesceTable& quiesce = rt.sys().quiesce();
  const int before = quiesce.RunningSlots();
  for (int wave = 0; wave < 3; ++wave) {
    std::binary_semaphore ran{0};
    std::binary_semaphore exit{0};
    std::thread t([&] {
      Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, tx.Load(cell) + 1); });
      ran.release();
      exit.acquire();
    });
    ran.acquire();
    EXPECT_EQ(quiesce.RunningSlots(), before + 1) << "wave " << wave;
    exit.release();
    t.join();
    EXPECT_EQ(quiesce.RunningSlots(), before) << "wave " << wave;
  }
}

// --------------------------------------------------------------------------
// End-to-end publication litmus on every backend: a waiter whose predicate is
// false retries; a writer then commits the predicate true. The wakeup must
// arrive (RetryFor is a bounded safety net, not the expected path). This is
// the full-stack shape the [wake-publish] + [clock-chain] relaxation must
// keep intact on eager STM, lazy STM, and sim-HTM alike.
// --------------------------------------------------------------------------
class LitmusBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(LitmusBackendTest, CommitAfterRegistrationIsNeverLost) {
  TmConfig cfg;
  cfg.backend = GetParam();
  cfg.orec_table_log2 = 12;
  cfg.max_threads = 16;
  Runtime rt(cfg);
  constexpr int kRounds = 25;
  std::uint64_t cell = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t target = static_cast<std::uint64_t>(round) + 1;
    std::atomic<bool> timed_out{false};
    std::thread waiter([&] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(cell) < target) {
          if (tx.RetryFor(std::chrono::seconds(20)) ==
              WaitResult::kTimedOut) {
            // mo: release — [harness] publish the failure to the test body.
            timed_out.store(true, std::memory_order_release);
          }
        }
      });
    });
    // Wait until the waiter is observably asleep so the commit below races
    // the registration path, not thread startup.
    for (int i = 0; i < 100000; ++i) {
      if (rt.AggregateStats().Get(Counter::kSleeps) >=
          static_cast<std::uint64_t>(round) + 1) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    Atomically(rt.sys(), [&](Tx& tx) { tx.Store(cell, target); });
    waiter.join();
    // mo: acquire — [harness] observe worker-published state.
    ASSERT_FALSE(timed_out.load(std::memory_order_acquire))
        << "lost wakeup on " << BackendName(GetParam()) << " round " << round;
  }
}

// --------------------------------------------------------------------------
// Privatization under park/unpark churn, end to end on every backend.
// Readers alternate plain read transactions with Retry waits on their own
// gate cell, so they keep parking (setting their quiescence parked bit) and
// waking straight into a transaction that dereferences the shared node. A
// writer swaps the node and, once its commit returns, poisons and frees the
// old one non-transactionally. A reader that a commit's quiescence scan
// wrongly skipped would commit having seen the poison.
// --------------------------------------------------------------------------
constexpr std::uint64_t kAlive = 0xA11FE;
constexpr std::uint64_t kDead = 0xDEAD;
struct PrivNode {
  TVar<std::uint64_t> magic{kAlive};
};
struct alignas(64) Gate {
  TVar<std::uint64_t> v;
};

TEST_P(LitmusBackendTest, ParkingReadersNeverSeePrivatizedMemory) {
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 2000;
  constexpr int kSwaps = 2000;
  TmConfig cfg;
  cfg.backend = GetParam();
  cfg.orec_table_log2 = 12;
  cfg.max_threads = 16;
  Runtime rt(cfg);
  TVar<PrivNode*> head(new PrivNode);
  Gate gates[kReaders];
  std::atomic<int> poisoned_reads{0};
  std::atomic<bool> readers_done{false};

  auto read_node = [&](Tx& tx) {
    PrivNode* n = tx.Load(head);
    Dwell();  // widen the window in which the writer may swap and free n
    return tx.Load(n->magic);
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t seen_gate = 0;
      for (int i = 0; i < kReadsPerReader; ++i) {
        std::uint64_t magic = 0;
        if (i % 4 == 3) {
          // Park until the gate moves, then read the node in the same
          // transaction the wakeup re-executes.
          Atomically(rt.sys(), [&](Tx& tx) {
            const std::uint64_t g = tx.Load(gates[r].v);
            if (g == seen_gate) {
              tx.Retry();
            }
            seen_gate = g;
            magic = read_node(tx);
          });
        } else {
          Atomically(rt.sys(), [&](Tx& tx) { magic = read_node(tx); });
        }
        if (magic != kAlive) {
          // mo: acq_rel — [harness] cross-thread counter/flag RMW.
          poisoned_reads.fetch_add(1, std::memory_order_acq_rel);
        }
      }
    });
  }
  std::thread gatekeeper([&] {
    // mo: acquire — [harness] observe worker-published state.
    while (!readers_done.load(std::memory_order_acquire)) {
      for (Gate& g : gates) {
        Atomically(rt.sys(), [&](Tx& tx) { tx.Store(g.v, tx.Load(g.v) + 1); });
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::thread writer([&] {
    for (int i = 0; i < kSwaps; ++i) {
      PrivNode* fresh = new PrivNode;
      PrivNode* old = nullptr;
      Atomically(rt.sys(), [&](Tx& tx) {
        old = tx.Load(head);
        tx.Store(head, fresh);
      });
      old->magic.UnsafeWrite(kDead);  // privatized: no transaction sees it
      delete old;
    }
  });
  for (auto& t : readers) {
    t.join();
  }
  // mo: release — [harness] publish state to other harness threads.
  readers_done.store(true, std::memory_order_release);
  gatekeeper.join();
  writer.join();
  delete head.UnsafeRead();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(poisoned_reads.load(std::memory_order_acquire), 0)
      << "a reader committed after reading privatized memory on "
      << BackendName(GetParam());
  EXPECT_GT(rt.AggregateStats().Get(Counter::kSleeps), 0u)
      << "readers never parked; the test lost its shape";
}

// Registration under thread churn, end to end on every backend: short-lived
// reader threads each run a few transactions that dereference the shared node
// and exit, two at a time, so the first readers take fresh tids and every
// later one a recycled tid. A reader whose registration did not clear its
// not-running bit would be skipped by the writer's quiescence scan and could
// commit having read the poisoned (and freed) node.
TEST_P(LitmusBackendTest, ShortLivedReadersNeverSeePrivatizedMemory) {
  constexpr int kWaves = 150;
  constexpr int kPerWave = 2;
  constexpr int kReadsPerReader = 10;
  TmConfig cfg;
  cfg.backend = GetParam();
  cfg.orec_table_log2 = 12;
  cfg.max_threads = 8;  // far fewer than the readers: tids must recycle
  Runtime rt(cfg);
  TVar<PrivNode*> head(new PrivNode);
  std::atomic<int> poisoned_reads{0};
  std::atomic<bool> readers_done{false};
  std::thread writer([&] {
    // mo: acquire — [harness] observe worker-published state.
    while (!readers_done.load(std::memory_order_acquire)) {
      PrivNode* fresh = new PrivNode;
      PrivNode* old = nullptr;
      Atomically(rt.sys(), [&](Tx& tx) {
        old = tx.Load(head);
        tx.Store(head, fresh);
      });
      old->magic.UnsafeWrite(kDead);  // privatized: no transaction sees it
      delete old;
    }
  });
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> readers;
    for (int r = 0; r < kPerWave; ++r) {
      readers.emplace_back([&] {
        for (int i = 0; i < kReadsPerReader; ++i) {
          const std::uint64_t magic = Atomically(rt.sys(), [&](Tx& tx) {
            PrivNode* n = tx.Load(head);
            Dwell();  // widen the window in which the writer may free n
            return tx.Load(n->magic);
          });
          if (magic != kAlive) {
            // mo: acq_rel — [harness] cross-thread counter/flag RMW.
            poisoned_reads.fetch_add(1, std::memory_order_acq_rel);
          }
        }
      });
    }
    for (auto& t : readers) {
      t.join();
    }
  }
  // mo: release — [harness] publish state to other harness threads.
  readers_done.store(true, std::memory_order_release);
  writer.join();
  delete head.UnsafeRead();
  // mo: acquire — [harness] observe worker-published state.
  EXPECT_EQ(poisoned_reads.load(std::memory_order_acquire), 0)
      << "a reader committed after reading privatized memory on "
      << BackendName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, LitmusBackendTest,
    ::testing::Values(Backend::kEagerStm, Backend::kLazyStm,
                      Backend::kSimHtm),
    [](const ::testing::TestParamInfo<Backend>& info) {
      std::string out = BackendName(info.param);
      for (char& c : out) {
        if (c == '-') {
          c = '_';
        }
      }
      return out;
    });

}  // namespace
}  // namespace tcs
