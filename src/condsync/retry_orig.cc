#include "src/condsync/retry_orig.h"

#include <unordered_set>

#include "src/common/assert.h"

namespace tcs {

RetryOrigRegistry::RetryOrigRegistry(int max_threads)
    : max_threads_(max_threads) {
  TCS_CHECK(max_threads > 0);
}

RetryOrigRegistry::Entry& RetryOrigRegistry::EntryOf(int tid) {
  TCS_CHECK(tid >= 0 && tid < max_threads_);
  if (static_cast<std::size_t>(tid) >= entries_.size()) {
    entries_.resize(static_cast<std::size_t>(tid) + 1);
  }
  return entries_[static_cast<std::size_t>(tid)];
}

void RetryOrigRegistry::WaitForOverlap(TxDesc& d,
                                       std::vector<const Orec*> read_orecs,
                                       std::uint64_t start,
                                       const std::vector<ReleasedOrec>& released) {
  // The count is raised before validation; a committing writer that reads zero is
  // thereby guaranteed to have released its orecs before our validation loads,
  // so validation will observe its commit ([retry-dekker] pairing with the
  // commit path that calls HasWaiters/OnWriterCommit).
  // mo: relaxed — [retry-dekker] rider: the raise is anchored by the seq_cst
  // fence just below; the RMW itself only needs atomicity.
  count_.fetch_add(1, std::memory_order_relaxed);
  // mo: seq_cst fence — [retry-dekker] waiter leg.
  // seq_cst-required: store-buffering exclusion — W(count_)/R(orecs) here vs
  // the writer's W(orecs)/R(count_); acquire/release fences cannot forbid both
  // sides reading the pre-update values ([atomics.fences]).
  std::atomic_thread_fence(std::memory_order_seq_cst);

  bool slept = false;
  {
    SpinLockGuard g(lock_);
    bool valid = true;
    for (const Orec* o : read_orecs) {
      // mo: acquire — [orec-publish], and a [retry-dekker] rider: the waiter's
      // seq_cst fence above orders this load after the count raise, so either
      // it sees the writer's orec release or the writer's count peek sees us
      // and its OnWriterCommit posts our wake token.
      std::uint64_t w = o->word.load(std::memory_order_acquire);
      if (!Orec::IsLocked(w) && Orec::Version(w) <= start) {
        continue;
      }
      // An orec this transaction itself wrote was bumped by our own rollback;
      // that does not constitute a change (see header).
      bool own_release = false;
      for (const ReleasedOrec& r : released) {
        if (r.orec == o && r.word_after_release == w) {
          own_release = true;
          break;
        }
      }
      if (!own_release) {
        valid = false;
        break;
      }
    }
    if (valid) {
      Entry& e = EntryOf(d.tid);
      e.reads = std::move(read_orecs);
      e.spot = &d.park;
      e.sleeping = true;
      slept = true;
    }
  }
  if (slept) {
    d.stats.Bump(Counter::kSleeps);
    d.park.ConsumeToken();
    SpinLockGuard g(lock_);
    // Re-fetch: another waiter's first registration may have grown entries_
    // while we slept, invalidating any reference held across the unlock.
    Entry& e = EntryOf(d.tid);
    e.sleeping = false;
    e.reads.clear();
  }
  // mo: relaxed — [retry-dekker] rider: per-word coherence keeps the lowering
  // after the raise; a writer that still sees the raised count merely takes
  // the scan slow path and finds no sleeping entry under the lock.
  count_.fetch_sub(1, std::memory_order_relaxed);
  d.stats.Bump(Counter::kDeschedules);
}

void RetryOrigRegistry::OnWriterCommit(const std::vector<const Orec*>& write_orecs) {
  if (write_orecs.empty()) {
    return;
  }
  // Build the intersection probe once per commit.
  std::unordered_set<const Orec*> writes(write_orecs.begin(), write_orecs.end());
  SpinLockGuard g(lock_);
  for (Entry& e : entries_) {
    if (!e.sleeping) {
      continue;
    }
    for (const Orec* o : e.reads) {
      if (writes.count(o) != 0) {
        e.sleeping = false;
        e.spot->Post();
        break;
      }
    }
  }
}

void RetryOrigRegistry::WakeAllSleepers() {
  SpinLockGuard g(lock_);
  for (Entry& e : entries_) {
    if (e.sleeping) {
      e.sleeping = false;
      e.spot->Post();
    }
  }
}

}  // namespace tcs
