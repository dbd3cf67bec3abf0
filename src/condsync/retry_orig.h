// Retry-Orig: the original STM-coupled Retry mechanism (Algorithm 1), adapted from
// Harris et al.'s Haskell design. Used as the evaluation's baseline "Retry-Orig".
//
// A retrying transaction publishes the *ownership records* of its read set to a
// global waiting list (under the global waiting lock, exactly as Algorithm 1
// presents it); every subsequent writer commit intersects its write-orec set with
// each sleeper's read-orec set and signals on overlap. This is the mechanism the
// paper argues against: it is tied to STM metadata (so it is orec-granular and
// wakes on silent stores) and is incompatible with HTM, which exposes no write set.
//
// One refinement over the pseudocode: Algorithm 1 validates `reads` under the
// waiting lock with the transaction's start time, but an eager transaction that
// wrote some of the locations it read has just release-for-abort-bumped those
// orecs itself. Validation therefore accepts an orec whose current word equals the
// value this thread's own rollback stored ("released" below); any later writer
// commit moves the orec past that value, so the check stays conservative.
//
// Lost-wakeup exclusion is the [retry-dekker] store-buffering shape (glossary in
// wake_index.h). Waiter: raise count_ (relaxed RMW), seq_cst fence, validate the
// read orecs. Writer: release its orecs, seq_cst fence (commit path in
// tm_system.cc), peek count_. The two fences are the only seq_cst the protocol
// needs — [atomics.fences] forbids both sides missing each other, so either
// validation observes the commit (waiter restarts) or the peek observes the
// raised count (writer scans and posts). The count ops themselves are relaxed
// riders anchored by the fences.
//
// Only the writer's POST-fence peek participates in that exclusion. The commit
// path also peeks count_ earlier, inside SnapshotCommitOrecsIfNeeded, to decide
// whether copying the write-orec set is worth it — that peek runs before the
// fence, so the store-buffering outcome can make it miss a racing registration.
// Missing there is safe because it only skips the copy: when the post-fence
// peek then finds waiters with no snapshot to intersect, the commit path calls
// WakeAllSleepers() instead of OnWriterCommit() — every sleeper restarts,
// revalidates under the waiting lock, and re-sleeps if still valid, so the
// race costs a spurious wakeup, never a lost one.
#ifndef TCS_CONDSYNC_RETRY_ORIG_H_
#define TCS_CONDSYNC_RETRY_ORIG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/parking_lot.h"
#include "src/common/spin_lock.h"
#include "src/tm/orec_table.h"
#include "src/tm/tx_desc.h"

namespace tcs {

class RetryOrigRegistry {
 public:
  // `max_threads` only bounds tids; the per-tid entry table grows lazily under
  // the waiting lock, so a 64Ki-thread ceiling costs nothing up front. Sleepers
  // park on their descriptor's ParkSpot.
  explicit RetryOrigRegistry(int max_threads);

  RetryOrigRegistry(const RetryOrigRegistry&) = delete;
  RetryOrigRegistry& operator=(const RetryOrigRegistry&) = delete;

  // Waiter-presence peek used by committing writers, at two sites with two
  // different strengths of guarantee (see the header comment): after the
  // commit-side seq_cst fence in tm_system.cc it is the sound [retry-dekker]
  // R-leg; before that fence (SnapshotCommitOrecsIfNeeded) it is only a
  // heuristic that may miss a racing registration, and the caller must treat
  // a miss as "skip an optimization", never "skip the wakeup".
  // mo: relaxed — [retry-dekker] rider: the gating peek is ordered by the
  // writer's commit-side seq_cst fence (tm_system.cc), which excludes the SB
  // outcome against the waiter's raise+fence in WaitForOverlap; the pre-fence
  // snapshot peek is heuristic-only (misses fall back to WakeAllSleepers).
  // The load itself only needs atomicity.
  bool HasWaiters() const { return count_.load(std::memory_order_relaxed) > 0; }

  // Algorithm 1, Retry lines 3-8: under the waiting lock, re-validate the read
  // orecs against `start` (honoring `released`, see above); if still valid,
  // publish the read set and park on d.park. Returns after wakeup, or
  // immediately when validation failed. The caller restarts either way.
  struct ReleasedOrec {
    const Orec* orec;
    std::uint64_t word_after_release;
  };
  void WaitForOverlap(TxDesc& d, std::vector<const Orec*> read_orecs,
                      std::uint64_t start, const std::vector<ReleasedOrec>& released);

  // Algorithm 1, TxCommit lines 10-15: wake every sleeper whose read-orec set
  // intersects this writer's write-orec set.
  void OnWriterCommit(const std::vector<const Orec*>& write_orecs);

  // Conservative fallback for a writer whose post-fence HasWaiters peek found
  // waiters but whose pre-fence snapshot heuristic skipped copying the write
  // set (tm_system.cc Commit): with no write-orec set left to intersect, wake
  // every sleeper. Spurious for non-overlapping sleepers, never wrong — each
  // woken waiter restarts, revalidates under the waiting lock, and re-sleeps
  // if its reads are still valid.
  void WakeAllSleepers();

 private:
  struct Entry {
    std::vector<const Orec*> reads;
    ParkSpot* spot = nullptr;
    bool sleeping = false;
  };

  // The entry for `tid`, growing the table if needed. Caller holds lock_; the
  // returned reference is invalidated by any later growth, so it must be
  // re-fetched after every lock reacquisition.
  Entry& EntryOf(int tid);

  int max_threads_;
  SpinLock lock_;  // Algorithm 1's global `waiting` lock
  std::vector<Entry> entries_;  // grown lazily under lock_
  std::atomic<int> count_{0};
};

}  // namespace tcs

#endif  // TCS_CONDSYNC_RETRY_ORIG_H_
