// Commit-time quiescence for privatization safety (Appendix A, TxCommit line 20).
//
// After a writer commit at time `end`, the committer waits until no other thread is
// still executing a transaction that began before `end`. Such a straggler might
// otherwise read memory the committer just privatized and is about to reclaim or
// access non-transactionally. This matches the "privatization-safe variant of
// TinySTM" ("ml-wt") the paper benchmarks.
//
// Capacity tier: slots live in lazily allocated 256-thread segments behind a
// SegmentDirectory ([seg-publish]), so a 64Ki-thread ceiling costs a few
// directory words, not a 4MB slab, and the commit-path scan stops at the
// directory's high-water mark. A null directory entry (or one past the mark)
// is safe to skip: a thread's segment publication is sequenced before its
// first SetActive, and SetActive's seq_cst store orders all program-order-
// earlier stores before itself — so any committer whose [quiesce-dekker]
// anchor obliges it to observe the straggler's slot also observes the segment
// pointer, and a committer that reads null is one the straggler's clock
// sample is ordered after (start ≥ end).
//
// Parked bitmap. A writer must not pay for threads parked in a condition
// wait, so each segment also keeps one *parked* bit per slot, and the scan
// visits only slots whose bit is clear. DescheduleImpl sets the bit
// (MarkParked) after the registration transaction's SetInactive, just before
// the thread's ParkSpot wait, and clears it (MarkRunning) when the wait
// returns, before the thread's next SetActive. A parked thread is therefore
// never mid-transaction. The clear is the parked leg of [quiesce-dekker]:
// the committer reads the bitmap with a seq_cst load after its seq_cst clock
// Increment, so either the load sees the clear (and the scan then waits on
// the slot as before), or it precedes the clear in the single total order —
// and then so does the Increment, so the thread's later clock sample and
// orec samples see this commit, exactly the start ≥ end case. Park sites that
// do not mark themselves stay scanned, which is merely the pre-bitmap cost.
// Slots no thread has claimed stay clear and are scanned too.
#ifndef TCS_TM_QUIESCE_H_
#define TCS_TM_QUIESCE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/common/cache_line.h"
#include "src/condsync/segment.h"

namespace tcs {

class QuiesceTable {
 public:
  explicit QuiesceTable(int max_threads);

  QuiesceTable(const QuiesceTable&) = delete;
  QuiesceTable& operator=(const QuiesceTable&) = delete;

  // Publishes that `tid` is running a transaction that began at `start`.
  // mo: seq_cst — [quiesce-dekker] reader leg: W(slot)/R(clock) against the
  // committer's W(clock)/R(slot).
  // seq_cst-required: store-buffering exclusion — either the quiescence scan
  // sees this slot active (and waits for it), or this thread's clock sample
  // is ordered after the commit's increment and start ≥ end; release on the
  // store would let both sides read stale values and privatized memory be
  // reused under a still-running reader.
  void SetActive(int tid, std::uint64_t start) {
    SlotOf(tid).start.store(start, std::memory_order_seq_cst);
  }

  // mo: release — pairs with WaitForReadersBefore's acquire load: the
  // transaction's last transactional read is ordered before the committer
  // proceeds to reuse privatized memory.
  void SetInactive(int tid) {
    SlotOf(tid).start.store(kInactive, std::memory_order_release);
  }

  // Sets tid's parked bit: the thread is outside any transaction and will
  // MarkRunning before its next SetActive. Called by the owning thread after
  // its SetInactive, just before it parks.
  void MarkParked(int tid) {
    const int rel = tid & (kCondSyncSegmentSize - 1);
    // mo: release — [quiesce-dekker] rider: orders the SetInactive (and the
    // transaction's last reads) before the bit, so a committer whose
    // seq_cst bitmap load reads it — and therefore skips the slot — is
    // synchronized with them; the Dekker anchor is MarkRunning's clear.
    SegmentOf(tid).parked[rel / 64].fetch_or(std::uint64_t{1} << (rel % 64),
                                             std::memory_order_release);
  }

  // Clears tid's parked bit. Called by the owning thread when its park
  // returns, before its next SetActive.
  void MarkRunning(int tid) {
    const int rel = tid & (kCondSyncSegmentSize - 1);
    // mo: seq_cst — [quiesce-dekker] parked leg: W(parked)/R(clock, orecs)
    // against the committer's W(clock)/R(parked).
    // seq_cst-required: store-buffering exclusion — either the committer's
    // bitmap load sees this clear and scans the slot, or it precedes the clear
    // in S and this thread's next clock sample sees the commit (start ≥ end);
    // with release/acquire both could read stale values and a straggler
    // slipping back into a transaction would go unscanned.
    SegmentOf(tid).parked[rel / 64].fetch_and(
        ~(std::uint64_t{1} << (rel % 64)), std::memory_order_seq_cst);
  }

  // Blocks until every running thread other than `self` either is inactive or
  // is running a transaction that started at or after `time`.
  void WaitForReadersBefore(std::uint64_t time, int self) const;

  int max_threads() const { return max_threads_; }

 private:
  static constexpr std::uint64_t kInactive = ~std::uint64_t{0};

  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> start{kInactive};
  };
  struct Segment {
    // One bit per slot; set = the slot's thread is parked, not mid-transaction.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t>
        parked[kCondSyncSegmentWords] = {};
    Slot slots[kCondSyncSegmentSize];
  };

  // The segment holding `tid`'s slot, allocated on first touch.
  Segment& SegmentOf(int tid) {
    return dir_.Ensure(tid >> kCondSyncSegmentShift,
                       [] { return std::make_unique<Segment>(); });
  }
  Slot& SlotOf(int tid) {
    return SegmentOf(tid).slots[tid & (kCondSyncSegmentSize - 1)];
  }

  SegmentDirectory<Segment> dir_;
  int max_threads_;
};

}  // namespace tcs

#endif  // TCS_TM_QUIESCE_H_
