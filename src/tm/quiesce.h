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
// Not-running bitmap. A writer must not pay for threads that cannot be inside
// a transaction, so each segment keeps one *not-running* bit per slot, and the
// scan visits only slots whose bit is clear. A set bit means the slot was
// never claimed, its thread has exited, or its thread is parked in a
// condition wait. A fresh segment starts with every bit set; the bits then
// change at exactly three places, never per transaction:
//  * registration: TmSystem::RegisterThread clears the new owner's bit
//    (MarkRunning) before returning the descriptor, so before the thread's
//    first SetActive, for fresh and recycled tids alike;
//  * thread exit: TmSystem::ReleaseTid sets it (MarkParked: an exited thread
//    is parked for good) once the thread has left its last transaction;
//  * parking: the condition wait (deschedule.cc) sets it after the registration
//    transaction's SetInactive, just before the ParkSpot wait, and clears it
//    when the wait returns, before the thread's next SetActive.
// So a thread whose bit is set is never mid-transaction. Every clear is the
// [quiesce-dekker] run-state leg: the committer reads the bitmap with a
// seq_cst load after its seq_cst clock Increment, so either the load sees the
// clear (and the scan then waits on the slot as before), or it precedes the
// clear in the single total order — and then so does the Increment, so the
// thread's later clock sample and orec samples see this commit, exactly the
// start ≥ end case. The argument does not care why the bit was set, which is
// why registration reuses the park's leg instead of adding a seq_cst site.
// With TCS_PROTOCOL_CHECKS, a SetActive on a slot whose bit is set is a
// protocol violation: it is the missing clear that would let a scan skip a
// running transaction.
#ifndef TCS_TM_QUIESCE_H_
#define TCS_TM_QUIESCE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/common/cache_line.h"
#include "src/condsync/segment.h"
#include "src/tm/protocol_checker.h"

namespace tcs {

class QuiesceTable {
 public:
  explicit QuiesceTable(int max_threads);

  QuiesceTable(const QuiesceTable&) = delete;
  QuiesceTable& operator=(const QuiesceTable&) = delete;

  // Publishes that `tid` is running a transaction that began at `start`. The
  // thread must be running (its not-running bit clear; see the file comment).
  void SetActive(int tid, std::uint64_t start) {
    Segment& seg = SegmentOf(tid);
#if TCS_PROTOCOL_CHECKS
    if (checker_ != nullptr) {
      checker_->OnQuiesceActive(tid, NotRunningIn(seg, tid));
    }
#endif
    // mo: seq_cst — [quiesce-dekker] reader leg: W(slot)/R(clock) against the
    // committer's W(clock)/R(slot).
    // seq_cst-required: store-buffering exclusion — either the quiescence scan
    // sees this slot active (and waits for it), or this thread's clock sample
    // is ordered after the commit's increment and start ≥ end; release on the
    // store would let both sides read stale values and privatized memory be
    // reused under a still-running reader.
    seg.slots[tid & (kCondSyncSegmentSize - 1)].start.store(
        start, std::memory_order_seq_cst);
  }

  // mo: release — pairs with WaitForReadersBefore's acquire load: the
  // transaction's last transactional read is ordered before the committer
  // proceeds to reuse privatized memory.
  void SetInactive(int tid) {
    SlotOf(tid).start.store(kInactive, std::memory_order_release);
  }

  // Sets tid's not-running bit: the thread is outside any transaction and
  // will MarkRunning before its next SetActive, or has exited. Called by the
  // owning thread after its SetInactive, just before it parks or exits.
  void MarkParked(int tid) {
    const int rel = tid & (kCondSyncSegmentSize - 1);
    // mo: release — [quiesce-dekker] rider: orders the SetInactive (and the
    // transaction's last reads) before the bit, so a committer whose
    // seq_cst bitmap load reads it — and therefore skips the slot — is
    // synchronized with them; the Dekker anchor is MarkRunning's clear.
    SegmentOf(tid).not_running[rel / 64].fetch_or(
        std::uint64_t{1} << (rel % 64), std::memory_order_release);
  }

  // Clears tid's not-running bit. Called by the thread that owns the slot
  // when it registers and when its park returns, before its next SetActive.
  void MarkRunning(int tid) {
    const int rel = tid & (kCondSyncSegmentSize - 1);
    // mo: seq_cst — [quiesce-dekker] run-state leg: W(bit)/R(clock, orecs)
    // against the committer's W(clock)/R(bitmap).
    // seq_cst-required: store-buffering exclusion — either the committer's
    // bitmap load sees this clear and scans the slot, or it precedes the clear
    // in S and this thread's next clock sample sees the commit (start ≥ end);
    // with release/acquire both could read stale values and a straggler
    // slipping into a transaction would go unscanned.
    SegmentOf(tid).not_running[rel / 64].fetch_and(
        ~(std::uint64_t{1} << (rel % 64)), std::memory_order_seq_cst);
  }

  // Number of slots WaitForReadersBefore would visit: those whose
  // not-running bit is clear. Monitoring and tests only.
  int RunningSlots() const;

  // Violations are reported to `checker` (domain-owned tables only).
  void AttachProtocolChecker(ProtocolChecker* checker) { checker_ = checker; }

  // Blocks until every running thread other than `self` either is inactive or
  // is running a transaction that started at or after `time`.
  void WaitForReadersBefore(std::uint64_t time, int self) const;

  int max_threads() const { return max_threads_; }

 private:
  static constexpr std::uint64_t kInactive = ~std::uint64_t{0};

  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> start{kInactive};
  };
  static_assert(kCondSyncSegmentWords == 4);
  struct Segment {
    // One bit per slot; set = no transaction can be running there (never
    // claimed, exited, or parked). A fresh segment's slots are all unclaimed.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t>
        not_running[kCondSyncSegmentWords] = {~std::uint64_t{0}, ~std::uint64_t{0},
                                              ~std::uint64_t{0}, ~std::uint64_t{0}};
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

#if TCS_PROTOCOL_CHECKS
  // Only the owning thread changes its own bit, so its relaxed load sees the
  // latest value of that bit.
  static bool NotRunningIn(const Segment& seg, int tid) {
    const int rel = tid & (kCondSyncSegmentSize - 1);
    // mo: relaxed — owner-read of a bit only the owner writes (checker only).
    return (seg.not_running[rel / 64].load(std::memory_order_relaxed) >>
            (rel % 64)) & 1;
  }
#endif

  SegmentDirectory<Segment> dir_;
  int max_threads_;
  ProtocolChecker* checker_ = nullptr;
};

}  // namespace tcs

#endif  // TCS_TM_QUIESCE_H_
