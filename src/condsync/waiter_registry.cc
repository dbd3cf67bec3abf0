#include "src/condsync/waiter_registry.h"

#include "src/common/assert.h"

namespace tcs {

WaiterRegistry::WaiterRegistry(int max_threads)
    : capacity_(max_threads),
      summary_words_((((max_threads + kCondSyncSegmentSize - 1) >>
                       kCondSyncSegmentShift) +
                      63) /
                     64),
      dir_(max_threads) {
  TCS_CHECK(max_threads > 0);
  summary_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(summary_words_));
  for (int w = 0; w < summary_words_; ++w) {
    // mo: relaxed — single-threaded construction; the registry is published
    // to worker threads by the owning runtime's thread-start edge.
    summary_[w].store(0, std::memory_order_relaxed);
  }
}

WaiterRegistry::Segment& WaiterRegistry::SegmentFor(int si) {
  bool won = false;
  Segment& seg = dir_.Ensure(
      si,
      [] {
        auto fresh = std::make_unique<Segment>();
        for (auto& w : fresh->mask) {
          // mo: relaxed — pre-publication init; the [seg-publish] CAS
          // releases it to every acquire directory load.
          w.store(0, std::memory_order_relaxed);
        }
        return fresh;
      },
      &won);
  TCS_PROTO(if (won && checker_ != nullptr) checker_->OnSegmentPublished(
                ProtocolChecker::SegmentKind::kWaiterRegistry, si));
  (void)won;
  return seg;
}

void WaiterRegistry::RepairSummary(int si) {
  const std::uint64_t segbit = std::uint64_t{1} << (si % 64);
  Segment* seg = dir_.Get(si);
  SpinLockGuard g(repair_lock_);
  // mo: relaxed — [wake-publish] rider: seqlock enter (odd). Readers never
  // act on this value alone; one that observes the transient clear below
  // synchronizes through that acq_rel RMW, which orders this increment
  // before its validation re-read.
  repair_gen_.fetch_add(1, std::memory_order_relaxed);
  // mo: acq_rel — [wake-publish]: the repair's transient clear. Release: a
  // reader that observes the cleared word synchronizes with it and must see
  // the odd generation (retry). Acquire: if a racing registration's summary
  // fetch_or precedes this RMW in the word's modification order, this
  // operation synchronizes with it, so the rescan below is guaranteed to see
  // that registration's segment-mask bit (set before its summary bit) and
  // re-set; if it follows, the registration's own RMW re-sets the bit. Either
  // interleaving leaves the bit set once both complete.
  summary_[si / 64].fetch_and(~segbit, std::memory_order_acq_rel);
  bool occupied = false;
  for (int w = 0; w < kCondSyncSegmentWords; ++w) {
    // mo: acquire — [wake-publish]: rescan of the segment presence mask,
    // ordered after the clear above (see its annotation for why a racing
    // registration's bit is visible here when it must be).
    if (seg->mask[w].load(std::memory_order_acquire) != 0) {
      occupied = true;
      break;
    }
  }
  if (occupied) {
    // mo: release — [wake-publish]: conservative re-set, same publication
    // contract as MarkRegistered's summary fetch_or.
    summary_[si / 64].fetch_or(segbit, std::memory_order_release);
  }
  // mo: release — [wake-publish] rider: seqlock exit (even); orders the
  // repair's clear/re-set before any reader whose generation pre-read
  // acquires this value, so such a reader sees the repaired state, not the
  // transient clear.
  repair_gen_.fetch_add(1, std::memory_order_release);
}

std::size_t WaiterRegistry::FootprintBytes() const {
  return dir_.DirectoryBytes() +
         static_cast<std::size_t>(summary_words_) * sizeof(summary_[0]) +
         static_cast<std::size_t>(dir_.Allocated()) * sizeof(Segment);
}

}  // namespace tcs
