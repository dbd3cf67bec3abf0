#include "src/tm/quiesce.h"

#include "src/common/assert.h"
#include "src/common/cpu.h"

namespace tcs {

QuiesceTable::QuiesceTable(int max_threads)
    : dir_(max_threads), max_threads_(max_threads) {
  TCS_CHECK(max_threads > 0);
}

int QuiesceTable::RunningSlots() const {
  int n = 0;
  dir_.ForEach([&](int, const Segment& seg) {
    for (const auto& word : seg.not_running) {
      // mo: acquire — monitoring read; pairs with MarkParked's release so a
      // slot counted as not running has left its last transaction.
      n += __builtin_popcountll(~word.load(std::memory_order_acquire));
    }
  });
  return n;
}

void QuiesceTable::WaitForReadersBefore(std::uint64_t time, int self) const {
  dir_.ForEach([&](int si, const Segment& seg) {
    const int base = si * kCondSyncSegmentSize;
    for (int w = 0; w < kCondSyncSegmentWords; ++w) {
      // mo: seq_cst — [quiesce-dekker] run-state leg, committer side: the
      // load follows the commit's seq_cst clock Increment.
      // seq_cst-required: store-buffering exclusion against MarkRunning's
      // clear — either this load sees the clear and the slot is scanned, or
      // it precedes the clear in S and the registering or unparking thread's
      // clock sample sees this commit; an acquire load could read a stale set
      // bit while that thread's sample also misses the commit.
      std::uint64_t running =
          ~seg.not_running[w].load(std::memory_order_seq_cst);
      while (running != 0) {
        const int r = w * 64 + __builtin_ctzll(running);
        running &= running - 1;
        if (base + r == self) {
          continue;
        }
        int spins = 0;
        // mo: acquire — pairs with SetInactive's release store (and
        // SetActive's seq_cst store): once a straggler advances past `time`,
        // its prior transactional reads happen-before this committer's
        // return.
        while (seg.slots[r].start.load(std::memory_order_acquire) < time) {
          if (++spins < 64) {
            CpuRelax();
          } else {
            CpuYield();
            spins = 0;
          }
        }
      }
    }
  });
}

}  // namespace tcs
