#include "src/tm/quiesce.h"

#include "src/common/assert.h"
#include "src/common/cpu.h"

namespace tcs {

QuiesceTable::QuiesceTable(int max_threads)
    : dir_(max_threads), max_threads_(max_threads) {
  TCS_CHECK(max_threads > 0);
}

void QuiesceTable::WaitForReadersBefore(std::uint64_t time, int self) const {
  dir_.ForEach([&](int si, const Segment& seg) {
    const int base = si * kCondSyncSegmentSize;
    for (int w = 0; w < kCondSyncSegmentWords; ++w) {
      // mo: seq_cst — [quiesce-dekker] parked leg, committer side: the load
      // follows the commit's seq_cst clock Increment.
      // seq_cst-required: store-buffering exclusion against MarkRunning's
      // clear — either this load sees the clear and the slot is scanned, or
      // it precedes the clear in S and the returning thread's clock sample
      // sees this commit; an acquire load could read a stale set bit while
      // that thread's sample also misses the commit.
      std::uint64_t running = ~seg.parked[w].load(std::memory_order_seq_cst);
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
