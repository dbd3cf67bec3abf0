#include "src/condsync/wake_index.h"

#include "src/common/cpu.h"

namespace tcs {

namespace {

bool IsPowerOfTwo(int v) { return v > 0 && (v & (v - 1)) == 0; }

int Log2(int v) {
  int l = 0;
  while ((1 << l) < v) {
    ++l;
  }
  return l;
}

}  // namespace

WakeIndex::WakeIndex(int max_threads, int num_shards, int gate_log2)
    : capacity_(max_threads),
      num_shards_(num_shards),
      shards_log2_(Log2(num_shards)),
      shard_words_((num_shards + 63) / 64),
      summary_words_((((max_threads + kCondSyncSegmentSize - 1) >>
                       kCondSyncSegmentShift) +
                      63) /
                     64),
      gate_log2_(gate_log2),
      dir_(max_threads) {
  TCS_CHECK(max_threads > 0);
  TCS_CHECK_MSG(IsPowerOfTwo(num_shards) && num_shards <= kMaxShards,
                "wake-index shard count must be a power of two in [1, 4096]");
  TCS_CHECK_MSG(gate_log2 >= 0 && gate_log2 <= kMaxGateLog2,
                "wake-index gate size must be 2^0..2^16 buckets");
  gate_.reset(static_cast<std::uint32_t*>(
      std::calloc(static_cast<std::size_t>(gate_buckets()),
                  sizeof(std::uint32_t))));
  TCS_CHECK_MSG(gate_ != nullptr, "wake-index gate allocation failed");
  const std::size_t summary_len =
      static_cast<std::size_t>(num_shards_ + 1) * summary_words_;
  summary_ = std::make_unique<std::atomic<std::uint64_t>[]>(summary_len);
  for (std::size_t i = 0; i < summary_len; ++i) {
    // mo: relaxed — single-threaded construction; the index is published to
    // worker threads by the owning runtime's thread-start edge.
    summary_[i].store(0, std::memory_order_relaxed);
  }
}

WakeIndex::IndexSegment& WakeIndex::SegmentFor(int si) {
  bool won = false;
  IndexSegment& seg = dir_.Ensure(
      si,
      [&] {
        auto fresh = std::make_unique<IndexSegment>();
        const std::size_t slab_words =
            static_cast<std::size_t>(num_shards_) * kCondSyncSegmentWords;
        fresh->bits =
            std::make_unique<std::atomic<std::uint64_t>[]>(slab_words);
        for (std::size_t i = 0; i < slab_words; ++i) {
          // mo: relaxed — pre-publication init; the [seg-publish] CAS
          // releases these stores to every acquire directory load.
          fresh->bits[i].store(0, std::memory_order_relaxed);
        }
        for (auto& g : fresh->global) {
          // mo: relaxed — pre-publication init, same as the slab zeroing.
          g.store(0, std::memory_order_relaxed);
        }
        for (auto& fp : fresh->fingerprint) {
          // mo: relaxed — pre-publication init, same as the slab zeroing.
          fp.store(0, std::memory_order_relaxed);
        }
        // make_unique<T[]> value-initializes the bookkeeping arrays to zero.
        fresh->per_tid_shards = std::make_unique<std::uint64_t[]>(
            static_cast<std::size_t>(kCondSyncSegmentSize) * shard_words_);
        for (auto& g : fresh->per_tid_global) {
          g = 0;
        }
        return fresh;
      },
      &won);
  TCS_PROTO(if (won && checker_ != nullptr) checker_->OnSegmentPublished(
                ProtocolChecker::SegmentKind::kWakeIndex, si));
  (void)won;
  return seg;
}

void WakeIndex::RepairSummary(int row, int si) {
  IndexSegment* seg = dir_.Get(si);
  const std::uint64_t segbit = std::uint64_t{1} << (si % 64);
  SpinLockGuard g(repair_lock_);
  // mo: relaxed — [wake-publish] rider: seqlock enter (odd). A reader that
  // observes the transient clear below synchronizes through that acq_rel RMW,
  // which orders this increment before its validation re-read.
  repair_gen_.fetch_add(1, std::memory_order_relaxed);
  // mo: acq_rel — [wake-publish]: the transient clear. Release: a reader that
  // observes it must see the odd generation and retry. Acquire: a racing
  // registration whose MarkSummary precedes this RMW is synchronized with,
  // so the rescan below sees its insert and re-sets; one that follows re-sets
  // the bit itself.
  SummaryWord(row, si / 64).fetch_and(~segbit, std::memory_order_acq_rel);
  bool occupied = false;
  for (int w = 0; w < kCondSyncSegmentWords && !occupied; ++w) {
    // mo: acquire — [wake-publish]: rescan ordered after the clear above.
    occupied = (row == num_shards_
                    ? seg->global[w].load(std::memory_order_acquire)
                    : ShardWord(*seg, row, w).load(
                          std::memory_order_acquire)) != 0;
  }
  if (occupied) {
    // mo: release — [wake-publish]: conservative re-set, same publication
    // contract as MarkSummary.
    SummaryWord(row, si / 64).fetch_or(segbit, std::memory_order_release);
  }
  // mo: release — [wake-publish] rider: seqlock exit (even); a reader whose
  // generation pre-read acquires this value sees the repaired word.
  repair_gen_.fetch_add(1, std::memory_order_release);
}

std::uint64_t WakeIndex::StableSummaryWord(const std::uint64_t* shard_set,
                                           bool global, int cw) const {
  for (;;) {
    // mo: acquire — [wake-publish] rider: seqlock generation pre-read; the
    // summary loads below carry the edge, this read only brackets them.
    const std::uint64_t g1 = repair_gen_.load(std::memory_order_acquire);
    if ((g1 & 1) != 0) {
      CpuRelax();
      continue;  // Repair in flight; its transient clear may be visible.
    }
    std::uint64_t segs = 0;
    if (global) {
      // mo: acquire — [wake-publish]: read after the writer's commit RMW;
      // [clock-chain]'s release sequence carries every earlier registration's
      // MarkSummary here. Reading a repair's transient clear synchronizes
      // with it, forcing the re-read below to retry.
      segs = SummaryWord(num_shards_, cw).load(std::memory_order_acquire);
    } else {
      for (int sw = 0; sw < shard_words_; ++sw) {
        std::uint64_t ss = shard_set[sw];
        while (ss != 0) {
          const int s = sw * 64 + __builtin_ctzll(ss);
          ss &= ss - 1;
          // mo: acquire — [wake-publish]: same pairing as the global row.
          segs |= SummaryWord(s, cw).load(std::memory_order_acquire);
        }
      }
    }
    // mo: relaxed — [wake-publish] rider: seqlock validation re-read, ordered
    // after the summary loads by their acquire.
    if (repair_gen_.load(std::memory_order_relaxed) == g1) {
      return segs;
    }
  }
}

int WakeIndex::ShardPopulation(int s) const {
  int n = 0;
  dir_.ForEach([&](int, IndexSegment& seg) {
    for (int w = 0; w < kCondSyncSegmentWords; ++w) {
      // mo: acquire — [wake-publish]: introspection pairs with the release
      // inserts; callers that need a fresh count sequence their own barrier
      // (join/commit) before asking.
      n += __builtin_popcountll(
          ShardWord(seg, s, w).load(std::memory_order_acquire));
    }
  });
  return n;
}

int WakeIndex::GlobalPopulation() const {
  int n = 0;
  dir_.ForEach([&](int, const IndexSegment& seg) {
    for (int w = 0; w < kCondSyncSegmentWords; ++w) {
      // mo: acquire — [wake-publish]: same pairing as the shard scan above.
      n += __builtin_popcountll(seg.global[w].load(std::memory_order_acquire));
    }
  });
  return n;
}

bool WakeIndex::Empty() const {
  if (GlobalWaiterCount() != 0) {
    return false;
  }
  for (int b = 0; b < gate_buckets(); ++b) {
    if (GateCountAt(b) != 0) {
      return false;
    }
  }
  const std::size_t summary_len =
      static_cast<std::size_t>(num_shards_ + 1) * summary_words_;
  for (std::size_t i = 0; i < summary_len; ++i) {
    // mo: acquire — [wake-publish]: the leak check runs after every waiter
    // thread has joined (thread join orders the final repair before this
    // load), so acquire is already stronger than required.
    if (summary_[i].load(std::memory_order_acquire) != 0) {
      return false;
    }
  }
  bool empty = true;
  dir_.ForEach([&](int, const IndexSegment& seg) {
    for (int w = 0; w < kCondSyncSegmentWords; ++w) {
      // mo: acquire — [wake-publish]: same argument as the summary scan.
      if (seg.global[w].load(std::memory_order_acquire) != 0) {
        empty = false;
      }
    }
    const std::size_t slab_words =
        static_cast<std::size_t>(num_shards_) * kCondSyncSegmentWords;
    for (std::size_t i = 0; i < slab_words; ++i) {
      // mo: acquire — [wake-publish]: same argument as the summary scan.
      if (seg.bits[i].load(std::memory_order_acquire) != 0) {
        empty = false;
      }
    }
  });
  return empty;
}

std::size_t WakeIndex::FootprintBytes() const {
  const std::size_t per_segment =
      sizeof(IndexSegment) +
      static_cast<std::size_t>(num_shards_) * kCondSyncSegmentWords *
          sizeof(std::uint64_t) +
      static_cast<std::size_t>(kCondSyncSegmentSize) * shard_words_ *
          sizeof(std::uint64_t);
  return dir_.DirectoryBytes() +
         static_cast<std::size_t>(num_shards_ + 1) * summary_words_ *
             sizeof(std::uint64_t) +
         static_cast<std::size_t>(gate_buckets()) * sizeof(std::uint32_t) +
         static_cast<std::size_t>(dir_.Allocated()) * per_segment;
}

}  // namespace tcs
