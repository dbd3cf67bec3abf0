// Shared segment geometry and directory for the capacity tier's per-thread
// structures.
//
// WaiterRegistry, WakeIndex, and QuiesceTable all grow by appending
// 256-thread segment control blocks instead of sizing flat slabs to
// max_threads up front. One shared shift keeps their tid→segment math in
// lockstep, and one SegmentDirectory implements the lazy publication all
// three rely on ([seg-publish]).
#ifndef TCS_CONDSYNC_SEGMENT_H_
#define TCS_CONDSYNC_SEGMENT_H_

#include <atomic>
#include <cstddef>
#include <memory>

namespace tcs {

// 256 tids per segment: one segment's presence bitmap is exactly four
// 64-bit words (kCondSyncSegmentWords), and a segment's slot slab stays in
// the tens-of-KB range — cheap enough to allocate on first touch, large
// enough that 10^6 waiters need only ~4k directory entries.
inline constexpr int kCondSyncSegmentShift = 8;
inline constexpr int kCondSyncSegmentSize = 1 << kCondSyncSegmentShift;
inline constexpr int kCondSyncSegmentWords = kCondSyncSegmentSize / 64;

// A directory of lazily allocated segment blocks with a published
// high-water mark. Entries are published at most once, with a release CAS
// ([seg-publish]); losing racers delete their block and adopt the winner's.
// The mark (Bound) is one past the highest published index and is advanced
// before the publishing CAS, so every walk may stop there: a reader that is
// obliged to see a segment (by any happens-before path through its owner's
// later operations) also sees a mark covering it, exactly as it would see
// the directory entry itself. At the default 65536-thread ceiling this turns
// the commit path's 256-entry directory walks into walks over the handful
// of segments threads actually touched.
template <typename Seg>
class SegmentDirectory {
 public:
  explicit SegmentDirectory(int max_threads)
      : size_((max_threads + kCondSyncSegmentSize - 1) >>
              kCondSyncSegmentShift),
        dir_(std::make_unique<std::atomic<Seg*>[]>(
            static_cast<std::size_t>(size_))) {
    for (int i = 0; i < size_; ++i) {
      // mo: relaxed — single-threaded construction; the directory is
      // published to worker threads by the owning runtime's thread-start edge.
      dir_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  ~SegmentDirectory() {
    for (int i = 0; i < size_; ++i) {
      // mo: relaxed — destruction is single-threaded; every user of the
      // directory is quiescent (the owner joins/fences before teardown).
      delete dir_[i].load(std::memory_order_relaxed);
    }
  }

  SegmentDirectory(const SegmentDirectory&) = delete;
  SegmentDirectory& operator=(const SegmentDirectory&) = delete;

  // Directory capacity in segments (= ceil(max_threads / 256)).
  int size() const { return size_; }

  // Segment si, or null if no tid of its range ever touched it.
  Seg* Get(int si) const {
    // mo: acquire — [seg-publish]: pairs with Ensure's release CAS; a
    // non-null pointer implies a fully initialized block.
    return dir_[si].load(std::memory_order_acquire);
  }

  // One past the highest published segment index.
  int Bound() const {
    // mo: acquire — [seg-publish]: the mark is advanced before the
    // publishing CAS, so a walker that must see a segment sees a mark
    // covering it (see the class comment).
    return bound_.load(std::memory_order_acquire);
  }

  // Segment si, created with make() (a std::unique_ptr<Seg> factory) and
  // published on first touch. `*won`, when given, reports whether this call
  // published the block (protocol-checker hook).
  template <typename Make>
  Seg& Ensure(int si, Make&& make, bool* won = nullptr) {
    if (won != nullptr) {
      *won = false;
    }
    if (Seg* seg = Get(si)) {
      return *seg;
    }
    std::unique_ptr<Seg> fresh = make();
    // mo: relaxed — [seg-publish] rider: the publishing CAS below releases
    // this maximum to every reader that can observe the segment.
    int cur = bound_.load(std::memory_order_relaxed);
    while (cur < si + 1 &&
           // mo: relaxed — [seg-publish] rider, same argument as the load.
           !bound_.compare_exchange_weak(cur, si + 1,
                                         std::memory_order_relaxed)) {
    }
    Seg* expected = nullptr;
    // mo: acq_rel — [seg-publish]: success releases the initialized block
    // (and the mark advance) to every acquire directory load; failure
    // acquires the winning racer's publication so the adopted block is
    // fully visible.
    if (dir_[si].compare_exchange_strong(expected, fresh.get(),
                                         std::memory_order_acq_rel)) {
      if (won != nullptr) {
        *won = true;
      }
      return *fresh.release();
    }
    return *expected;  // Lost the race: drop our block, adopt the winner's.
  }

  // Calls fn(si, seg) for every published segment below the mark.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const int bound = Bound();
    for (int si = 0; si < bound; ++si) {
      if (Seg* seg = Get(si)) {
        fn(si, *seg);
      }
    }
  }

  int Allocated() const {
    int n = 0;
    ForEach([&](int, const Seg&) { ++n; });
    return n;
  }

  // Bytes of the directory itself (segment blocks are the owner's to count).
  std::size_t DirectoryBytes() const {
    return static_cast<std::size_t>(size_) * sizeof(std::atomic<Seg*>);
  }

 private:
  int size_;
  std::unique_ptr<std::atomic<Seg*>[]> dir_;
  std::atomic<int> bound_{0};
};

}  // namespace tcs

#endif  // TCS_CONDSYNC_SEGMENT_H_
