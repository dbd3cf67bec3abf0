#include "src/tm/protocol_checker.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "src/common/assert.h"
#include "src/condsync/segment.h"
#include "src/tm/orec_table.h"

namespace tcs {

namespace {

// Hashed identity of the calling OS thread, never 0 (0 means "no owner").
std::uint64_t ThisThreadKey() {
  std::uint64_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h | 1;
}

void DefaultFailureHandler(void* ctx, const char* protocol, const char* detail) {
  (void)ctx;
  std::fprintf(stderr, "TCS protocol violation [%s]: %s\n", protocol, detail);
  std::abort();
}

}  // namespace

ProtocolChecker::ProtocolChecker(const OrecTable& orecs, int max_threads)
    : orecs_(orecs),
      max_threads_(max_threads),
      segment_shadow_words_(((max_threads + kCondSyncSegmentSize - 1) >>
                             kCondSyncSegmentShift) /
                                64 +
                            1),
      handler_(&DefaultFailureHandler) {
  TCS_CHECK(max_threads > 0);
  orec_shadow_ = std::make_unique<OrecShadow[]>(orecs.size());
  tid_shadow_ =
      std::make_unique<TidShadow[]>(static_cast<std::size_t>(max_threads));
  for (auto& shadow : segment_shadow_) {
    shadow = std::make_unique<std::atomic<std::uint64_t>[]>(
        static_cast<std::size_t>(segment_shadow_words_));
    for (int w = 0; w < segment_shadow_words_; ++w) {
      // mo: relaxed — single-threaded construction; the checker is attached
      // before worker threads start.
      shadow[w].store(0, std::memory_order_relaxed);
    }
  }
}

void ProtocolChecker::SetFailureHandler(FailureHandler handler, void* ctx) {
  handler_ = handler != nullptr ? handler : &DefaultFailureHandler;
  handler_ctx_ = ctx;
}

void ProtocolChecker::Fail(const char* protocol, const char* fmt, ...) {
  char detail[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(detail, sizeof(detail), fmt, ap);
  va_end(ap);
  // mo: relaxed — monotone counter; see violations().
  violations_.fetch_add(1, std::memory_order_relaxed);
  handler_(handler_ctx_, protocol, detail);
}

ProtocolChecker::OrecShadow& ProtocolChecker::ShadowOf(const Orec* o) {
  std::size_t idx = orecs_.IndexOf(o);
  TCS_CHECK_MSG(idx < orecs_.size(), "orec pointer outside the checked table");
  return orec_shadow_[idx];
}

ProtocolChecker::TidShadow& ProtocolChecker::TidOf(int tid,
                                                   const char* protocol) {
  if (tid < 0 || tid >= max_threads_) {
    Fail(protocol, "tid %d outside [0, %d)", tid, max_threads_);
    return tid_shadow_[0];
  }
  return tid_shadow_[tid];
}

// --- orec lock/release protocol ---

void ProtocolChecker::OnOrecAcquire(const Orec* o, int tid,
                                    std::uint64_t prev_version) {
  OrecShadow& s = ShadowOf(o);
  // mo: relaxed — the acquirer's CAS on the real orec word [orec-publish]
  // already ordered this load after the previous owner's shadow writes.
  int prev_owner = s.owner.load(std::memory_order_relaxed);
  if (prev_owner != -1) {
    Fail("orec-lock",
         "tid %d acquired orec %zu already shadow-locked by tid %d", tid,
         orecs_.IndexOf(o), prev_owner);
  }
  // mo: relaxed — ordered by the same [orec-publish] edge as `owner` above.
  std::uint64_t shadow_version = s.version.load(std::memory_order_relaxed);
  if (prev_version != shadow_version) {
    Fail("orec-version",
         "tid %d acquired orec %zu at version %llu but the last release "
         "published %llu (torn or unhooked release)",
         tid, orecs_.IndexOf(o),
         static_cast<unsigned long long>(prev_version),
         static_cast<unsigned long long>(shadow_version));
  }
  // mo: relaxed — we hold the orec's lock; the eventual release store on the
  // real word [orec-publish] publishes this to the next acquirer.
  s.owner.store(tid, std::memory_order_relaxed);
  // mo: relaxed — published by [orec-publish], as above.
  s.prev_at_acquire.store(prev_version, std::memory_order_relaxed);
}

void ProtocolChecker::OnOrecRelease(const Orec* o, int tid,
                                    std::uint64_t new_version,
                                    ReleaseKind kind) {
  OrecShadow& s = ShadowOf(o);
  // mo: relaxed — own write (the owner wrote it at acquire), or ordered by
  // [orec-publish] if ownership is being violated (which is what we report).
  int owner = s.owner.load(std::memory_order_relaxed);
  if (owner != tid) {
    Fail("orec-lock", "tid %d released orec %zu owned by tid %d", tid,
         orecs_.IndexOf(o), owner);
  }
  // mo: relaxed — written by this thread at acquire; own write, no ordering.
  std::uint64_t prev = s.prev_at_acquire.load(std::memory_order_relaxed);
  // mo: relaxed — written by the previous owner before its release store;
  // [orec-publish] carries the edge.
  std::uint64_t last = s.version.load(std::memory_order_relaxed);
  if (new_version < last) {
    Fail("orec-version",
         "tid %d released orec %zu at version %llu < last published %llu "
         "(version regression)",
         tid, orecs_.IndexOf(o), static_cast<unsigned long long>(new_version),
         static_cast<unsigned long long>(last));
  }
  switch (kind) {
    case ReleaseKind::kCommit:
      // Commit publishes the global-clock increment result, which strictly
      // exceeds every version published before the increment — in particular
      // the pre-acquisition version.
      if (new_version <= prev) {
        Fail("orec-version",
             "tid %d commit-released orec %zu at %llu, not above "
             "pre-acquisition version %llu",
             tid, orecs_.IndexOf(o),
             static_cast<unsigned long long>(new_version),
             static_cast<unsigned long long>(prev));
      }
      break;
    case ReleaseKind::kAbortBump:
      if (new_version != prev + 1) {
        Fail("orec-version",
             "tid %d bump-released orec %zu at %llu, contract requires "
             "prev+1 = %llu",
             tid, orecs_.IndexOf(o),
             static_cast<unsigned long long>(new_version),
             static_cast<unsigned long long>(prev + 1));
      }
      break;
    case ReleaseKind::kAbortExact:
      if (new_version != prev) {
        Fail("orec-version",
             "tid %d exact-released orec %zu at %llu, contract requires "
             "prev = %llu",
             tid, orecs_.IndexOf(o),
             static_cast<unsigned long long>(new_version),
             static_cast<unsigned long long>(prev));
      }
      break;
  }
  // mo: relaxed — still holding the lock; the release store on the real orec
  // word [orec-publish] publishes this to the next acquirer.
  s.version.store(new_version, std::memory_order_relaxed);
  // mo: relaxed — published by [orec-publish], as above.
  s.owner.store(-1, std::memory_order_relaxed);
}

// --- global-clock monotonicity ---

void ProtocolChecker::OnClockObserved(int tid, std::uint64_t value) {
  TidShadow& t = TidOf(tid, "clock");
  // mo: relaxed — single-writer per tid slot; slot recycling across threads
  // is ordered by the runtime's descriptor registration lock.
  std::uint64_t last = t.last_clock.load(std::memory_order_relaxed);
  if (value < last) {
    Fail("clock",
         "tid %d observed clock %llu after %llu (coherence requires each "
         "thread's clock observations to be non-decreasing)",
         tid, static_cast<unsigned long long>(value),
         static_cast<unsigned long long>(last));
  }
  // mo: relaxed — same single-writer argument as the load above.
  t.last_clock.store(value, std::memory_order_relaxed);
}

void ProtocolChecker::OnStartAdvanced(int tid, std::uint64_t old_start,
                                      std::uint64_t new_start) {
  if (new_start < old_start) {
    Fail("clock",
         "tid %d timestamp extension moved start backwards: %llu -> %llu", tid,
         static_cast<unsigned long long>(old_start),
         static_cast<unsigned long long>(new_start));
  }
  OnClockObserved(tid, new_start);
}

// --- WakeIndex registration balance ---

void ProtocolChecker::OnWakeRegister(int tid, bool indexed) {
  TidShadow& t = TidOf(tid, "wake-index");
  // mo: relaxed — Add/Remove are owner-thread-only (the very contract this
  // hook checks); slot recycling is ordered by descriptor registration.
  int prev = t.wake_state.load(std::memory_order_relaxed);
  if (prev != 0) {
    Fail("wake-index",
         "tid %d re-registered (%s) while still registered (%s) — Add without "
         "intervening Remove",
         tid, indexed ? "indexed" : "global", prev == 1 ? "indexed" : "global");
  }
  // mo: relaxed — same owner-thread-only argument as the load above.
  t.wake_state.store(indexed ? 1 : 2, std::memory_order_relaxed);
  // mo: relaxed — owner-thread-only, as above.
  t.wake_owner.store(ThisThreadKey(), std::memory_order_relaxed);
}

void ProtocolChecker::OnWakeDeregister(int tid) {
  TidShadow& t = TidOf(tid, "wake-index");
  // mo: relaxed — owner-thread-only, as in OnWakeRegister.
  int prev = t.wake_state.load(std::memory_order_relaxed);
  if (prev == 0) {
    Fail("wake-index",
         "tid %d Remove with no registered entries (unbalanced Remove)", tid);
    return;
  }
  // mo: relaxed — owner-thread-only, as in OnWakeRegister.
  std::uint64_t owner = t.wake_owner.load(std::memory_order_relaxed);
  if (owner != ThisThreadKey()) {
    Fail("wake-index",
         "tid %d Remove from a thread other than the one that added "
         "(owner-thread-only contract)",
         tid);
  }
  // mo: relaxed — owner-thread-only, as in OnWakeRegister.
  t.wake_state.store(0, std::memory_order_relaxed);
  // mo: relaxed — owner-thread-only, as in OnWakeRegister.
  t.wake_owner.store(0, std::memory_order_relaxed);
}

// --- WaiterRegistry presence-bit balance ---

void ProtocolChecker::OnPresenceMark(int tid) {
  TidShadow& t = TidOf(tid, "presence");
  // mo: relaxed RMW — atomicity only; Mark/Unmark are owner-thread-only, so
  // the exchange just makes a (buggy) concurrent double-mark deterministic.
  if (t.presence.exchange(1, std::memory_order_relaxed) != 0) {
    Fail("presence", "tid %d MarkRegistered while already marked", tid);
  }
}

void ProtocolChecker::OnPresenceUnmark(int tid) {
  TidShadow& t = TidOf(tid, "presence");
  // mo: relaxed RMW — same argument as OnPresenceMark.
  if (t.presence.exchange(0, std::memory_order_relaxed) != 1) {
    Fail("presence", "tid %d UnmarkRegistered while not marked", tid);
  }
}

// --- batched wake claim/post pairing ---

void ProtocolChecker::OnWakeClaimCommitted(int waiter_tid) {
  TidShadow& t = TidOf(waiter_tid, "wake-claim");
  // mo: relaxed RMW — claim and post are same-thread (the waker); a different
  // waker can only claim after the waiter consumed the post and re-registered,
  // a chain ordered by the wake token [park-handoff] and the registration
  // transaction.
  int pending = t.pending_posts.fetch_add(1, std::memory_order_relaxed);
  if (pending != 0) {
    Fail("wake-claim",
         "waiter tid %d claimed by a committed batch while %d post(s) already "
         "pending (a waiter cannot be claimed twice before being posted)",
         waiter_tid, pending);
  }
}

void ProtocolChecker::OnWakeClaimCas(int waiter_tid) {
  TidShadow& t = TidOf(waiter_tid, "wake-claim");
  // mo: relaxed RMW — same claim/post chain argument as OnWakeClaimCommitted:
  // the CAS claim and its post are same-thread (the waker), and any later
  // claim of this waiter is ordered behind the post by [park-handoff] plus
  // the waiter's re-registration.
  int pending = t.pending_posts.fetch_add(1, std::memory_order_relaxed);
  if (pending != 0) {
    Fail("wake-claim",
         "waiter tid %d CAS-claimed while %d post(s) already pending (a "
         "waiter cannot be claimed twice before being posted)",
         waiter_tid, pending);
  }
}

void ProtocolChecker::OnWakePost(int waiter_tid) {
  TidShadow& t = TidOf(waiter_tid, "wake-claim");
  // mo: relaxed RMW — same claim/post chain argument as OnWakeClaimCommitted.
  int pending = t.pending_posts.fetch_sub(1, std::memory_order_relaxed);
  if (pending != 1) {
    // mo: relaxed — reset after reporting so one violation is not re-reported
    // on every later post.
    t.pending_posts.store(0, std::memory_order_relaxed);
    Fail("wake-claim",
         "wake-path post to waiter tid %d with %d pending claim(s) — %s",
         waiter_tid, pending,
         pending <= 0 ? "post without a committed claim (double post)"
                      : "claim/post imbalance");
  }
}

// --- segment publication balance ---

// --- quiescence run state ---

void ProtocolChecker::OnQuiesceActive(int tid, bool not_running) {
  if (not_running) {
    Fail("quiesce-run-state",
         "tid %d SetActive while its not-running bit is set (quiescence "
         "scans skip the slot)",
         tid);
  }
}

void ProtocolChecker::OnSegmentPublished(SegmentKind kind, int index) {
  const char* name =
      kind == SegmentKind::kWaiterRegistry ? "waiter-registry" : "wake-index";
  const int max_segments =
      (max_threads_ + kCondSyncSegmentSize - 1) >> kCondSyncSegmentShift;
  if (index < 0 || index >= max_segments) {
    Fail("segment-publish", "%s published segment %d outside [0, %d)", name,
         index, max_segments);
    return;
  }
  auto& shadow = segment_shadow_[static_cast<int>(kind)];
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  // mo: relaxed RMW — atomicity only: publication attempts are already
  // serialized by the directory's [seg-publish] CAS (exactly one winner per
  // entry calls this hook); the exchange just makes a buggy double-publish
  // deterministic.
  std::uint64_t prev =
      shadow[index / 64].fetch_or(bit, std::memory_order_relaxed);
  if ((prev & bit) != 0) {
    Fail("segment-publish",
         "%s published segment %d twice (directory entry overwritten or a "
         "losing CAS racer reported publication)",
         name, index);
  }
}

}  // namespace tcs
