// Futex parking: the process-level sleep/wake primitive behind Deschedule.
//
// The paper parks each descheduled thread on a private POSIX semaphore. That
// is one kernel object (plus one sem_t cache line) per waiter — invisible at
// the paper's four threads, dominant at the capacity tier's 10^5–10^6 parked
// waiters. A ParkSpot replaces the per-slot semaphore with a per-slot *word*:
// each waiter owns one (two words embedded in its TxDesc), and blocks/wakes on
// that word through futex(2), where the kernel needs no per-waiter object at
// all. Per-waiter kernel cost drops to ~0 and memory-per-waiter becomes a
// bounded, measurable number (see TmSystem::SnapshotMetrics "condsync").
// Linux only: parking_lot.cc stops a build on any other platform.
//
// Token protocol. A spot's state word carries two token bits:
//
//   kWakeToken    — posted by a claiming waker (Post), exactly once per
//                   committed claim (the transactional asleep 1→0 admits one
//                   waker per sleep; deschedule.cc).
//   kTimeoutToken — posted by the TimerWheel when a timed wait's deadline
//                   tick fires (PostTimeout).
//
// The spot's owner is the only consumer. ConsumeToken blocks until the wake
// token is present; ParkEither blocks until either token is present and
// reports which (preferring the wake token when both raced in — a claimed
// wakeup must win over a simultaneous timeout, or the claim would be
// half-consumed). Timed-wait cancellation is epoch-based and lazy: the waiter
// bumps the spot's epoch (ArmTimed) before each timed sleep, and a wheel fire
// carrying a stale epoch is dropped by PostTimeout — the wheel never has to
// search-and-delete cancelled entries (timer_wheel.h).
//
// Ordering: Post's release fetch_or pairs with the consumer's acquire clear —
// the [park-handoff] edge (glossary in wake_index.h) — so everything the
// claiming waker did before posting (the committed claim, the wake-post
// stamp) is visible to the woken waiter. PostTimeout's release/acquire pair
// is the [wheel-tick] edge. The futex underneath only adds sleep/wake; it
// carries no data on its own, so the protocol needs zero seq_cst.
#ifndef TCS_COMMON_PARKING_LOT_H_
#define TCS_COMMON_PARKING_LOT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace tcs {

// One waiter's parking place: a token word plus the timed-wait epoch. Embed
// one per thread (TxDesc::park); the owning thread is the only consumer, the
// claiming waker and the timer wheel are the only producers.
class ParkSpot {
 public:
  static constexpr std::uint32_t kWakeToken = 1u << 0;
  static constexpr std::uint32_t kTimeoutToken = 1u << 1;

  // Producer side. Post delivers the wake token (exactly once per committed
  // claim — the caller's protocol, not ours). PostTimeout delivers the
  // timeout token iff `epoch` still matches the spot's current epoch; returns
  // false when the fire was stale (the wait it belonged to already ended).
  void Post();
  bool PostTimeout(std::uint64_t epoch);

  // Consumer side (owner only). ConsumeToken blocks until the wake token is
  // present and clears it (a stale timeout token is cleared with it — the
  // timed wait it belonged to is over). ParkEither blocks until either token
  // is present: true = wake token consumed, false = timeout token consumed.
  void ConsumeToken();
  bool ParkEither();

  // Wheel-less timed park (TmConfig::timer_wheel = false ablation): blocks
  // until the wake token or `deadline`. At the deadline a token that already
  // raced in is still consumed (returns true), so the caller's
  // timeout/wakeup drain sees the same outcomes on both timed paths.
  bool ParkUntil(std::chrono::steady_clock::time_point deadline);

  // Arms a timed wait: bumps the epoch (invalidating every wheel entry
  // scheduled for earlier waits on this spot) and clears any stale timeout
  // token. Returns the new epoch to schedule the wheel entry under. Owner
  // only, before parking.
  std::uint64_t ArmTimed();

  // Clears both tokens (descriptor recycling: a fresh thread adopting a tid
  // must not inherit its predecessor's consumed-slot state). The caller
  // orders this against all prior use of the spot (registration lock).
  void Reset();

  // Token bits posted and not yet consumed (tests and diagnostics).
  std::uint32_t PendingTokens() const {
    // mo: relaxed — diagnostic snapshot; orders nothing and is never used to
    // decide whether to park.
    return state_.load(std::memory_order_relaxed);
  }

 private:
  // Consumes a present wake token, clearing any timeout token with it.
  void TakeWake();
  // Blocks until the state word leaves `observed` (may also return early —
  // callers loop). `observed` is the value the caller just read with none of
  // the wanted bits set.
  void Wait(std::uint32_t observed);
  // Timed variant; also returns once `deadline` has passed.
  void WaitUntil(std::uint32_t observed,
                 std::chrono::steady_clock::time_point deadline);
  void WakeAll();

  std::atomic<std::uint32_t> state_{0};
  // Timed-wait generation, bumped by ArmTimed before each timed sleep; a
  // TimerWheel entry fires only if its captured epoch still matches.
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace tcs

#endif  // TCS_COMMON_PARKING_LOT_H_
