#include "src/common/parking_lot.h"

#if !defined(__linux__)
#error "ParkSpot parks on futex(2); tcsync builds on Linux only"
#endif

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

namespace tcs {

void ParkSpot::Wait(std::uint32_t observed) {
  // The kernel re-checks state == observed under its own lock before
  // sleeping, so a token posted between our read and the syscall aborts the
  // wait (EAGAIN) instead of being missed.
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&state_),
          FUTEX_WAIT_PRIVATE, observed, nullptr, nullptr, 0);
}

void ParkSpot::WaitUntil(std::uint32_t observed,
                         std::chrono::steady_clock::time_point deadline) {
  // FUTEX_WAIT_BITSET takes an *absolute* timespec; with FUTEX_CLOCK_REALTIME
  // unset it is read against CLOCK_MONOTONIC, which is what libstdc++'s
  // steady_clock is on Linux.
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline.time_since_epoch())
                .count();
  if (ns < 0) {
    ns = 0;
  }
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&state_),
          FUTEX_WAIT_BITSET_PRIVATE, observed, &ts, nullptr,
          FUTEX_BITSET_MATCH_ANY);
}

void ParkSpot::WakeAll() {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&state_),
          FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
}

void ParkSpot::Post() {
  // mo: release — [park-handoff] release endpoint: publishes the wake token
  // after the claim commit and wake-post stamp; the owner's token-consuming
  // acquire RMW (TakeWake) pairs with this, making the committed claim
  // visible to the woken waiter.
  state_.fetch_or(kWakeToken, std::memory_order_release);
  WakeAll();
}

bool ParkSpot::PostTimeout(std::uint64_t epoch) {
  // mo: relaxed — epoch staleness filter only; a stale match that slips
  // through (owner re-armed concurrently) just delivers a spurious timeout
  // token, which ParkEither's caller tolerates by re-checking the deadline.
  if (epoch_.load(std::memory_order_relaxed) != epoch) {
    return false;
  }
  // mo: release — [wheel-tick] release endpoint: the ticker publishes the
  // timeout token; the owner's token-consuming acquire RMW in ParkEither
  // pairs with it.
  state_.fetch_or(kTimeoutToken, std::memory_order_release);
  WakeAll();
  return true;
}

void ParkSpot::TakeWake() {
  // Clear a stale timeout token along with the wake token: the timed wait it
  // belonged to is over (or lost the race to a committed claim), and leaving
  // it behind would corrupt the next ParkEither.
  // mo: acquire — [park-handoff] acquire endpoint: consuming the wake token
  // pairs with Post's release fetch_or, so everything the waker did before
  // posting is visible here.
  state_.fetch_and(~(kWakeToken | kTimeoutToken), std::memory_order_acquire);
}

void ParkSpot::ConsumeToken() {
  for (;;) {
    // mo: acquire — [park-handoff] peek before deciding to consume or sleep;
    // the consuming RMW in TakeWake is the edge's real acquire endpoint.
    std::uint32_t s = state_.load(std::memory_order_acquire);
    if ((s & kWakeToken) != 0u) {
      TakeWake();
      return;
    }
    Wait(s);
  }
}

bool ParkSpot::ParkEither() {
  for (;;) {
    // mo: acquire — [park-handoff] peek before deciding to consume or sleep;
    // the consuming RMWs are the edges' real acquire endpoints.
    std::uint32_t s = state_.load(std::memory_order_acquire);
    if ((s & kWakeToken) != 0u) {
      // Wake beats a racing timeout: the claim protocol committed a wakeup
      // for this sleep, so the timeout token (if any) is stale.
      TakeWake();
      return true;
    }
    if ((s & kTimeoutToken) != 0u) {
      // mo: acquire — [wheel-tick] acquire endpoint: consuming the timeout
      // token pairs with PostTimeout's release fetch_or. Only the timeout
      // bit is cleared — a wake token that lands after this read must
      // survive for the caller's timeout/wakeup drain.
      state_.fetch_and(~kTimeoutToken, std::memory_order_acquire);
      return false;
    }
    Wait(s);
  }
}

bool ParkSpot::ParkUntil(std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    // mo: acquire — [park-handoff] peek before deciding to consume or sleep;
    // the consuming RMW is the edge's real acquire endpoint.
    std::uint32_t s = state_.load(std::memory_order_acquire);
    if ((s & kWakeToken) != 0u) {
      TakeWake();
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      // At the deadline, still grab a token that raced in, so the caller's
      // timeout/wakeup drain behaves identically on both timed paths.
      // mo: acquire — [park-handoff] acquire endpoint for the raced-in
      // token; pairs with Post's release fetch_or.
      std::uint32_t prev = state_.fetch_and(~(kWakeToken | kTimeoutToken),
                                            std::memory_order_acquire);
      return (prev & kWakeToken) != 0u;
    }
    WaitUntil(s, deadline);
  }
}

std::uint64_t ParkSpot::ArmTimed() {
  // mo: relaxed — epoch bump is a staleness filter read relaxed by
  // PostTimeout; delivery correctness never depends on its ordering (a stale
  // fire that slips through is dropped by the deadline re-check).
  std::uint64_t e = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  // mo: relaxed — owner-only cleanup of a stale timeout token from a prior
  // timed wait; producers only ever OR bits in, so no token can be lost, and
  // the owner is the sole reader of the cleared state.
  state_.fetch_and(~kTimeoutToken, std::memory_order_relaxed);
  return e;
}

void ParkSpot::Reset() {
  // mo: relaxed — tid recycling: the registration lock orders this store
  // against both the previous owner's last use and the next owner's first;
  // no concurrent producer can hold a claim on a parked-out descriptor.
  state_.store(0, std::memory_order_relaxed);
}

}  // namespace tcs
