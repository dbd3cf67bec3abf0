#include "src/common/timer_wheel.h"

#include <utility>

namespace tcs {

TimerWheel::TimerWheel(std::uint64_t tick_ns)
    : tick_ns_(tick_ns == 0 ? 1 : tick_ns),
      origin_(std::chrono::steady_clock::now()) {}

TimerWheel::~TimerWheel() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (ticker_.joinable()) {
    ticker_.join();
  }
}

std::uint64_t TimerWheel::TickOf(
    std::chrono::steady_clock::time_point tp) const {
  if (tp <= origin_) {
    return 0;
  }
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(tp - origin_)
                .count();
  // Round UP: the wheel fires late (bounded), never early.
  return (static_cast<std::uint64_t>(ns) + tick_ns_ - 1) / tick_ns_;
}

void TimerWheel::Place(Entry e) {
  // A deadline at or behind the wheel's cursor fires on the very next tick
  // (never early overall: the cursor only reaches a tick once its wall time
  // has passed).
  std::uint64_t due = e.deadline_tick > current_tick_ + 1
                          ? e.deadline_tick
                          : current_tick_ + 1;
  std::uint64_t delta = due - current_tick_;
  if (delta < static_cast<std::uint64_t>(kL0Slots)) {
    l0_[due % kL0Slots].push_back(e);
  } else if (delta < static_cast<std::uint64_t>(kL0Slots) * kL1Slots) {
    l1_[(due / kL0Slots) % kL1Slots].push_back(e);
  } else if (delta <
             static_cast<std::uint64_t>(kL0Slots) * kL1Slots * kL2Slots) {
    l2_[(due / (kL0Slots * kL1Slots)) % kL2Slots].push_back(e);
  } else {
    overflow_.push_back(e);
  }
}

void TimerWheel::FireSlot(std::vector<Entry>& slot) {
  for (Entry& e : slot) {
    if (e.spot->PostTimeout(e.epoch)) {
      stats_.fired++;
      auto now = std::chrono::steady_clock::now();
      auto deadline =
          origin_ + std::chrono::nanoseconds(e.deadline_tick * tick_ns_);
      if (now > deadline) {
        auto lag = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       now - deadline)
                       .count();
        if (static_cast<std::uint64_t>(lag) > stats_.max_lag_ns) {
          stats_.max_lag_ns = static_cast<std::uint64_t>(lag);
        }
      }
    } else {
      stats_.stale++;
    }
    pending_--;
  }
  slot.clear();
}

void TimerWheel::AdvanceOneTick() {
  current_tick_++;
  stats_.ticks++;
  FireSlot(l0_[current_tick_ % kL0Slots]);
  if (current_tick_ % kL0Slots == 0) {
    // Cascade the expiring level-1 slot down; lagged entries land in the
    // next-tick slot via Place's clamp.
    std::vector<Entry> batch =
        std::move(l1_[(current_tick_ / kL0Slots) % kL1Slots]);
    l1_[(current_tick_ / kL0Slots) % kL1Slots].clear();
    for (Entry& e : batch) {
      stats_.cascades++;
      Place(e);  // pending_ already counts the entry; only FireSlot drops it.
    }
    if (current_tick_ % (static_cast<std::uint64_t>(kL0Slots) * kL1Slots) ==
        0) {
      std::vector<Entry> b2 = std::move(
          l2_[(current_tick_ / (kL0Slots * kL1Slots)) % kL2Slots]);
      l2_[(current_tick_ / (kL0Slots * kL1Slots)) % kL2Slots].clear();
      for (Entry& e : b2) {
        stats_.cascades++;
        Place(e);
      }
      if (current_tick_ %
              (static_cast<std::uint64_t>(kL0Slots) * kL1Slots * kL2Slots) ==
          0) {
        std::vector<Entry> ov = std::move(overflow_);
        overflow_.clear();
        for (Entry& e : ov) {
          stats_.cascades++;
          Place(e);
        }
      }
    }
  }
}

void TimerWheel::Schedule(ParkSpot* spot, std::uint64_t epoch,
                          std::chrono::steady_clock::time_point deadline) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!ticker_started_) {
      ticker_started_ = true;
      ticker_ = std::thread([this] { TickerMain(); });
    }
    if (pending_ == 0) {
      // Arming an empty wheel: jump the cursor to "now" without counting the
      // skipped ticks — idle periods advance time, not Stats::ticks.
      std::uint64_t now_tick = TickOf(std::chrono::steady_clock::now());
      if (now_tick > current_tick_) {
        current_tick_ = now_tick;
      }
    }
    stats_.scheduled++;
    pending_++;
    Place(Entry{spot, epoch, TickOf(deadline)});
  }
  cv_.notify_all();
}

void TimerWheel::TickerMain() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    if (pending_ == 0) {
      cv_.wait(lk, [&] { return stop_ || pending_ > 0; });
      continue;
    }
    auto next = origin_ + std::chrono::nanoseconds((current_tick_ + 1) *
                                                   tick_ns_);
    if (std::chrono::steady_clock::now() < next) {
      cv_.wait_until(lk, next);
      continue;
    }
    // Advance every elapsed tick; slots between are almost always empty, so
    // catching up after scheduling lag is a cheap modulo walk.
    AdvanceOneTick();
  }
}

TimerWheel::Stats TimerWheel::SnapshotStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace tcs
