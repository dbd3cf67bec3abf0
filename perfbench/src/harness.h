// Shared pieces of the benchmark harness: a fine-grained latency histogram,
// the run's phase clock, and the counter/CPU snapshots taken at phase
// boundaries. Everything here uses only the library's public surface
// (Runtime, AggregateStats/SnapshotObs) plus getrusage.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/latency_histogram.h"
#include "src/tm/tm_system.h"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline void SleepUntilNs(std::uint64_t t_ns) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000ull);
  // steady_clock is CLOCK_MONOTONIC on Linux.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

[[noreturn]] inline void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

// Log-linear histogram of nanosecond values: exact below 256 ns, then 128
// sub-buckets per power of two (relative error < 0.4%). Single writer; merged
// after the writer thread is joined.
class Hist {
 public:
  void Record(std::uint64_t ns) {
    ++counts_[IndexOf(ns)];
    ++n_;
    if (ns > max_) {
      max_ = ns;
    }
  }
  void MergeFrom(const Hist& o) {
    for (std::size_t i = 0; i < kSize; ++i) {
      counts_[i] += o.counts_[i];
    }
    n_ += o.n_;
    max_ = max_ > o.max_ ? max_ : o.max_;
  }
  std::uint64_t count() const { return n_; }
  std::uint64_t max() const { return max_; }

  // Value at quantile q in [0, 1], linearly interpolated inside its bucket;
  // 0 for an empty histogram.
  double Quantile(double q) const {
    if (n_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(n_ - 1);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kSize; ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (static_cast<double>(cum + counts_[i]) > rank) {
        const double frac =
            (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(counts_[i]);
        return static_cast<double>(Low(i)) + frac * static_cast<double>(Width(i));
      }
      cum += counts_[i];
    }
    return static_cast<double>(max_);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;  // 128
  static constexpr int kMaxShift = 36;  // values up to ~2^44 ns (4.9 hours)
  static constexpr std::size_t kSize = (kMaxShift + 2) * kSub;

  static std::size_t IndexOf(std::uint64_t v) {
    if (v < 2 * kSub) {
      return static_cast<std::size_t>(v);
    }
    int shift = std::bit_width(v) - (kSubBits + 1);
    if (shift > kMaxShift) {
      shift = kMaxShift;
      v = (2 * kSub - 1) << shift;
    }
    return static_cast<std::size_t>(shift) * kSub + static_cast<std::size_t>(v >> shift);
  }
  static std::uint64_t Low(std::size_t i) {
    if (i < 2 * kSub) {
      return i;
    }
    const std::uint64_t shift = i / kSub - 1;
    return (i % kSub + kSub) << shift;
  }
  static std::uint64_t Width(std::size_t i) {
    return i < 2 * kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::array<std::uint64_t, kSize> counts_{};
  std::uint64_t n_ = 0;
  std::uint64_t max_ = 0;
};

// The run's timeline. Workers read the phase at every op to attribute it:
//   kSetup   — threads spawned, waiting for the start signal
//   kWarmup  — running, not measured
//   kWindow  — the measured window (untraced)
//   kTraced  — second window with spans recorded (--trace 1 runs only)
//   kStop    — workers finish their current op and exit
enum Phase : int { kSetup = 0, kWarmup, kWindow, kTraced, kStop, kNumPhases };

class PhaseClock {
 public:
  int get() const {
    // mo: acquire — pairs with set(): a worker that sees a phase also sees
    // everything the main thread wrote before switching to it.
    return phase_.load(std::memory_order_acquire);
  }
  void set(int p) { phase_.store(p, std::memory_order_release); }

 private:
  std::atomic<int> phase_{kSetup};
};

// Blocks the calling worker until the main thread leaves kSetup.
inline void AwaitStart(const PhaseClock& clock) {
  while (clock.get() == kSetup) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// Process-wide counters read at a phase boundary.
struct Snapshot {
  std::uint64_t t_ns = 0;
  double cpu_s = 0.0;  // user + system, all threads
  std::uint64_t ctx_switches = 0;
  tcs::TxStats stats;
  std::array<std::uint64_t, tcs::LatencyHistogram::kBuckets> park_buckets{};
  std::array<std::uint64_t, tcs::LatencyHistogram::kBuckets> handoff_buckets{};
  tcs::TimerWheel::Stats wheel;
};

inline double CpuSeconds(const struct rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

inline Snapshot TakeSnapshot(const tcs::TmSystem& sys) {
  Snapshot s;
  const tcs::TmSystem::ObsSnapshot obs = sys.SnapshotObs(0);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  s.t_ns = NowNs();
  s.cpu_s = CpuSeconds(ru);
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.stats = obs.stats;
  for (int i = 0; i < tcs::LatencyHistogram::kBuckets; ++i) {
    s.park_buckets[i] = obs.wait_duration.BucketCount(i);
    s.handoff_buckets[i] = obs.wake_latency.BucketCount(i);
  }
  s.wheel = obs.wheel;
  return s;
}

// Counters gained over one or more measured windows (summed over segments).
struct WindowTotals {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;
  std::array<std::uint64_t, tcs::kNumCounters> counters{};
  std::array<std::uint64_t, tcs::LatencyHistogram::kBuckets> park_buckets{};
  std::array<std::uint64_t, tcs::LatencyHistogram::kBuckets> handoff_buckets{};
  std::uint64_t wheel_ticks = 0;
  std::uint64_t wheel_scheduled = 0;
  std::uint64_t wheel_max_lag_ns = 0;  // max over the segments' wheels

  void Add(const Snapshot& a, const Snapshot& b) {
    seconds += static_cast<double>(b.t_ns - a.t_ns) * 1e-9;
    cpu_s += b.cpu_s - a.cpu_s;
    ctx_switches += b.ctx_switches - a.ctx_switches;
    for (int i = 0; i < tcs::kNumCounters; ++i) {
      const auto c = static_cast<tcs::Counter>(i);
      counters[i] += b.stats.Get(c) - a.stats.Get(c);
    }
    for (int i = 0; i < tcs::LatencyHistogram::kBuckets; ++i) {
      park_buckets[i] += b.park_buckets[i] - a.park_buckets[i];
      handoff_buckets[i] += b.handoff_buckets[i] - a.handoff_buckets[i];
    }
    wheel_ticks += b.wheel.ticks - a.wheel.ticks;
    wheel_scheduled += b.wheel.scheduled - a.wheel.scheduled;
    wheel_max_lag_ns = std::max(wheel_max_lag_ns, b.wheel.max_lag_ns);
  }
  double Count(tcs::Counter c) const {
    return static_cast<double>(counters[static_cast<int>(c)]);
  }
};

// Quantile in microseconds of a library log2 histogram's bucket counts,
// interpolated inside the bucket.
inline double BucketQuantileUs(
    const std::array<std::uint64_t, tcs::LatencyHistogram::kBuckets>& counts, double q) {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) {
    n += c;
  }
  if (n == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(n - 1);
  std::uint64_t cum = 0;
  for (int i = 0; i < tcs::LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t c = counts[i];
    if (c != 0 && static_cast<double>(cum + c) > rank) {
      const double lo = static_cast<double>(tcs::LatencyHistogram::BucketLow(i));
      const double frac = (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
      return (lo + frac * lo) / 1000.0;  // bucket i spans [lo, 2*lo)
    }
    cum += c;
  }
  return 0.0;
}

// Peak resident set of this process image in MiB. VmHWM, unlike getrusage's
// ru_maxrss, starts afresh at exec, so a launcher's footprint does not leak in.
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
