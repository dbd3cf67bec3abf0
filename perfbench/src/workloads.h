// The three workloads behind one interface. Constructing a workload is the
// set-up the benchmark times: the Runtime, the shared structures, every thread
// spawned and (bystander) the parked population registered. The main thread
// then walks the PhaseClock through warm-up, the measured window(s) and stop.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/trace.h"
#include "src/core/runtime.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // bystander only: size of the parked population (the sensitivity check
  // runs it with 0).
  int parked = 1024;
};

// What one thread saw in one phase.
struct Tally {
  std::uint64_t ops = 0;
  Hist latency;   // per-op end-to-end latency
  Hist lateness;  // router generator: actual send - scheduled send
};

// Output checks, accumulated over the whole run (set-up repetitions too).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string problems;  // empty when every check passed
  // Threads that never returned (a lost wakeup): the process must exit
  // without destroying the workload.
  bool abandoned_threads = false;

  void Fail(std::uint64_t n, const std::string& what) {
    failed += n;
    if (!problems.empty()) {
      problems += "; ";
    }
    problems += what;
  }
  void MergeFrom(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (!o.problems.empty()) {
      Fail(0, o.problems);
    }
    abandoned_threads = abandoned_threads || o.abandoned_threads;
  }
};

// Per-thread state every workload thread carries. Heap-allocated: the
// histograms are large.
struct Worker {
  std::array<Tally, kNumPhases> tally;
  std::unique_ptr<ThreadTrace> trace;
  std::thread thread;

  ThreadTrace* TraceFor(int phase) const {
    return phase == kTraced ? trace.get() : nullptr;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual tcs::TmSystem& sys() = 0;
  // Called just before the clock moves to kWarmup at `base_ns`.
  virtual void Start(std::uint64_t base_ns) = 0;
  // The clock is at kStop: drain, release every waiter, join every thread and
  // run the output checks. Safe to call on a workload that never started.
  virtual Outcome Finish() = 0;

  const std::vector<std::unique_ptr<Worker>>& workers() const { return workers_; }
  PhaseClock& clock() { return clock_; }

 protected:
  Worker& AddWorker(bool traced) {
    workers_.push_back(std::make_unique<Worker>());
    if (traced) {
      workers_.back()->trace = std::make_unique<ThreadTrace>();
    }
    return *workers_.back();
  }
  // Every thread the workload spawns calls this as its last act.
  void MarkExited() {
    // mo: release — pairs with the acquire in JoinWithin.
    exited_.fetch_add(1, std::memory_order_release);
  }
  // Joins `threads` once `expected_exits` threads have called MarkExited, or
  // gives up after `limit`. Returns how many never exited; those (and the
  // rest of `threads`) are left unjoined, and the caller must report them as
  // lost wakeups and end the process without destroying the workload.
  int JoinWithin(std::vector<std::thread*> threads, int expected_exits,
                 std::chrono::seconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    // mo: acquire — pairs with MarkExited.
    while (exited_.load(std::memory_order_acquire) < expected_exits) {
      if (std::chrono::steady_clock::now() > deadline) {
        return expected_exits - exited_.load(std::memory_order_acquire);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread* t : threads) {
      t->join();
    }
    return 0;
  }
  std::vector<std::thread*> WorkerThreads() {
    std::vector<std::thread*> out;
    for (auto& w : workers_) {
      out.push_back(&w->thread);
    }
    return out;
  }

  PhaseClock clock_;
  std::atomic<int> exited_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

// Runnable threads a workload needs (parked threads do not count).
int RunnableThreads(const std::string& workload);

// The router's generated inputs: send offsets (ns from the start of warm-up)
// and the topic of each message. Built before set-up is timed and kept alive
// by the caller for the workload's lifetime.
struct RouterInputs {
  std::vector<std::uint64_t> send_ns;
  std::vector<std::uint8_t> topic;
};
// `total_seconds` covers warm-up plus every window.
RouterInputs BuildRouterInputs(std::uint64_t seed, double total_seconds);

std::unique_ptr<Workload> MakeHandoff(const RunOptions& opt);
std::unique_ptr<Workload> MakeBystander(const RunOptions& opt);
std::unique_ptr<Workload> MakeRouter(const RunOptions& opt, const RouterInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
