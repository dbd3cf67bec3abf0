#include "bench/commit_cost.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "src/condsync/waiter_registry.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/core/tvar.h"

namespace tcs {
namespace {

struct alignas(64) Cell {
  TVar<std::uint64_t> v;
};

constexpr int kWriterCells = 64;

// One domain, one timed loop. Returns ns/commit and accumulates checks and
// wakeup anomalies into `out`.
double RunTrial(Backend backend, int parked, std::uint64_t commits,
                CommitCostResult& out) {
  TmConfig cfg;
  cfg.backend = backend;
  Runtime rt(cfg);
  auto gates = std::make_unique<Cell[]>(static_cast<std::size_t>(parked));
  auto cells = std::make_unique<Cell[]>(kWriterCells);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(parked));
  for (int i = 0; i < parked; ++i) {
    threads.emplace_back([&, i] {
      Atomically(rt.sys(), [&](Tx& tx) {
        if (tx.Load(gates[i].v) == 0) {
          tx.Retry();
        }
      });
    });
  }
  while (rt.sys().waiters().RegisteredCount() < parked ||
         rt.AggregateStats().Get(Counter::kSleeps) <
             static_cast<std::uint64_t>(parked)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Warm the writer's descriptor and cells before timing.
  Atomically(rt.sys(), [&](Tx& tx) { (void)tx.Load(cells[0].v); });
  rt.ResetStats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < commits; ++k) {
    Cell& a = cells[k % kWriterCells];
    Cell& b = cells[(k * 7 + 1) % kWriterCells];
    Atomically(rt.sys(), [&](Tx& tx) {
      tx.Store(a.v, tx.Load(a.v) + 1);
      tx.Store(b.v, tx.Load(b.v) + 1);
    });
  }
  const auto t1 = std::chrono::steady_clock::now();
  const TxStats s = rt.AggregateStats();
  out.wake_checks_per_commit +=
      static_cast<double>(s.Get(Counter::kWakeChecks));
  out.spurious_wakeups += s.Get(Counter::kWakeups);
  for (int i = 0; i < parked; ++i) {
    Atomically(rt.sys(),
               [&](Tx& tx) { tx.Store(gates[i].v, std::uint64_t{1}); });
  }
  for (auto& t : threads) {
    t.join();
  }
  out.lost_wakeups += static_cast<std::uint64_t>(
      rt.sys().waiters().RegisteredCount());
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         static_cast<double>(commits);
}

}  // namespace

CommitCostResult RunCommitCostVsParked(Backend backend, int parked,
                                       std::uint64_t commits, int trials) {
  CommitCostResult r;
  r.backend = backend;
  r.parked = parked;
  r.commits = commits;
  for (int t = 0; t < trials; ++t) {
    r.trial_ns.push_back(RunTrial(backend, parked, commits, r));
  }
  std::vector<double> sorted = r.trial_ns;
  std::sort(sorted.begin(), sorted.end());
  r.min_ns = sorted.front();
  r.max_ns = sorted.back();
  r.median_ns = sorted[sorted.size() / 2];
  r.wake_checks_per_commit /= static_cast<double>(commits) * trials;
  return r;
}

}  // namespace tcs
