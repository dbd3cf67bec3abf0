// bystander: 2 writer threads commit 2-cell read-modify-write transactions on
// their own cache-line-padded TVars while a population of threads sits parked
// in Retry on cells nobody writes. The paper's central claim is that those
// writers pay nothing for the parked threads; the per-commit tax (quiescence
// scan, wake gate, aliased wake checks) shows up directly in ops_per_s. An op
// is one writer transaction; its latency is timed around Atomically.
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/condsync/waiter_registry.h"

namespace perfbench {
namespace {

constexpr int kWriters = 2;
constexpr int kCellsPerWriter = 1024;
constexpr std::size_t kPicks = 1 << 16;  // cell pairs per writer, cycled

struct PaddedCell {
  alignas(64) tcs::TVar<std::uint64_t> v;
};

class Bystander final : public Workload {
 public:
  explicit Bystander(const RunOptions& opt)
      : parked_(opt.parked),
        gates_(std::make_unique<PaddedCell[]>(static_cast<std::size_t>(parked_))) {
    std::mt19937_64 rng(opt.seed);
    for (int w = 0; w < kWriters; ++w) {
      cells_[w] = std::make_unique<PaddedCell[]>(kCellsPerWriter);
      picks_[w].resize(kPicks);
      for (auto& [a, b] : picks_[w]) {
        a = static_cast<std::uint16_t>(rng() % kCellsPerWriter);
        do {
          b = static_cast<std::uint16_t>(rng() % kCellsPerWriter);
        } while (b == a);
      }
    }
    for (int w = 0; w < kWriters; ++w) {
      Worker& wk = AddWorker(opt.trace);
      wk.thread = std::thread([this, w, &wk] { Write(w, wk); });
    }
    parked_threads_.reserve(static_cast<std::size_t>(parked_));
    for (int i = 0; i < parked_; ++i) {
      parked_threads_.emplace_back([this, i] { Park(i); });
    }
    // Set-up ends once every writer is registered and the whole population
    // is published in the waiter registry and asleep.
    while (ready_.load(std::memory_order_acquire) < kWriters ||
           rt_.sys().waiters().RegisteredCount() < parked_ ||
           rt_.AggregateStats().Get(tcs::Counter::kSleeps) <
               static_cast<std::uint64_t>(parked_)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  tcs::TmSystem& sys() override { return rt_.sys(); }

  void Start(std::uint64_t) override {
    wakeups_at_start_ = rt_.AggregateStats().Get(tcs::Counter::kWakeups);
  }

  Outcome Finish() override {
    const bool started = clock_.get() != kSetup;
    clock_.set(kStop);
    Outcome out;
    // Writers first: after they are joined the cells are final.
    const int hung_writers = JoinWithin(WorkerThreads(), kWriters, std::chrono::seconds(20));
    if (hung_writers > 0) {
      out.abandoned_threads = true;
      out.Fail(static_cast<std::uint64_t>(hung_writers), "bystander: writer did not stop");
      return out;
    }
    if (started) {
      const std::uint64_t woken =
          rt_.AggregateStats().Get(tcs::Counter::kWakeups) - wakeups_at_start_;
      if (woken != 0) {
        out.Fail(woken, "bystander: " + std::to_string(woken) +
                            " wakeups while the population should stay parked");
      }
    }
    std::uint64_t ops = 0;
    for (int w = 0; w < kWriters; ++w) {
      std::uint64_t total = 0;
      for (int i = 0; i < kCellsPerWriter; ++i) {
        const std::uint64_t v = cells_[w][i].v.UnsafeRead();
        total += v;
        if (v != counts_[w][i]) {
          out.Fail(1, "bystander: writer " + std::to_string(w) + " cell " + std::to_string(i) +
                          " holds " + std::to_string(v) + ", expected " +
                          std::to_string(counts_[w][i]));
        }
      }
      if (total != 2 * ops_[w]) {
        out.Fail(1, "bystander: writer " + std::to_string(w) + " cells sum to " +
                        std::to_string(total) + " after " + std::to_string(ops_[w]) +
                        " committed ops");
      }
      ops += ops_[w];
    }
    // Release the population: one committed write per gate, each of which
    // must wake exactly its own waiter.
    for (int i = 0; i < parked_; ++i) {
      tcs::Atomically(rt_.sys(), [&](tcs::Tx& tx) { tx.Store(gates_[i].v, std::uint64_t{1}); });
    }
    std::vector<std::thread*> threads;
    for (auto& t : parked_threads_) {
      threads.push_back(&t);
    }
    const int lost = JoinWithin(threads, kWriters + parked_, std::chrono::seconds(20));
    if (lost > 0) {
      out.abandoned_threads = true;
      out.Fail(static_cast<std::uint64_t>(lost),
               "bystander: " + std::to_string(lost) + " parked threads never woke (lost wakeup)");
    }
    out.attempted = ops + static_cast<std::uint64_t>(parked_);
    return out;
  }

 private:
  void Write(int w, Worker& wk) {
    tcs::Atomically(rt_.sys(), [&](tcs::Tx& tx) { (void)tx.Load(cells_[w][0].v); });
    ready_.fetch_add(1, std::memory_order_release);
    AwaitStart(clock_);
    PaddedCell* cells = cells_[w].get();
    std::uint64_t* counts = counts_[w];
    std::size_t k = 0;
    std::uint64_t ops = 0;
    for (;;) {
      const int phase = clock_.get();
      if (phase == kStop) {
        break;
      }
      ThreadTrace* tr = wk.TraceFor(phase);
      const auto [a, b] = picks_[w][k];
      k = (k + 1) % kPicks;
      if (tr != nullptr) {
        tr->OpBegin(kWrite);
      }
      const std::uint64_t t0 = NowNs();
      Transact(rt_.sys(), tr, [&](tcs::Tx& tx) {
        tx.Store(cells[a].v, tx.Load(cells[a].v) + 1);
        tx.Store(cells[b].v, tx.Load(cells[b].v) + 1);
      });
      const std::uint64_t t1 = NowNs();
      if (tr != nullptr) {
        tr->OpEnd();
      }
      Tally& t = wk.tally[phase];
      ++t.ops;
      t.latency.Record(t1 - t0);
      ++counts[a];
      ++counts[b];
      ++ops;
    }
    ops_[w] = ops;
    MarkExited();
  }

  void Park(int i) {
    tcs::Atomically(rt_.sys(), [&](tcs::Tx& tx) {
      if (tx.Load(gates_[i].v) == 0) {
        tx.Retry();
      }
    });
    MarkExited();
  }

  tcs::Runtime rt_;
  const int parked_;
  std::unique_ptr<PaddedCell[]> gates_;
  std::unique_ptr<PaddedCell[]> cells_[kWriters];
  std::vector<std::pair<std::uint16_t, std::uint16_t>> picks_[kWriters];
  // Committed increments per cell, kept by the owning writer outside the TM.
  std::uint64_t counts_[kWriters][kCellsPerWriter] = {};
  std::uint64_t ops_[kWriters] = {};
  std::atomic<int> ready_{0};
  std::uint64_t wakeups_at_start_ = 0;
  std::vector<std::thread> parked_threads_;
};

}  // namespace

std::unique_ptr<Workload> MakeBystander(const RunOptions& opt) {
  return std::make_unique<Bystander>(opt);
}

}  // namespace perfbench
