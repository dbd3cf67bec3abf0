// handoff: closed loop, 2 producers and 2 consumers on one BoundedBuffer of
// capacity 1. Each op is Algorithm 2 composed with Retry:
//   Atomically { if Full -> Retry; Put }   /   Atomically { if Empty -> Retry; Get }
// so nearly every item crosses a park/unpark. An op is one item produced and
// consumed; its latency runs from the producer's call to the consumer's return.
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include "perfbench/src/workloads.h"
#include "src/sync/bounded_buffer.h"

namespace perfbench {
namespace {

constexpr int kProducers = 2;
constexpr int kConsumers = 2;
constexpr std::uint64_t kStopItem = ~std::uint64_t{0};
// Producer call times, indexed by item sequence. An item is at most a few
// positions ahead of the oldest one not yet consumed (the buffer holds one),
// so a slot is never reused while its item is in flight.
constexpr std::uint64_t kRing = 4096;

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

class Handoff final : public Workload {
 public:
  explicit Handoff(const RunOptions& opt)
      : buf_(&rt_, tcs::Mechanism::kRetry, /*capacity=*/1) {
    // The seed salts item values, so the checksums differ per seed.
    salt_ = std::mt19937_64(opt.seed)() & ((std::uint64_t{1} << 48) - 1);
    for (int p = 0; p < kProducers; ++p) {
      Worker& w = AddWorker(opt.trace);
      w.thread = std::thread([this, p, &w] { Produce(p, w); });
    }
    for (int c = 0; c < kConsumers; ++c) {
      Worker& w = AddWorker(opt.trace);
      w.thread = std::thread([this, c, &w] { Consume(c, w); });
    }
    // Every thread registers with the runtime before set-up ends.
    while (ready_.load(std::memory_order_acquire) < kProducers + kConsumers) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  tcs::TmSystem& sys() override { return rt_.sys(); }
  void Start(std::uint64_t) override {}

  Outcome Finish() override {
    clock_.set(kStop);
    Outcome out;
    const int hung = JoinWithin(WorkerThreads(), kProducers + kConsumers,
                                std::chrono::seconds(20));
    std::uint64_t produced = 0, consumed = 0, sum_p = 0, sum_c = 0;
    for (int p = 0; p < kProducers; ++p) {
      produced += produced_[p].load(std::memory_order_acquire);
      sum_p += sum_produced_[p].load(std::memory_order_acquire);
    }
    for (int c = 0; c < kConsumers; ++c) {
      consumed += consumed_[c].load(std::memory_order_acquire);
      sum_c += sum_consumed_[c].load(std::memory_order_acquire);
    }
    out.attempted = produced;
    if (hung > 0) {
      out.abandoned_threads = true;
      out.Fail(static_cast<std::uint64_t>(hung),
               "handoff: " + std::to_string(hung) + " threads still blocked at teardown");
    }
    if (consumed != produced) {
      const std::uint64_t diff = consumed > produced ? consumed - produced : produced - consumed;
      out.Fail(diff, "handoff: produced " + std::to_string(produced) + " items, consumed " +
                         std::to_string(consumed));
    } else if (sum_c != sum_p) {
      out.Fail(1, "handoff: consumed-item checksum differs from produced-item checksum");
    }
    return out;
  }

 private:
  void Register() {
    tcs::Atomically(rt_.sys(), [&](tcs::Tx& tx) { (void)buf_.Count(tx); });
    ready_.fetch_add(1, std::memory_order_release);
  }

  void Put(std::uint64_t v, ThreadTrace* tr) {
    Transact(rt_.sys(), tr, [&](tcs::Tx& tx) {
      if (buf_.Full(tx)) {
        Retry(tx, tr);
      }
      buf_.Put(tx, v);
    });
  }

  void Produce(int p, Worker& w) {
    Register();
    AwaitStart(clock_);
    std::uint64_t seq = 0, sum = 0;
    for (;;) {
      const int phase = clock_.get();
      if (phase == kStop) {
        break;
      }
      ThreadTrace* tr = w.TraceFor(phase);
      const std::uint64_t v = ((static_cast<std::uint64_t>(p) << 48) | seq) ^ salt_;
      if (tr != nullptr) {
        tr->OpBegin(kProduce);
      }
      // mo: relaxed — the item itself is published through the TM commit.
      call_ns_[p][seq % kRing].store(NowNs(), std::memory_order_relaxed);
      Put(v, tr);
      if (tr != nullptr) {
        tr->OpEnd();
      }
      sum += Mix(v);
      ++seq;
    }
    Put(kStopItem, nullptr);  // each consumer leaves on the first stop item it takes
    produced_[p].store(seq, std::memory_order_release);
    sum_produced_[p].store(sum, std::memory_order_release);
    MarkExited();
  }

  void Consume(int c, Worker& w) {
    Register();
    AwaitStart(clock_);
    std::uint64_t n = 0, sum = 0;
    for (;;) {
      const int phase = clock_.get();
      ThreadTrace* tr = w.TraceFor(phase);
      if (tr != nullptr) {
        tr->OpBegin(kConsume);
      }
      const std::uint64_t v = Transact(rt_.sys(), tr, [&](tcs::Tx& tx) {
        if (buf_.Empty(tx)) {
          Retry(tx, tr);
        }
        return buf_.Get(tx);
      });
      if (v == kStopItem) {
        break;
      }
      const std::uint64_t now = NowNs();
      if (tr != nullptr) {
        tr->OpEnd();
      }
      const std::uint64_t raw = v ^ salt_;
      const std::uint64_t p = raw >> 48;
      const std::uint64_t seq = raw & ((std::uint64_t{1} << 48) - 1);
      if (p < kProducers) {
        // mo: relaxed — written before the item's producing commit.
        const std::uint64_t t0 = call_ns_[p][seq % kRing].load(std::memory_order_relaxed);
        Tally& t = w.tally[phase];
        ++t.ops;
        t.latency.Record(now - t0);
      }
      sum += Mix(v);
      ++n;
    }
    consumed_[c].store(n, std::memory_order_release);
    sum_consumed_[c].store(sum, std::memory_order_release);
    MarkExited();
  }

  tcs::Runtime rt_;
  tcs::BoundedBuffer buf_;
  std::uint64_t salt_ = 0;
  std::atomic<int> ready_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> call_ns_[kProducers] = {
      std::make_unique<std::atomic<std::uint64_t>[]>(kRing),
      std::make_unique<std::atomic<std::uint64_t>[]>(kRing)};
  std::atomic<std::uint64_t> produced_[kProducers] = {};
  std::atomic<std::uint64_t> sum_produced_[kProducers] = {};
  std::atomic<std::uint64_t> consumed_[kConsumers] = {};
  std::atomic<std::uint64_t> sum_consumed_[kConsumers] = {};
};

}  // namespace

std::unique_ptr<Workload> MakeHandoff(const RunOptions& opt) {
  return std::make_unique<Handoff>(opt);
}

}  // namespace perfbench
