// router: open loop. One generator publishes on a seeded Poisson schedule
// (20k msg/s) into 48 topics, each a BoundedBuffer of capacity 256; 3
// subscribers own 16 topics each. A subscriber takes its next message with one
// transaction that scans its topics and, when all are empty, waits with
// RetryFor(2 ms) — the idle-timeout idiom, so every park arms (and usually
// abandons) a timer-wheel entry. A full topic drops the message. An op is one
// message delivered; its latency runs from the send to the subscriber's
// return, where a send the generator could not make on time because earlier
// publishes held it up counts from its scheduled time.
#include <sys/prctl.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/sync/bounded_buffer.h"

namespace perfbench {
namespace {

constexpr int kTopics = 48;
constexpr int kSubscribers = 3;
constexpr int kTopicsPerSubscriber = kTopics / kSubscribers;
constexpr std::uint64_t kTopicCapacity = 256;
constexpr double kRatePerSec = 20000.0;
constexpr auto kIdleTimeout = std::chrono::milliseconds(2);
// After the last scheduled send, how long messages may still be in flight
// before the undelivered ones count as failed.
constexpr auto kGrace = std::chrono::seconds(2);

int OwnerOf(int topic) { return topic / kTopicsPerSubscriber; }

class Router final : public Workload {
 public:
  Router(const RunOptions& opt, const RouterInputs& in)
      : send_ns_(in.send_ns),
        topic_of_(in.topic),
        published_(send_ns_.size(), false),
        start_ns_(std::make_unique<std::atomic<std::uint64_t>[]>(send_ns_.size())),
        delivered_(std::make_unique<std::atomic<std::uint8_t>[]>(send_ns_.size())) {
    for (int t = 0; t < kTopics; ++t) {
      topics_.push_back(
          std::make_unique<tcs::BoundedBuffer>(&rt_, tcs::Mechanism::kRetry, kTopicCapacity));
    }
    Worker& g = AddWorker(opt.trace);
    g.thread = std::thread([this, &g] { Generate(g); });
    for (int s = 0; s < kSubscribers; ++s) {
      Worker& w = AddWorker(opt.trace);
      w.thread = std::thread([this, s, &w] { Subscribe(s, w); });
    }
    while (ready_.load(std::memory_order_acquire) < 1 + kSubscribers) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  tcs::TmSystem& sys() override { return rt_.sys(); }
  void Start(std::uint64_t base_ns) override { base_ns_ = base_ns; }

  Outcome Finish() override {
    clock_.set(kStop);
    Outcome out;
    // The generator finishes the schedule (it ends with the last window).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!gen_done_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t sent = sent_.load(std::memory_order_acquire);
    const auto grace_end = std::chrono::steady_clock::now() + kGrace;
    while (delivered_total_.load(std::memory_order_acquire) < sent &&
           std::chrono::steady_clock::now() < grace_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    drained_.store(true, std::memory_order_release);
    const int hung = JoinWithin(WorkerThreads(), 1 + kSubscribers, std::chrono::seconds(20));
    if (hung > 0) {
      out.abandoned_threads = true;
      out.Fail(static_cast<std::uint64_t>(hung),
               "router: " + std::to_string(hung) + " threads did not stop");
      return out;
    }
    const std::uint64_t scheduled = started_ ? send_ns_.size() : 0;
    out.attempted = scheduled;
    if (sent_.load() + dropped_.load() != scheduled) {
      out.Fail(scheduled - sent_.load() - dropped_.load(),
               "router: generator did not finish the schedule");
    }
    if (dropped_.load() != 0) {
      out.Fail(dropped_.load(), "router: " + std::to_string(dropped_.load()) +
                                    " messages dropped on a full topic");
    }
    std::uint64_t undelivered = 0;
    for (std::size_t i = 0; i < send_ns_.size(); ++i) {
      undelivered += published_[i] && delivered_[i].load() == 0 ? 1 : 0;
    }
    if (undelivered != 0) {
      out.Fail(undelivered, "router: " + std::to_string(undelivered) +
                                " messages undelivered after the grace period");
    }
    if (misrouted_.load() != 0) {
      out.Fail(misrouted_.load(), "router: " + std::to_string(misrouted_.load()) +
                                      " messages delivered twice or to the wrong subscriber");
    }
    return out;
  }

 private:
  void Register() {
    tcs::Atomically(rt_.sys(), [&](tcs::Tx& tx) { (void)topics_[0]->Count(tx); });
    ready_.fetch_add(1, std::memory_order_release);
  }

  void Generate(Worker& w) {
    // Sleep to each send time with the finest timer slack the kernel allows.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Register();
    AwaitStart(clock_);
    started_ = clock_.get() != kStop;
    for (std::size_t i = 0; started_ && i < send_ns_.size(); ++i) {
      const std::uint64_t due = base_ns_ + send_ns_[i];
      // A message's latency starts at its scheduled time when the generator
      // was still busy with earlier publishes (that backlog is the library's
      // doing), and at the actual send when the generator was asleep waiting
      // for it (its own timer wake-up overshoot is the harness's).
      std::uint64_t start = due;
      if (NowNs() < due) {
        SleepUntilNs(due);
        start = NowNs();
      }
      const int phase = clock_.get();
      Tally& t = w.tally[phase];
      t.lateness.Record(NowNs() - due);
      // mo: relaxed — the message itself is published through the TM commit.
      start_ns_[i].store(start, std::memory_order_relaxed);
      ThreadTrace* tr = w.TraceFor(phase);
      if (tr != nullptr) {
        tr->OpBegin(kPublish);
      }
      tcs::BoundedBuffer& topic = *topics_[topic_of_[i]];
      const bool ok = Transact(rt_.sys(), tr, [&](tcs::Tx& tx) {
        if (topic.Full(tx)) {
          return false;
        }
        topic.Put(tx, i);
        return true;
      });
      if (tr != nullptr) {
        tr->OpEnd();
      }
      published_[i] = ok;
      if (ok) {
        sent_.fetch_add(1, std::memory_order_release);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    gen_done_.store(true, std::memory_order_release);
    MarkExited();
  }

  void Subscribe(int s, Worker& w) {
    Register();
    AwaitStart(clock_);
    int mine[kTopicsPerSubscriber];
    for (int k = 0; k < kTopicsPerSubscriber; ++k) {
      mine[k] = s * kTopicsPerSubscriber + k;
    }
    int next = 0;  // rotating scan start, so no topic is favoured
    bool op_open = false;
    ThreadTrace* tr = nullptr;
    for (;;) {
      if (!op_open) {
        tr = w.TraceFor(clock_.get());
        if (tr != nullptr) {
          tr->OpBegin(kTake);
        }
        op_open = true;
      }
      const std::optional<std::pair<int, std::uint64_t>> got = Transact(
          rt_.sys(), tr, [&](tcs::Tx& tx) -> std::optional<std::pair<int, std::uint64_t>> {
            for (int k = 0; k < kTopicsPerSubscriber; ++k) {
              const int topic = mine[(next + k) % kTopicsPerSubscriber];
              if (!topics_[topic]->Empty(tx)) {
                return std::make_pair(topic, topics_[topic]->Get(tx));
              }
            }
            RetryFor(tx, tr, kIdleTimeout);  // returns only on timeout
            return std::nullopt;
          });
      if (!got) {
        if (drained_.load(std::memory_order_acquire)) {
          break;
        }
        continue;
      }
      const std::uint64_t now = NowNs();
      if (tr != nullptr) {
        tr->OpEnd();
      }
      op_open = false;
      const auto [topic, i] = *got;
      next = (topic % kTopicsPerSubscriber + 1) % kTopicsPerSubscriber;
      if (i >= send_ns_.size() || topic_of_[i] != topic || OwnerOf(topic) != s ||
          delivered_[i].exchange(1, std::memory_order_relaxed) != 0) {
        misrouted_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Tally& t = w.tally[clock_.get()];
      ++t.ops;
      // mo: relaxed — written before the message's publishing commit.
      t.latency.Record(now - start_ns_[i].load(std::memory_order_relaxed));
      delivered_total_.fetch_add(1, std::memory_order_release);
    }
    MarkExited();
  }

  tcs::Runtime rt_;
  std::vector<std::unique_ptr<tcs::BoundedBuffer>> topics_;
  const std::vector<std::uint64_t>& send_ns_;  // offset from base_ns_
  const std::vector<std::uint8_t>& topic_of_;
  std::vector<bool> published_;          // generator-owned until it exits
  std::unique_ptr<std::atomic<std::uint64_t>[]> start_ns_;  // latency start per message
  std::unique_ptr<std::atomic<std::uint8_t>[]> delivered_;
  std::uint64_t base_ns_ = 0;            // written before the clock starts
  bool started_ = false;                 // generator-owned until it exits
  std::atomic<int> ready_{0};
  std::atomic<bool> gen_done_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delivered_total_{0};
  std::atomic<std::uint64_t> misrouted_{0};
};

}  // namespace

RouterInputs BuildRouterInputs(std::uint64_t seed, double total_seconds) {
  RouterInputs in;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(kRatePerSec / 1e9);  // per ns
  const double end_ns = total_seconds * 1e9;
  for (double t = gap(rng); t < end_ns; t += gap(rng)) {
    in.send_ns.push_back(static_cast<std::uint64_t>(t));
    in.topic.push_back(static_cast<std::uint8_t>(rng() % kTopics));
  }
  return in;
}

std::unique_ptr<Workload> MakeRouter(const RunOptions& opt, const RouterInputs& in) {
  return std::make_unique<Router>(opt, in);
}

}  // namespace perfbench
