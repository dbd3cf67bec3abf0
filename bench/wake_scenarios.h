// The many-waiters wakeup scenarios behind the wake-index ablations: N waiters
// parked on N cache-line-padded buffers, one hot producer repeatedly touching a
// single buffer. With the sharded wake index a producer commit wake-checks only
// the shards its write lands in (~the relevant waiters); with the global scan
// it re-runs every registered waiter's predicate — O(all) vs O(relevant).
//
// Two waitset shapes:
//  * kDisjoint    — waiter w waits on cell w only; one relevant waiter per
//                   producer commit, so wake_checks_per_commit measures pure
//                   shard-aliasing noise (1.0 is ideal).
//  * kOverlapping — waiter w waits on cells {w, w+1 mod N}; a write to cell 0
//                   concerns waiters 0 and N-1, so ~2 checks per commit is
//                   ideal and the index must still prune the other N-2.
//
// The shard count is sweepable (64 / 256 / 1024 ablation): more shards mean
// fewer unrelated waiters aliasing into the hot shard.
#ifndef TCS_BENCH_WAKE_SCENARIOS_H_
#define TCS_BENCH_WAKE_SCENARIOS_H_

#include <chrono>
#include <cstdint>

#include "src/tm/tm_config.h"

namespace tcs {

enum class WaitsetShape : int {
  kDisjoint = 0,
  kOverlapping = 1,
};

const char* WaitsetShapeName(WaitsetShape s);

struct WakeTrialOptions {
  Backend backend = Backend::kEagerStm;
  bool targeted = true;
  int waiters = 0;
  std::uint64_t producer_commits = 0;
  // 0 = TmConfig's default shard count.
  int num_shards = 0;
  WaitsetShape shape = WaitsetShape::kDisjoint;
  // Silent producer: every commit writer-commits the hot cell's *unchanged*
  // value, so no waiter is ever satisfied and all N stay parked. This makes
  // wake_checks_per_commit a deterministic precision metric — exactly the
  // waiters aliasing into the hot cell's shard (1.0 is ideal) — instead of a
  // number dominated by how fast the woken waiter re-registers.
  bool silent_producer = false;
  // 0 = TmConfig's default wake batch size; 1 reverts to the paper's
  // one-transaction-per-candidate wake path (the batching ablation baseline).
  int wake_batch_size = 0;
  // Lock-free CAS wake-claim fast path (TmConfig::cas_claim_fast_path).
  // Disabling it reverts to the all-transactional claim baseline.
  bool cas_claim_fast_path = true;
  // Abort-rate-driven effective batch sizing (TmConfig::adaptive_wake_batch);
  // wake_batch_size becomes the cap. Disabling pins the batch at the cap.
  bool adaptive_wake_batch = true;
};

struct WakeTrialResult {
  Backend backend;
  bool targeted = false;
  int waiters = 0;
  int num_shards = 0;              // the count actually configured
  WaitsetShape shape = WaitsetShape::kDisjoint;
  bool silent_producer = false;
  int wake_batch_size = 0;         // the batch size actually configured
  std::uint64_t producer_commits = 0;
  double seconds = 0.0;            // hot-producer phase wall time
  double commits_per_sec = 0.0;    // wake-path throughput
  bool cas_claim_fast_path = false;  // as configured
  bool adaptive_wake_batch = false;  // as configured
  std::uint64_t wake_checks = 0;   // predicate evaluations writers paid
  std::uint64_t wake_batches = 0;  // internal wake transactions writers paid
  std::uint64_t cas_claims = 0;    // waiters claimed without any wake tx
  std::uint64_t cas_fallbacks = 0;  // fast-path bails into the batched path
  std::uint64_t wake_tx_aborts = 0;  // aborted wake-transaction attempts
  std::uint64_t wakeups = 0;       // all wake-token posts, vacuous included
  // Conservative empty-waitset posts: no evidence anyone was satisfied, so
  // precision rows report genuine_wakeups = wakeups - vacuous_wakeups.
  std::uint64_t vacuous_wakeups = 0;
  std::uint64_t genuine_wakeups = 0;
  double wake_checks_per_commit = 0.0;
  double wake_batches_per_commit = 0.0;
  // Latency distributions (log2-bucket histograms, src/obs/), sampled over the
  // hot-producer phase only. Commit latency covers the producer's committed
  // attempts; wake latency is the waker's wake-token post → waiter resume
  // hand-off. Percentile values are bucket upper bounds (conservative).
  std::uint64_t commit_latency_count = 0;
  std::uint64_t commit_p50_ns = 0;
  std::uint64_t commit_p99_ns = 0;
  std::uint64_t commit_p999_ns = 0;
  std::uint64_t wake_latency_count = 0;
  std::uint64_t wake_p50_ns = 0;
  std::uint64_t wake_p99_ns = 0;
  std::uint64_t wake_p999_ns = 0;
};

// Runs one trial: parks `waiters` threads on cache-line-padded cells (shape
// selects disjoint or neighbor-overlapping waitsets), then times
// `producer_commits` writer commits against cell 0 (waiter 0 cycles
// wake/sleep; all others stay parked except overlap neighbors), and finally
// releases everyone.
WakeTrialResult RunWakeIndexTrial(const WakeTrialOptions& opts);

// Convenience overload for the classic disjoint scenario at default shards.
WakeTrialResult RunWakeIndexTrial(Backend backend, bool targeted, int waiters,
                                  std::uint64_t producer_commits);

struct WakeVerifyResult {
  std::uint64_t lost_wakeups = 0;    // waiters not woken within the deadline
  std::uint64_t leaked_entries = 0;  // wake registrations left after join
};

// No-lost-wakeup check for one wake configuration: parks `waiters` threads on
// disjoint cells (targeted wakeup), satisfies each exactly once, and counts
// the waiters that did not wake within `deadline`. After a clean run it
// counts the registrations left behind (registry slots, or 1 when only the
// wake index still holds an entry). Both must be zero. On a lost wakeup the
// stuck threads and the runtime they park in are deliberately leaked: they
// cannot be woken, joined or torn down.
WakeVerifyResult VerifyNoLostWakeups(Backend backend, int batch, bool cas,
                                     bool adaptive, int waiters,
                                     std::chrono::seconds deadline);

}  // namespace tcs

#endif  // TCS_BENCH_WAKE_SCENARIOS_H_
