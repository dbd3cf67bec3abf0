// Per-thread transaction descriptor (the paper's "Tx object", Algorithm 8, plus the
// condition-synchronization fields of Algorithms 4 and 5).
//
// One descriptor holds the state for every backend — undo log (eager STM and the
// simulated HTM's serial mode), redo log (lazy STM and simulated-HTM buffering),
// orec read/lock sets — because a TM domain runs exactly one backend and the unused
// logs cost nothing.
#ifndef TCS_TM_TX_DESC_H_
#define TCS_TM_TX_DESC_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/parking_lot.h"
#include "src/common/stats.h"
#include "src/obs/thread_obs.h"
#include "src/tm/orec_table.h"
#include "src/tm/redo_log.h"
#include "src/tm/tx_malloc.h"
#include "src/tm/undo_log.h"
#include "src/tm/wait_set.h"
#include "src/tm/word.h"

namespace tcs {

class TmSystem;
class TmCondVar;

// Marshaled arguments for a wait predicate (Algorithm 7). A fixed inline record:
// WaitPred "cannot construct an object to store these arguments, since the writes
// might be undone during Deschedule", so the library copies up to four words.
struct WaitArgs {
  std::array<TmWord, 4> v{};
  std::uint32_t n = 0;
};

// A wait predicate, evaluated transactionally — by the waiter inside its
// registration transaction (the Deschedule double-check) and by writers inside
// wakeWaiters. It must be read-only and must access shared state only through
// TmSystem::Read.
using WaitPredFn = bool (*)(TmSystem&, const WaitArgs&);

// An orec acquired by the running transaction, with its pre-acquisition version so
// releaseForAbort can restore `prev_version + 1` (Algorithm 11).
struct LockedOrec {
  Orec* orec;
  std::uint64_t prev_version;
};

// Deferred TMCondVar signal: signals issued inside a transaction take effect only
// when (and if) that transaction commits.
struct DeferredCvSignal {
  TmCondVar* cv;
  bool broadcast;
};

// Marks the state of the running attempt when an OrElse branch begins, so the
// branch's speculative effects — and only those — can be rolled back if it
// retries. Reads (and the orecs locked for writes) made by the abandoned branch
// deliberately stay: the decision to take the alternative depended on what the
// branch observed, so serializability still has to validate them, and the
// retry waitset keeps the branch's entries so a deschedule after both branches
// fail waits on the union of their read sets.
struct TxSavepoint {
  std::size_t undo_size;
  RedoLog::Savepoint redo;
  // Orecs locked after this mark were first acquired by the branch; backends
  // that can release them safely on partial rollback do so (eager restores
  // prev_version + 1 for orecs outside the read set; the simulated HTM's
  // buffered mode restores the exact pre-acquisition version).
  std::size_t locks_size;
  std::size_t alloc_count;
  std::size_t free_count;
};

struct TxDesc {
  TxDesc(int tid_in, std::uint64_t backoff_seed)
      : tid(tid_in), backoff(backoff_seed) {}

  TxDesc(const TxDesc&) = delete;
  TxDesc& operator=(const TxDesc&) = delete;

  // --- identity ---
  const int tid;

  // --- lifecycle ---
  std::uint32_t nesting = 0;
  bool internal = false;  // runtime-internal transaction: skip post-commit hooks
  std::uint64_t start = 0;

  // --- STM state (Appendix A) ---
  std::vector<Orec*> reads;
  std::vector<LockedOrec> locks;
  UndoLog undo;
  RedoLog redo;
  TxMallocLog mem;

  // --- condition synchronization (Algorithms 4-7) ---
  WaitSet waitset;
  // The paper's is_retry: log ⟨addr,value⟩ on every read. Set by the first
  // Retry of a transaction, which restarts once to turn it on (kRetrySetup).
  // A transaction that waited through untimed Retry leaves it on for the
  // thread's next transaction (retry_waited, ResetDescAfterTx), whose Retry
  // then deschedules at once; one that commits without waiting clears it.
  // Sim-HTM hardware attempts never log: their Retry switches to software
  // mode with logging on.
  bool retry_logging = false;
  bool retry_waited = false;   // this transaction descheduled through Retry
  ParkSpot park;               // per-thread futex parking place
  bool woke_from_sleep = false;
  // Whether the next untimed findChanges wait spins on its waitset words
  // before registering (RunPendingWait). Set when an untimed park ended in a
  // wakeup shortly after it began, or when a spin saw a change; cleared when
  // a spin runs out its budget.
  bool spin_before_park = false;

  // The wait a Retry/Await/WaitPred asked for, recorded when the attempt
  // rolled back and run by TmSystem::OnRestart once the body has unwound
  // (deschedule.cc); fn == nullptr when none is pending. `args` is a copy,
  // so nothing here points into the unwound body's frames.
  struct PendingWait {
    WaitPredFn fn = nullptr;
    WaitArgs args;
    bool timed = false;
  };
  PendingWait pending_wait;

  // --- OrElse / timed-wait state ---
  // Number of OrElse alternatives the current attempt still has available; a
  // Retry() while this is non-zero throws TxRetrySignal to the innermost OrElse
  // frame instead of descheduling.
  std::uint32_t orelse_alts = 0;
  // Timed-wait deadlines, one per *call*: each RetryFor/AwaitFor/WaitPredFor
  // call arms its own deadline the first time it is reached and keeps it across
  // the transaction's restarts (logging restart, conflict aborts, false
  // wakeups), so a call's timeout bounds that wait's total elapsed time — while
  // a later, different wait in the same transaction starts its own clock.
  // (Previously one deadline was shared by every timed wait of the transaction,
  // so a second sequential wait inherited whatever budget the first had left.)
  // Calls are identified by a caller-supplied key — the call site, or the
  // awaited address set — combined with the occurrence ordinal within the
  // attempt, so one call site re-reached across restarts finds its armed
  // deadline, and a loop reusing a call site still gets one deadline per
  // logical wait. Expired slots are kept until commit so a conflict-abort
  // replay of the delivering attempt re-observes the expiry rather than
  // re-arming a fresh budget.
  struct ArmedDeadline {
    std::uint64_t key;
    std::chrono::steady_clock::time_point at;
  };
  std::vector<ArmedDeadline> deadlines;
  std::vector<std::uint64_t> wait_keys_this_attempt;
  // Deadline of the timed wait currently heading to sleep (set by the
  // DeadlineExpired check that precedes DescheduleImpl on the same call path).
  std::chrono::steady_clock::time_point active_deadline{};
  std::vector<DeferredCvSignal> deferred_signals;
  // Writer-side snapshot of acquired orecs, taken just before lock release when
  // Retry-Orig or wake-index waiters exist (Algorithm 1's TxCommit
  // intersection and the targeted wake pass need it). Cleared after each
  // commit's wake passes; the buffer keeps its capacity, so a writer commit
  // allocates nothing while waiters are registered.
  std::vector<const Orec*> commit_orecs;

  // The orecs of the waitset a registration publishes (waiter side, reused
  // wait to wait): they feed the index inserts, and the same list lowers the
  // gate counts again once the wait deregisters.
  std::vector<const Orec*> wait_orecs;

  // --- wakeWaiters scratch (writer side, reused commit to commit) ---
  // The write set's wake-index shard-set bitmap (shard_words() words), built
  // once per wake pass into this cached buffer instead of a per-call stack
  // array sized for the maximum shard count.
  std::vector<std::uint64_t> wake_shard_scratch;
  // Candidate tids collected from the index (or the registry scan) before the
  // batched wake transactions run over them.
  std::vector<int> wake_candidates;
  // Slots the current wake batch tentatively claimed (asleep 1→0 inside the
  // batch transaction); rebuilt from scratch on every re-execution of the
  // batch, posted only after it commits.
  struct WakeClaim {
    int tid;
    bool vacuous;  // conservative empty-waitset wake, not a satisfied one
  };
  std::vector<WakeClaim> wake_claims;
  // Candidates the CAS fast path could not claim this pass; they re-enter the
  // batched wake-transaction path (rebuilt each pass, like wake_candidates).
  std::vector<int> wake_fallback;
  // Per-tid seen bitmap (one bit per possible waiter tid) used to drop
  // duplicate candidates: a waiter that deregisters and re-registers globally
  // between the shard pass and the global pass of ForEachCandidateIn can be
  // emitted twice (see wake_index.h). Zeroed lazily per wake pass; sized to
  // the registry's populated tid bound, growing on demand for segments
  // published mid-pass.
  std::vector<std::uint64_t> wake_seen_scratch;
  // WakeIndex::FingerprintOf of each written orec, the wake pass's
  // fingerprint filter (empty when the write set is too large to filter).
  std::vector<std::uint64_t> wake_fp_scratch;
  // Wake-transaction abort rate, EWMA in permille (0..1000), alpha = 1/8:
  // updated by the owning writer after each wake pass from (batch lambda
  // executions - committed batches). adaptive_wake_batch shrinks the
  // effective batch while this is high. Read by monitors through a relaxed
  // atomic_ref (same contract as `stats`).
  std::uint64_t wake_abort_ewma_permille = 0;

  // --- simulated HTM state ---
  bool htm_serial = false;         // currently executing in serial-irrevocable mode
  bool htm_software_next = false;  // next attempt must run in serial software mode
  int htm_attempts = 0;            // hardware aborts since last success
  std::uint64_t htm_serial_seq0 = 0;
  std::uint8_t htm_abort_code = 0;

  // --- restart-loop support ---
  Backoff backoff;
  bool skip_backoff = false;

  TxStats stats;

  // Observability: abort attribution, latency histograms, trace ring
  // (src/obs/thread_obs.h). Same concurrency contract as `stats`.
  ThreadObs obs;
};

}  // namespace tcs

#endif  // TCS_TM_TX_DESC_H_
