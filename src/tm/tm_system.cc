// lint:hot-path — per-access TM fast path: TCS_DCHECK must not appear inside
// loops here (tools/lint_tm_discipline.py); use TCS_CHECK on slow paths.
#include "src/tm/tm_system.h"

#include <algorithm>
#include <atomic>

#include "src/common/cpu.h"
#include "src/common/json_writer.h"
#include "src/obs/trace.h"
#include "src/obs/trace_dump.h"
#include "src/condsync/retry_orig.h"
#include "src/condsync/tm_condvar.h"
#include "src/condsync/waiter_registry.h"
#include "src/condsync/wake_index.h"
#include "src/tm/eager_stm.h"
#include "src/tm/lazy_stm.h"
#include "src/tm/sim_htm.h"

#include <mutex>
#include <unordered_map>

namespace tcs {
namespace {

std::atomic<std::uint64_t> g_system_uid{1};

// Registry of live TM domains, keyed by uid. Thread-exit cleanup consults it so a
// descriptor slot is recycled only if its domain still exists.
std::mutex& LiveSystemsMutex() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<std::uint64_t, TmSystem*>& LiveSystems() {
  static auto* m = new std::unordered_map<std::uint64_t, TmSystem*>();
  return *m;
}

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kEagerStm:
      return "eager-stm";
    case Backend::kLazyStm:
      return "lazy-stm";
    case Backend::kSimHtm:
      return "sim-htm";
  }
  return "unknown";
}

std::unique_ptr<TmSystem> TmSystem::Create(const TmConfig& config) {
  switch (config.backend) {
    case Backend::kEagerStm:
      return std::make_unique<EagerStm>(config);
    case Backend::kLazyStm:
      return std::make_unique<LazyStm>(config);
    case Backend::kSimHtm:
      return std::make_unique<SimHtm>(config);
  }
  TCS_CHECK_MSG(false, "unknown backend");
  return nullptr;
}

TmSystem::TmSystem(const TmConfig& config)
    : cfg_(config),
      orecs_(config.orec_table_log2,
             config.backend == Backend::kSimHtm ? 6 : 3),
      quiesce_(config.max_threads),
      // mo: relaxed — uid allocation only needs uniqueness (atomicity), not
      // ordering; no other data is published through this counter.
      uid_(g_system_uid.fetch_add(1, std::memory_order_relaxed)) {
  descs_.resize(static_cast<std::size_t>(cfg_.max_threads));
  waiters_ = std::make_unique<WaiterRegistry>(cfg_.max_threads);
  retry_orig_ = std::make_unique<RetryOrigRegistry>(cfg_.max_threads);
  wake_index_ = std::make_unique<WakeIndex>(
      cfg_.max_threads, cfg_.wake_index_shards,
      static_cast<int>(std::min<std::size_t>(WakeIndex::kMaxGateLog2,
                                             cfg_.orec_table_log2)));
  if (cfg_.timer_wheel) {
    wheel_ = std::make_unique<TimerWheel>(
        static_cast<std::uint64_t>(cfg_.timer_wheel_tick_us) * 1000);
  }
#if TCS_PROTOCOL_CHECKS
  proto_ = std::make_unique<ProtocolChecker>(orecs_, cfg_.max_threads);
  // Standalone WakeIndex/WaiterRegistry instances (unit tests) stay unchecked;
  // only the domain-owned structures participate in the balance protocols.
  wake_index_->AttachProtocolChecker(proto_.get());
  waiters_->AttachProtocolChecker(proto_.get());
  quiesce_.AttachProtocolChecker(proto_.get());
#endif
  std::lock_guard<std::mutex> g(LiveSystemsMutex());
  LiveSystems().emplace(uid_, this);
}

TmSystem::~TmSystem() {
  std::lock_guard<std::mutex> g(LiveSystemsMutex());
  LiveSystems().erase(uid_);
}

void TmSystem::ReleaseTid(TxDesc* d) {
  SpinLockGuard g(registration_lock_);
  TCS_CHECK_MSG(d->nesting == 0, "thread exited inside a transaction");
  // The exiting thread is past its last SetInactive: commits stop scanning
  // its slot until a new owner registers (see quiesce.h).
  quiesce_.MarkParked(d->tid);
  free_tids_.push_back(d->tid);
}

void TmSystem::ReleaseTidIfAlive(std::uint64_t uid, TxDesc* d) {
  std::lock_guard<std::mutex> g(LiveSystemsMutex());
  auto it = LiveSystems().find(uid);
  if (it != LiveSystems().end()) {
    it->second->ReleaseTid(d);
  }
}

TxDesc& TmSystem::RegisterThread() {
  SpinLockGuard g(registration_lock_);
  TxDesc* d = nullptr;
  if (!free_tids_.empty()) {
    int tid = free_tids_.back();
    free_tids_.pop_back();
    d = descs_[static_cast<std::size_t>(tid)].get();
    // Clear any stale wake/timeout token left by a racing waker (or a late
    // wheel fire) after the previous owner of this slot had already woken.
    d->park.Reset();
    // Retry logging carried from the previous owner's last wait is not ours.
    d->retry_logging = false;
  } else {
    TCS_CHECK_MSG(next_tid_ < cfg_.max_threads,
                  "too many threads for this TM domain");
    int tid = next_tid_++;
    descs_[tid] = std::make_unique<TxDesc>(tid, uid_ * 0x9E3779B9ULL + tid);
    d = descs_[tid].get();
#if TCS_TRACING
    if (cfg_.tracing) {
      // The registering thread is the ring's single writer; Init here (before
      // the thread's first transaction) keeps that discipline.
      d->obs.ring.Init(cfg_.trace_ring_capacity);
    }
#endif
  }
  // Registration leg of [quiesce-dekker]: the slot's not-running bit (set
  // for a never-claimed or exited slot) clears before this thread's first
  // SetActive, so commits from here on scan it (see quiesce.h).
  quiesce_.MarkRunning(d->tid);
  return *d;
}

TxDesc& TmSystem::Desc() {
  struct Entry {
    std::uint64_t uid;
    const TmSystem* sys;
    TxDesc* desc;
  };
  // The cache destructor returns each slot to its (still-live) domain when the
  // thread exits, so benchmarks that spawn threads per trial never run out.
  struct Cache {
    std::vector<Entry> entries;
    ~Cache() {
      for (const Entry& e : entries) {
        ReleaseTidIfAlive(e.uid, e.desc);
      }
    }
  };
  thread_local Cache tls;
  for (const Entry& e : tls.entries) {
    if (e.sys == this && e.uid == uid_) {
      return *e.desc;
    }
  }
  TxDesc& d = RegisterThread();
  tls.entries.push_back({uid_, this, &d});
  return d;
}

ParkSpot& TmSystem::SpotOf(int tid) {
  // Always-on: an out-of-range tid here dereferences a null descriptor slot,
  // and this runs only on the condvar signal slow path. Bounds come from the
  // immutable config rather than next_tid_ (which a concurrent registration
  // may be growing); any tid that can legitimately reach here was published
  // after its registration, so its slot is visibly non-null.
  TCS_CHECK(tid >= 0 && tid < cfg_.max_threads);
  TxDesc* d = descs_[static_cast<std::size_t>(tid)].get();
  TCS_CHECK_MSG(d != nullptr, "SpotOf for a never-registered tid");
  return d->park;
}

std::uint64_t TmSystem::ProtocolViolations() const {
#if TCS_PROTOCOL_CHECKS
  return proto_->violations();
#else
  return 0;
#endif
}

ProtocolChecker* TmSystem::protocol_checker() {
#if TCS_PROTOCOL_CHECKS
  return proto_.get();
#else
  return nullptr;
#endif
}

void TmSystem::Begin() {
  TxDesc& d = Desc();
  if (d.nesting++ > 0) {
    return;  // flat (subsumption) nesting, Appendix A
  }
  TCS_DCHECK(d.pending_wait.fn == nullptr);  // OnRestart runs every wait
  if (d.retry_logging && !d.internal) {
    // Each attempt rebuilds the waitset so it describes exactly what this
    // execution observed (Algorithm 5's lazily-reset waitset). Internal
    // transactions (registration, wake checks) must leave the published
    // waitset untouched.
    d.waitset.Clear();
  }
  d.skip_backoff = false;
  if (!d.internal) {
    // A restart unwinds past any OrElse frames without running their handlers;
    // the fresh attempt starts with no alternatives armed. Armed timed-wait
    // deadlines deliberately survive restarts (see TxDesc); only the attempt's
    // occurrence bookkeeping resets.
    d.orelse_alts = 0;
    d.wait_keys_this_attempt.clear();
    if (cfg_.latency_metrics) {
      // Each attempt resets the clock: commit latency measures the attempt
      // that succeeded. first_abort_ns (set in AbortCurrent) spans restarts
      // and feeds abort_to_commit.
      d.obs.tx_begin_ns = ObsNowNs();
    }
    TCS_TRACE_EVENT(d, TraceEvent::kTxBegin, 0);
  }
  BeginTx(d);
}

void TmSystem::Commit() {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "Commit outside transaction");
  if (--d.nesting > 0) {
    return;
  }
  bool writer = CommitTx(d);  // throws TxRestart (after rollback) if validation fails
  d.stats.Bump(writer ? Counter::kCommits : Counter::kReadOnlyCommits);
  d.mem.OnCommit();
  bool internal = d.internal;
  // The write-set snapshot stays in the descriptor, which keeps its capacity
  // commit to commit; internal transactions never touch it, so the wake
  // passes below may run them while reading it. Cleared once they are done.
  std::vector<const Orec*>& commit_orecs = d.commit_orecs;
  std::vector<DeferredCvSignal> signals;
  if (!internal) {
    TCS_TRACE_EVENT(d, TraceEvent::kTxCommit, 0);
    if (cfg_.latency_metrics && d.obs.tx_begin_ns != 0) {
      std::uint64_t now = ObsNowNs();
      d.obs.commit_latency.Record(now - d.obs.tx_begin_ns);
      if (d.obs.first_abort_ns != 0 && now >= d.obs.first_abort_ns) {
        // First abort → eventual commit, parked time included: the price the
        // caller actually paid for contention and waiting.
        d.obs.abort_to_commit.Record(now - d.obs.first_abort_ns);
      }
    }
    signals.swap(d.deferred_signals);
    ResetDescAfterTx(d);
  } else {
    // Internal transactions clear only their access sets; the enclosing
    // deschedule's published waitset and retry flags must survive.
    ClearAccessSets(d);
  }
  if (!internal) {
    // Deferred TMCondVar signals take effect now that the transaction is durable.
    for (const DeferredCvSignal& s : signals) {
      if (s.broadcast) {
        s.cv->BroadcastNow(*this);
      } else {
        s.cv->SignalNow(*this);
      }
    }
    if (writer) {
      // Order this writer's published state against the waiter-presence peeks
      // below.
      // mo: seq_cst fence — [retry-dekker] writer leg: W(orecs)/R(count_)
      // against the waiter's W(count_)/R(orecs) in WaitForOverlap.
      // seq_cst-required: store-buffering exclusion needs the fence total
      // order ([atomics.fences]); acquire/release cannot forbid both sides
      // reading pre-update values. (The WaiterRegistry/WakeIndex peeks need no
      // fence — [wake-publish] rides the [clock-chain] release sequence — but
      // RetryOrig registration performs no clock RMW, hence this Dekker.)
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (retry_orig_->HasWaiters()) {
        // This post-fence peek is the sound [retry-dekker] R-leg. The peek
        // inside SnapshotCommitOrecsIfNeeded ran BEFORE the fence and only
        // decides whether the write-orec set gets copied; if it missed a
        // racing registration, commit_orecs is empty and the write set is
        // gone (the descriptor was reset above). Waking every sleeper then
        // is the conservative repair: each revalidates under the waiting
        // lock and re-sleeps, so the race costs a spurious wakeup, never a
        // lost one.
        if (!commit_orecs.empty()) {
          retry_orig_->OnWriterCommit(commit_orecs);
        } else {
          retry_orig_->WakeAllSleepers();
        }
      }
      if (waiters_->HasWaiters()) {
        WakeWaiters(commit_orecs);
      }
    }
    commit_orecs.clear();
  }
}

void TmSystem::ClearAccessSets(TxDesc& d) {
  d.reads.clear();
  d.locks.clear();
  d.undo.Clear();
  d.redo.Clear();
}

void TmSystem::ResetDescAfterTx(TxDesc& d) {
  ClearAccessSets(d);
  d.waitset.Clear();
  // Carry retry logging into the thread's next transaction only when this
  // one waited through Retry: a thread whose waits repeat (a consumer, a
  // producer on a full buffer) saves the logging restart, one C++ throw, on
  // every later wait, and a transaction that did not wait clears it again.
  d.retry_logging = d.retry_waited;
  d.retry_waited = false;
  d.orelse_alts = 0;
  d.deadlines.clear();
  d.wait_keys_this_attempt.clear();
  d.htm_software_next = false;
  d.htm_attempts = 0;
  d.htm_abort_code = 0;
  d.woke_from_sleep = false;
  d.skip_backoff = false;
  d.deferred_signals.clear();
  d.backoff.Reset();
  d.obs.tx_begin_ns = 0;
  d.obs.first_abort_ns = 0;
}

void TmSystem::AbortCurrent(TxDesc& d, Counter reason, AbortCause cause,
                            const Orec* conflict) {
  Rollback(d);
  d.mem.OnAbort();
  // Signals deferred by this attempt die with it; a re-execution re-defers.
  d.deferred_signals.clear();
  d.stats.Bump(reason);
  d.obs.causes.Bump(cause);
  if (conflict != nullptr) {
    d.obs.hot_orecs.Bump(orecs_.IndexOf(conflict));
  }
  if (cfg_.latency_metrics && !d.internal && d.obs.first_abort_ns == 0) {
    d.obs.first_abort_ns = ObsNowNs();
  }
  if (!d.internal) {
    TCS_TRACE_EVENT(d, TraceEvent::kTxAbort, static_cast<std::uint64_t>(cause));
  }
  d.nesting = 0;
  throw TxRestart{};
}

void TmSystem::AbortSelf(Counter reason) { AbortCurrent(Desc(), reason); }

void TmSystem::RollbackForDeschedule(TxDesc& d) {
  Rollback(d);
  // Allocations stay alive until after wakeup: the published waitset (or the
  // WaitPred argument record) may point into captured memory (§2.2.4).
  d.mem.DeferForDeschedule();
  d.deferred_signals.clear();
  d.nesting = 0;
}

TmWord TmSystem::Read(const TmWord* addr) {
  TxDesc& d = Desc();
  TCS_DCHECK(d.nesting > 0);
  TmWord v = ReadWord(d, addr);
  if (d.retry_logging && !d.internal) {
    d.waitset.Append(addr, PreTxValue(d, addr, v));
  }
  return v;
}

void TmSystem::Write(TmWord* addr, TmWord val) {
  TxDesc& d = Desc();
  TCS_DCHECK(d.nesting > 0);
  WriteWord(d, addr, val);
}

void* TmSystem::TxAlloc(std::size_t bytes) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "TxAlloc outside transaction");
  return d.mem.Alloc(bytes);
}

void TmSystem::TxFree(void* p) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "TxFree outside transaction");
  d.mem.Free(p);
}

TmWord TmSystem::PreTxValue(TxDesc& d, const TmWord* addr, TmWord observed) {
  (void)d;
  (void)addr;
  return observed;
}

void TmSystem::PrepareAwait(TxDesc& d, const TmWord* const* addrs, std::size_t n) {
  // Default for buffered-write backends: drop the speculative writes, then re-read
  // the addresses through the instrumented path so each value is consistent with
  // the transaction's start time (aborting otherwise, per Algorithm 6).
  d.redo.Clear();
  d.waitset.Clear();
  for (std::size_t i = 0; i < n; ++i) {
    TmWord v = ReadWord(d, addrs[i]);
    d.waitset.Append(addrs[i], v);
  }
}

bool TmSystem::NeedsSoftwareForCondSync(TxDesc& d) {
  (void)d;
  return false;
}

bool TmSystem::EnterWakeClaimRegion(TxDesc& d) {
  // STM backends: every committed write respects orecs, so holding the slot's
  // covering orec is already enough — no extra handshake needed.
  (void)d;
  return true;
}

void TmSystem::ExitWakeClaimRegion(TxDesc& d) { (void)d; }

void TmSystem::SwitchToSoftwareMode(TxDesc& d, bool enable_retry_logging) {
  (void)enable_retry_logging;
  TCS_CHECK_MSG(false, "SwitchToSoftwareMode on a software backend");
  AbortCurrent(d, Counter::kAborts);  // unreachable
}

void TmSystem::SnapshotCommitOrecsIfNeeded(TxDesc& d) {
  if (d.internal) {
    return;
  }
  d.commit_orecs.clear();
  // Both peeks run BEFORE the commit-side [retry-dekker] seq_cst fence in
  // Commit(), so either may miss a registration racing this commit
  // (store-buffering); they are heuristics that only avoid the copy, never
  // correctness gates. Commit() re-peeks after the fence: a missed RetryOrig
  // waiter is woken conservatively (WakeAllSleepers), and a missed WakeIndex
  // waiter is covered by WakeWaiters' empty-snapshot global scan.
  if (!retry_orig_->HasWaiters() &&
      !(cfg_.targeted_wakeup && waiters_->HasWaiters())) {
    return;
  }
  for (const LockedOrec& l : d.locks) {
    d.commit_orecs.push_back(l.orec);
  }
}

void TmSystem::SnapshotCommitOrecsFromUndoIfNeeded(TxDesc& d) {
  // Serial-irrevocable commits hold no orecs; their write set is the undo log.
  // Retry-Orig never runs on the HTM backend, so only the wake index needs the
  // snapshot here.
  if (d.internal) {
    return;
  }
  d.commit_orecs.clear();
  if (!(cfg_.targeted_wakeup && waiters_->HasWaiters())) {
    return;
  }
  for (const UndoLog::Entry& e : d.undo.entries()) {
    d.commit_orecs.push_back(&orecs_.For(e.addr));
  }
}

bool TmSystem::TryExtendTimestamp(TxDesc& d, ExtendSite site,
                                  const ReleasedOrecWord* released,
                                  std::size_t released_n) {
  switch (site) {
    case ExtendSite::kValidation:
      d.stats.Bump(Counter::kExtendOnValidation);
      break;
    case ExtendSite::kOrecRelease:
      d.stats.Bump(Counter::kExtendOnOrecRelease);
      break;
    case ExtendSite::kCommitValidation:
      d.stats.Bump(Counter::kExtendOnCommitValidation);
      break;
    case ExtendSite::kEncounterAcquisition:
      d.stats.Bump(Counter::kExtendOnEncounterAcquisition);
      break;
  }
  // Sample the clock *before* revalidating: a commit that lands between the
  // sample and the checks makes some read orec too new and the extension
  // fails, never the reverse.
  std::uint64_t now = clock_.Load();
  TCS_PROTO(proto_->OnClockObserved(d.tid, now));
  for (Orec* o : d.reads) {
    // mo: acquire — pairs with [orec-publish]; an unlocked version ≤ now
    // proves the covered data still matches what this transaction read.
    std::uint64_t w = o->word.load(std::memory_order_acquire);
    if (Orec::IsLocked(w)) {
      // An orec we read and later locked ourselves still covers consistent data.
      if (Orec::Owner(w) == d.tid) {
        continue;
      }
      return false;
    }
    // Unlocked at or below start: unchanged since this transaction read it,
    // because committed versions always exceed any concurrently sampled start.
    if (Orec::Version(w) <= d.start) {
      continue;
    }
    bool own_release = false;
    for (std::size_t j = 0; j < released_n; ++j) {
      if (released[j].orec == o && released[j].word == w) {
        own_release = true;
        break;
      }
    }
    if (!own_release) {
      return false;
    }
  }
  TCS_PROTO(proto_->OnStartAdvanced(d.tid, d.start, now));
  d.start = now;
  quiesce_.SetActive(d.tid, now);
  d.stats.Bump(Counter::kTimestampExtensions);
  TCS_TRACE_EVENT(d, TraceEvent::kTimestampExtension, now);
  return true;
}

void TmSystem::OnOrElseFallback() {
  TxDesc& d = Desc();
  d.stats.Bump(Counter::kOrElseFallbacks);
  TCS_TRACE_EVENT(d, TraceEvent::kOrElseFallback, 0);
}

void TmSystem::Retry() {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "Retry outside transaction");
  if (NeedsSoftwareForCondSync(d)) {
    SwitchToSoftwareMode(d, /*enable_retry_logging=*/true);
  }
  if (!d.retry_logging) {
    // First encounter (Algorithm 5), and the thread's previous transaction
    // did not wait: restart so the re-execution logs an ⟨addr, value⟩ pair
    // on every read, making the waitset expressible.
    d.retry_logging = true;
    d.skip_backoff = true;
    AbortCurrent(d, Counter::kRetryRestarts, AbortCause::kRetrySetup);
  }
  d.retry_waited = true;
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&d.waitset);
  args.n = 1;
  Deschedule(&FindChangesPred, args);
}

namespace {

// splitmix64-style mixer: folds a wait key with its occurrence ordinal so two
// logical waits never share a deadline slot by accident.
std::uint64_t MixWaitKey(std::uint64_t key, std::uint64_t occurrence) {
  std::uint64_t z = key + 0x9E3779B97F4A7C15ULL * (occurrence + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

bool TmSystem::DeadlineExpired(TxDesc& d, std::chrono::nanoseconds timeout,
                               std::uint64_t wait_key) {
  std::uint64_t occurrence = 0;
  for (std::uint64_t k : d.wait_keys_this_attempt) {
    if (k == wait_key) {
      ++occurrence;
    }
  }
  d.wait_keys_this_attempt.push_back(wait_key);
  const std::uint64_t key = MixWaitKey(wait_key, occurrence);
  auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < d.deadlines.size(); ++i) {
    if (d.deadlines[i].key != key) {
      continue;
    }
    // This call armed its deadline on an earlier restart of the transaction
    // (logging restart, conflict abort, false wakeup): the bound covers the
    // call's total elapsed wait, not one sleep. The slot is kept on expiry —
    // if the attempt delivering kTimedOut aborts on a conflict, the replay
    // finds the expired slot and re-delivers instead of re-arming a fresh
    // budget (a loop that waits again after a timeout is a new occurrence,
    // so it still gets its own slot). Commit clears everything.
    if (now >= d.deadlines[i].at) {
      d.stats.Bump(Counter::kWaitTimeouts);
      return true;
    }
    d.active_deadline = d.deadlines[i].at;
    return false;
  }
  // First time this call is reached: arm its own deadline.
  auto max_tp = std::chrono::steady_clock::time_point::max();
  auto at = (timeout > max_tp - now) ? max_tp : now + timeout;
  d.deadlines.push_back({key, at});
  d.active_deadline = at;
  return false;
}

WaitResult TmSystem::RetryFor(std::chrono::nanoseconds timeout,
                              std::uint64_t wait_key) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "RetryFor outside transaction");
  if (timeout >= kNoTimeout) {
    Retry();
  }
  if (NeedsSoftwareForCondSync(d)) {
    SwitchToSoftwareMode(d, /*enable_retry_logging=*/true);
  }
  if (!d.retry_logging) {
    // First encounter: restart to build the waitset; the deadline arms on the
    // logging pass, once the addresses identifying this wait are known.
    d.retry_logging = true;
    d.skip_backoff = true;
    AbortCurrent(d, Counter::kRetryRestarts, AbortCause::kRetrySetup);
  }
  // Fold the waitset's addresses into the call-site key: a false-wakeup replay
  // of the same wait re-reads the same locations (deterministic body, so the
  // armed deadline is found again), while a *different* wait funneled through
  // the same call site — two queue pops through one adapter line — reads a
  // different set and gets its own budget.
  for (const WaitSet::Entry& e : d.waitset.entries()) {
    wait_key = MixWaitKey(wait_key, reinterpret_cast<std::uintptr_t>(e.addr));
  }
  if (DeadlineExpired(d, timeout, wait_key)) {
    return WaitResult::kTimedOut;
  }
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&d.waitset);
  args.n = 1;
  DescheduleImpl(&FindChangesPred, args, /*timed=*/true);
}

WaitResult TmSystem::AwaitFor(const TmWord* const* addrs, std::size_t n,
                              std::chrono::nanoseconds timeout) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "AwaitFor outside transaction");
  if (timeout >= kNoTimeout) {
    Await(addrs, n);
  }
  // The awaited address set identifies the call: the same AwaitFor re-reached
  // across restarts finds its armed deadline, while a different wait (other
  // addresses) gets its own.
  std::uint64_t wait_key = 0x5DEECE66DULL;
  for (std::size_t i = 0; i < n; ++i) {
    wait_key = MixWaitKey(wait_key, reinterpret_cast<std::uintptr_t>(addrs[i]));
  }
  if (DeadlineExpired(d, timeout, wait_key)) {
    return WaitResult::kTimedOut;
  }
  if (NeedsSoftwareForCondSync(d)) {
    SwitchToSoftwareMode(d, /*enable_retry_logging=*/false);
  }
  PrepareAwait(d, addrs, n);
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&d.waitset);
  args.n = 1;
  DescheduleImpl(&FindChangesPred, args, /*timed=*/true);
}

WaitResult TmSystem::WaitPredFor(WaitPredFn fn, const WaitArgs& args,
                                 std::chrono::nanoseconds timeout,
                                 std::uint64_t wait_key) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "WaitPredFor outside transaction");
  if (timeout >= kNoTimeout) {
    WaitPred(fn, args);
  }
  // The predicate and its marshaled arguments identify the wait (two
  // sequential waits through one adapter call site differ in args).
  wait_key = MixWaitKey(wait_key, reinterpret_cast<std::uintptr_t>(fn));
  for (std::uint32_t i = 0; i < args.n; ++i) {
    wait_key = MixWaitKey(wait_key, args.v[i]);
  }
  if (DeadlineExpired(d, timeout, wait_key)) {
    return WaitResult::kTimedOut;
  }
  if (NeedsSoftwareForCondSync(d)) {
    // No pred-table fast path here: the 8-bit abort code cannot carry a
    // deadline, so timed predicate waits always take the software-mode route.
    SwitchToSoftwareMode(d, /*enable_retry_logging=*/false);
  }
  DescheduleImpl(fn, args, /*timed=*/true);
}

TxSavepoint TmSystem::TakeSavepoint() {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "savepoint outside transaction");
  return {d.undo.Size(), d.redo.Mark(), d.locks.size(), d.mem.AllocCount(),
          d.mem.FreeCount()};
}

void TmSystem::RollbackToSavepoint(const TxSavepoint& sp) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "savepoint rollback outside transaction");
  d.stats.Bump(Counter::kPartialRollbacks);
  PartialRollback(d, sp);
  d.mem.RollbackTo(sp.alloc_count, sp.free_count);
}

void TmSystem::PartialRollback(TxDesc& d, const TxSavepoint& sp) {
  d.undo.UndoTo(sp.undo_size);
  d.redo.RollbackTo(sp.redo);
}

void TmSystem::EnterOrElse() {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "OrElse outside transaction");
  ++d.orelse_alts;
}

void TmSystem::ExitOrElse() {
  TxDesc& d = Desc();
  if (d.orelse_alts > 0) {
    --d.orelse_alts;
  }
}

void TmSystem::Await(const TmWord* const* addrs, std::size_t n) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "Await outside transaction");
  if (NeedsSoftwareForCondSync(d)) {
    SwitchToSoftwareMode(d, /*enable_retry_logging=*/false);
  }
  PrepareAwait(d, addrs, n);
  WaitArgs args;
  args.v[0] = reinterpret_cast<TmWord>(&d.waitset);
  args.n = 1;
  Deschedule(&FindChangesPred, args);
}

void TmSystem::WaitPred(WaitPredFn fn, const WaitArgs& args) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "WaitPred outside transaction");
  if (NeedsSoftwareForCondSync(d)) {
    MaybeHwPredTableDeschedule(d, fn, args);  // fast path; descheds if it applies
    SwitchToSoftwareMode(d, /*enable_retry_logging=*/false);
  }
  Deschedule(fn, args);
}

void TmSystem::MaybeHwPredTableDeschedule(TxDesc& d, WaitPredFn fn,
                                          const WaitArgs& args) {
  (void)d;
  (void)fn;
  (void)args;
}

void TmSystem::RetryOrig() {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "RetryOrig outside transaction");
  TCS_CHECK_MSG(backend() != Backend::kSimHtm,
                "Retry-Orig requires STM metadata and cannot run on HTM (§2.1)");
  std::uint64_t start = d.start;
  std::vector<const Orec*> read_orecs(d.reads.begin(), d.reads.end());
  std::vector<RetryOrigRegistry::ReleasedOrec> released;
  released.reserve(d.locks.size());
  for (const LockedOrec& l : d.locks) {
    released.push_back({l.orec, Orec::MakeVersion(l.prev_version + 1)});
  }
  Rollback(d);
  d.mem.OnAbort();
  d.deferred_signals.clear();
  d.nesting = 0;
  d.obs.causes.Bump(AbortCause::kRetrySetup);
  retry_orig_->WaitForOverlap(d, std::move(read_orecs), start, released);
  d.skip_backoff = true;
  throw TxRestart{};
}

void TmSystem::RestartNow() {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "RestartNow outside transaction");
  d.skip_backoff = true;
  // "Aborts and immediately restarts". The yield must come *after* the rollback:
  // parking this thread while it still holds eagerly-acquired orecs would starve
  // the very thread that could establish the precondition.
  Rollback(d);
  d.mem.OnAbort();
  d.deferred_signals.clear();
  d.stats.Bump(Counter::kExplicitRestarts);
  d.obs.causes.Bump(AbortCause::kExplicit);
  d.nesting = 0;
  CpuYield();
  throw TxRestart{};
}

void TmSystem::CommitInFlight() {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "CommitInFlight outside transaction");
  // Flatten any nesting: the entire in-flight transaction commits here. This is
  // precisely how condvar waits "break atomicity" (§1.2).
  d.nesting = 1;
  Commit();
}

void TmSystem::DeferSignal(const DeferredCvSignal& sig) {
  TxDesc& d = Desc();
  TCS_CHECK_MSG(d.nesting > 0, "DeferSignal outside transaction");
  d.deferred_signals.push_back(sig);
}

void TmSystem::OnRestart() {
  TxDesc& d = Desc();
  if (d.pending_wait.fn != nullptr) {
    RunPendingWait(d);
  }
  if (!d.skip_backoff) {
    d.backoff.Pause();
  }
  d.skip_backoff = false;
}

TxStats TmSystem::AggregateStats() const {
  SpinLockGuard g(registration_lock_);
  TxStats total;
  for (int tid = 0; tid < next_tid_; ++tid) {
    total.MergeFrom(descs_[static_cast<std::size_t>(tid)]->stats);
  }
  return total;
}

void TmSystem::ResetStats() {
  SpinLockGuard g(registration_lock_);
  for (int tid = 0; tid < next_tid_; ++tid) {
    TxDesc& d = *descs_[static_cast<std::size_t>(tid)];
    d.stats.Reset();
    // Trial reset covers the derived metrics too; TraceRings deliberately
    // survive (cumulative flight recorder, single-writer — see ThreadObs).
    d.obs.ResetMetrics();
  }
}

TmSystem::ObsSnapshot TmSystem::SnapshotObs(std::size_t top_n_orecs) const {
  SpinLockGuard g(registration_lock_);
  ObsSnapshot snap;
  // Hot-orec tallies are merged across threads by orec index before ranking.
  std::vector<std::pair<std::size_t, std::uint64_t>> orec_counts;
  for (int tid = 0; tid < next_tid_; ++tid) {
    const TxDesc* d = descs_[static_cast<std::size_t>(tid)].get();
    snap.stats.MergeFrom(d->stats);
    for (int i = 0; i < kNumAbortCauses; ++i) {
      snap.abort_causes[i] += d->obs.causes.Get(static_cast<AbortCause>(i));
    }
    // mo: relaxed — the EWMA is a monitoring tally (owner-writer, like
    // `stats`); staleness is fine, atomicity avoids a torn read.
    std::uint64_t ewma = std::atomic_ref<const std::uint64_t>(
                             d->wake_abort_ewma_permille)
                             .load(std::memory_order_relaxed);
    snap.wake_abort_ewma_permille =
        std::max(snap.wake_abort_ewma_permille, ewma);
    snap.commit_latency.MergeFrom(d->obs.commit_latency);
    snap.abort_to_commit.MergeFrom(d->obs.abort_to_commit);
    snap.wait_duration.MergeFrom(d->obs.wait_duration);
    snap.wake_latency.MergeFrom(d->obs.wake_latency);
    snap.hot_orec_overflow += d->obs.hot_orecs.Overflow();
    d->obs.hot_orecs.Visit([&](std::size_t idx, std::uint64_t count) {
      for (auto& [i, c] : orec_counts) {
        if (i == idx) {
          c += count;
          return;
        }
      }
      orec_counts.emplace_back(idx, count);
    });
  }
  std::sort(orec_counts.begin(), orec_counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (orec_counts.size() > top_n_orecs) {
    orec_counts.resize(top_n_orecs);
  }
  snap.hot_orecs.reserve(orec_counts.size());
  for (const auto& [idx, count] : orec_counts) {
    snap.hot_orecs.push_back({idx, count});
  }
  snap.condsync_registry_bytes = waiters_->FootprintBytes();
  snap.condsync_wake_index_bytes = wake_index_->FootprintBytes();
  snap.registry_segments = waiters_->AllocatedSegments();
  snap.wake_index_segments = wake_index_->AllocatedSegments();
  snap.registered_waiters = waiters_->RegisteredCount();
  if (wheel_ != nullptr) {
    snap.wheel_enabled = true;
    snap.wheel = wheel_->SnapshotStats();
  }
  return snap;
}

namespace {

void EmitHistogram(JsonWriter& w, const char* name,
                   const LatencyHistogram& h) {
  w.Key(name).BeginObject();
  w.Key("count").U64(h.Count());
  w.Key("mean_ns").Double(h.Mean());
  w.Key("p50_ns").U64(h.Percentile(50));
  w.Key("p99_ns").U64(h.Percentile(99));
  w.Key("p999_ns").U64(h.Percentile(99.9));
  w.EndObject();
}

}  // namespace

void TmSystem::SnapshotMetrics(JsonWriter& w, std::size_t top_n_orecs) const {
  ObsSnapshot snap = SnapshotObs(top_n_orecs);
  w.BeginObject();
  w.Key("backend").String(BackendName(cfg_.backend));
  w.Key("counters").BeginObject();
  for (int i = 0; i < kNumCounters; ++i) {
    auto c = static_cast<Counter>(i);
    w.Key(std::string(CounterName(c))).U64(snap.stats.Get(c));
  }
  w.EndObject();
  w.Key("abort_causes").BeginObject();
  for (int i = 0; i < kNumAbortCauses; ++i) {
    w.Key(AbortCauseName(static_cast<AbortCause>(i)))
        .U64(snap.abort_causes[i]);
  }
  w.EndObject();
  w.Key("hot_orecs").BeginArray();
  for (const ObsSnapshot::HotOrec& h : snap.hot_orecs) {
    w.BeginObject();
    w.Key("orec_index").U64(h.orec_index);
    w.Key("aborts").U64(h.aborts);
    w.EndObject();
  }
  w.EndArray();
  w.Key("hot_orec_overflow").U64(snap.hot_orec_overflow);
  w.Key("wake_abort_ewma_permille").U64(snap.wake_abort_ewma_permille);
  w.Key("latency_ns").BeginObject();
  EmitHistogram(w, "commit", snap.commit_latency);
  EmitHistogram(w, "abort_to_commit", snap.abort_to_commit);
  EmitHistogram(w, "wait_duration", snap.wait_duration);
  EmitHistogram(w, "wake_latency", snap.wake_latency);
  w.EndObject();
  w.Key("condsync").BeginObject();
  w.Key("registry_bytes").U64(snap.condsync_registry_bytes);
  w.Key("wake_index_bytes").U64(snap.condsync_wake_index_bytes);
  w.Key("registry_segments").U64(static_cast<std::uint64_t>(snap.registry_segments));
  w.Key("wake_index_segments")
      .U64(static_cast<std::uint64_t>(snap.wake_index_segments));
  w.Key("registered_waiters")
      .U64(static_cast<std::uint64_t>(snap.registered_waiters));
  // Pre-park spin outcomes (deschedule.cc), beside the sleeps they replace.
  w.Key("spin_wakeups").U64(snap.stats.Get(Counter::kSpinWakeups));
  w.Key("spin_misses").U64(snap.stats.Get(Counter::kSpinMisses));
  // Writer wake passes the counting gate ended at one load per written orec.
  w.Key("wake_gate_skips").U64(snap.stats.Get(Counter::kWakeGateSkips));
  w.EndObject();
  w.Key("timer_wheel").BeginObject();
  w.Key("enabled").Bool(snap.wheel_enabled);
  w.Key("ticks").U64(snap.wheel.ticks);
  w.Key("scheduled").U64(snap.wheel.scheduled);
  w.Key("fired").U64(snap.wheel.fired);
  w.Key("stale").U64(snap.wheel.stale);
  w.Key("cascades").U64(snap.wheel.cascades);
  w.Key("max_lag_ns").U64(snap.wheel.max_lag_ns);
  w.EndObject();
  w.EndObject();
}

bool TmSystem::DumpTrace(const std::string& path) const {
  std::vector<ThreadTrace> threads;
  {
    SpinLockGuard g(registration_lock_);
    threads.reserve(static_cast<std::size_t>(next_tid_));
    for (int tid = 0; tid < next_tid_; ++tid) {
      const TxDesc& d = *descs_[static_cast<std::size_t>(tid)];
      threads.push_back({d.tid, &d.obs.ring});
    }
  }
#if TCS_TRACING
  constexpr bool kCompiled = true;
#else
  constexpr bool kCompiled = false;
#endif
  return WriteChromeTrace(path, threads, kCompiled);
}

}  // namespace tcs
