// Deschedule (Algorithm 4) and wakeWaiters: the paper's abstract HTM-friendly
// condition-synchronization mechanism. Retry, Await, and WaitPred all reduce to
// Deschedule(f, p): roll back, double-check f(p) inside a registration
// transaction, publish ⟨f, p⟩, sleep, and on wakeup restart the whole transaction.
//
// Registration is dual. Every waiter sets its presence bit in the
// WaiterRegistry (the writer's "anyone waiting at all?" fast path). Waiters
// whose predicate is the value-based findChanges additionally index themselves
// in the sharded WakeIndex under the orec of each waitset address, so a
// committing writer wake-checks only the waiters its write set could have
// satisfied; arbitrary-predicate waiters land on the index's global fallback
// list, which every writer still visits. Before it publishes its index
// entries, an indexed waiter also raises the wake index's counting gate for
// each waitset orec (TxDesc::wait_orecs, reused wait to wait), and lowers it
// again after its final Remove; a writer whose written orecs all read zero
// there, with no waiter on the global list, skips the index altogether. See
// wake_index.h for the no-lost-wakeup argument, and the comment on
// WakeWaiters below for why it survives batching the wake checks into shared
// wake transactions.
//
// Where the wait runs. The body's Retry/Await/WaitPred call only rolls the
// attempt back, records the wait in TxDesc::pending_wait and throws
// TxRestart; the spin, registration and park below (RunPendingWait) run from
// Atomically's restart loop (TmSystem::OnRestart), once the body's frames
// and RAII guards are unwound. Every wait takes that one path. The reason is
// the hand-off's critical path: each restart is a C++ throw, which costs
// microseconds (a RestartNow loop on a 4-CPU VM: ~2.6 us per restart on one
// thread, 5-10 us with four), and a spin that ran inside the body put that
// throw between the writer's commit and the waiter's re-execution. Unwinding first moves it
// into the time the thread waits anyway. A spin miss goes straight on to
// registration and park from the same place, with no extra body execution.
// For the same reason a thread whose last transaction waited through Retry
// keeps retry logging on (TxDesc::retry_logging), so its next Retry wait
// costs this one restart and not a logging restart before it.
// Nothing the wait uses lives in the body's frames: findChanges waits point
// at TxDesc::waitset, and WaitPred's WaitArgs are copied by value (no caller
// passes a pointer into the body's own frame; allocations the arguments may
// point into stay alive until after wakeup, §2.2.4).
//
// Spin before parking. When a wait lasts a few microseconds (a capacity-1
// hand-off), registering, indexing, parking, the writer's wake claim and the
// deregistration buy nothing. So an untimed findChanges wait (Retry, Await)
// whose thread has recently seen short waits first polls the word of each
// waitset entry for up to kSpinBudgetNs, after the unwind and before
// anything is published. If one differs from its logged value, the thread
// re-executes at once, and no writer ever sees it waiting. It compares
// values, the findChanges predicate itself, not orec versions: a commit that
// rewrites a waited word with the value it had (an orec bump, nothing to
// see) does not end the spin, a sim-HTM serial writer, which bumps no orec,
// does, and the waiter's own eager rollback restores exactly the logged
// pre-transaction values, so it is no change either. The spin is advisory:
// it can miss a change (a value that changes and changes back between two
// polls), it can take an eager writer's in-place store that later rolls back
// for one (which costs a re-execution, nothing more), and when its budget
// runs out the registration transaction below
// runs unchanged and stays the only place that decides to sleep. The
// no-lost-wakeup argument is therefore untouched.
//
// Memory contract. The spin loads the waitset's words outside any
// transaction, with no quiescence slot, so a pending wait's waitset words
// must stay readable until the wait ends. A writer's wake check already
// relies on the same for a parked waiter (TryCasWakeClaim, the batched wake
// transactions); the words are transactional data the waiter read, and
// allocations the transaction made stay alive until after the wait
// (TxMallocLog::DeferForDeschedule).
//
// Which waits spin is decided per thread by TxDesc::spin_before_park (set by
// a park that ended within kSpinRearmNs or by a spin that saw a change,
// cleared by a spin that ran out), so a thread with no short wait behind it,
// such as a long-parked bystander, never spins. Timed waits (RetryFor,
// AwaitFor, WaitPredFor) never spin: letting them spin under the same rule
// raised the router workload's CPU per op by 6-7% over 3 seeds at equal
// throughput (14-42% in a busy-wait prototype), because its subscribers
// idle in timed waits that a spin rarely satisfies. Arbitrary-predicate
// waits have no address list to watch.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/cpu.h"
#include "src/condsync/waiter_registry.h"
#include "src/condsync/wake_index.h"
#include "src/obs/trace.h"
#include "src/tm/tm_system.h"

namespace tcs {

namespace {

// The pre-park spin's budget, from a 10/20/40 us sweep on the handoff
// workload (4-CPU VM, 3 seeds): ops/s was flat across the three, but 10 us
// left 4x more waits to park than 20 us (0.0021 vs 0.0005 sleeps per op),
// while 40 us saved few more parks (0.0001) and burns twice the CPU on each
// wait it misses.
constexpr std::uint64_t kSpinBudgetNs = 20'000;
// An untimed park that ended in a wakeup within this long re-arms the spin.
// The park's span includes the futex round trip, so a wait the spin would
// have caught can still park for somewhat longer than the budget.
constexpr std::uint64_t kSpinRearmNs = 2 * kSpinBudgetNs;

// Polls the word of every waitset entry until one differs from its logged
// value (true) or the budget has run out (false). Each round yields the CPU,
// so a writer queued on this CPU (oversubscribed threads, or a sim-HTM
// writer waiting out the serial section this thread just left) commits
// during the spin instead of after it.
bool SpinForWaitsetChange(const WaitSet& ws, std::uint64_t start_ns) {
  for (;;) {
    for (const WaitSet::Entry& e : ws.entries()) {
      // mo: acquire — pairs with a committer's release store of the data
      // word; advisory only: a seen change restarts the transaction, whose
      // own reads validate again, and a miss goes on to registration.
      if (LoadWordAcquire(e.addr) != e.val) {
        return true;
      }
    }
    if (ObsNowNs() - start_ns >= kSpinBudgetNs) {
      return false;
    }
    CpuYield();
  }
}

}  // namespace

bool FindChangesPred(TmSystem& sys, const WaitArgs& args) {
  const auto* ws = reinterpret_cast<const WaitSet*>(args.v[0]);
  for (const WaitSet::Entry& e : ws->entries()) {
    if (sys.Read(e.addr) != e.val) {
      return true;
    }
  }
  return false;
}

void TmSystem::Deschedule(WaitPredFn fn, const WaitArgs& args) {
  DescheduleImpl(fn, args, /*timed=*/false);
}

void TmSystem::DescheduleImpl(WaitPredFn fn, const WaitArgs& args, bool timed) {
  TxDesc& d = Desc();
  // findChanges waiters carry their exact address list; prune the duplicates
  // retry logging can accumulate (an OrElse whose branches both read an
  // address publishes the union waitset with one entry per branch) so each
  // address is published — and indexed — once.
  WaitSet* ws = nullptr;
  if (fn == &FindChangesPred) {
    ws = reinterpret_cast<WaitSet*>(args.v[0]);
    std::size_t pruned = ws->Prune();
    if (pruned > 0) {
      d.stats.Bump(Counter::kWaitsetPruned, pruned);
    }
  }
  d.stats.Bump(Counter::kDeschedules);
  TCS_TRACE_EVENT(d, TraceEvent::kDeschedule, 0);
  if (ws != nullptr && !ws->Empty()) {
    // Count only the waitset this deschedule actually publishes: pure-predicate
    // waits (Await/WaitPred through a non-findChanges fn) publish no address
    // list, and d.waitset may hold stale entries from a prior restart — bench
    // precision metrics divide by this counter, so it must not overcount.
    d.stats.Bump(Counter::kWaitsetEntries, ws->Size());
  }
  if (d.woke_from_sleep) {
    // We were woken, re-executed, and are about to sleep again: the wakeup did
    // not establish our precondition (a broadcast-style false wakeup, §2.4.1).
    // Counted once: later deschedules of this transaction that restart
    // without sleeping (spin wakeups, double-checks) follow no new wakeup.
    d.stats.Bump(Counter::kFalseWakeups);
    d.woke_from_sleep = false;
  }

  TxDesc::PendingWait& w = d.pending_wait;
  w.fn = fn;
  w.args = args;
  w.timed = timed;

  // Figure 2.1, time 1: undo all effects. Memory is now indistinguishable from
  // the transaction never having run; only the thread's published precondition
  // remains (allocations the waitset points into are kept alive until wakeup).
  RollbackForDeschedule(d);
  d.skip_backoff = true;
  throw TxRestart{};
}

void TmSystem::RunPendingWait(TxDesc& d) {
  const TxDesc::PendingWait w = d.pending_wait;
  d.pending_wait.fn = nullptr;
  const WaitPredFn fn = w.fn;
  const WaitArgs& args = w.args;
  const bool timed = w.timed;
  const WaitSet* ws =
      fn == &FindChangesPred ? reinterpret_cast<const WaitSet*>(args.v[0])
                             : nullptr;
  // Untimed waits with an address list may spin, and their parks re-arm it.
  const bool spin_kind = !timed && ws != nullptr && !ws->Empty();

  if (spin_kind && d.spin_before_park) {
    const std::uint64_t spin_start_ns = ObsNowNs();
    if (SpinForWaitsetChange(*ws, spin_start_ns)) {
      d.stats.Bump(Counter::kSpinWakeups);
      if (cfg_.latency_metrics) {
        d.obs.wait_duration.Record(ObsNowNs() - spin_start_ns);
      }
      d.mem.ReclaimDeferred();
      return;
    }
    d.stats.Bump(Counter::kSpinMisses);
    d.spin_before_park = false;
  }

  WaiterSlot& slot = waiters_->slot(d.tid);
  slot.Prepare(fn, args, &d.park);
  // Clear any stale wake-post stamp before this sleep's waker can write a new
  // one (the previous claimer's post — and therefore its stamp — was consumed
  // before this thread could re-deschedule).
  slot.StampWakePost(0);
  // Gate counts, index entries and the presence bit must be visible before
  // the registration transaction can commit; committing writers order their
  // peeks against all three through the clock.
  std::vector<const Orec*>& wait_orecs = d.wait_orecs;
  wait_orecs.clear();
  if (cfg_.targeted_wakeup && ws != nullptr && !ws->Empty()) {
    for (const WaitSet::Entry& e : ws->entries()) {
      wait_orecs.push_back(&orecs_.For(e.addr));
    }
    wake_index_->RaiseGate(wait_orecs.data(), wait_orecs.size());
    wake_index_->AddIndexed(d.tid, wait_orecs.data(), wait_orecs.size());
    d.stats.Bump(Counter::kIndexedDeschedules);
  } else {
    // WaitPred waiters have no address list; an *empty* findChanges waitset
    // (a Retry whose logging pass read nothing transactionally) has one that
    // no writer shard union could ever cover. Both register on the global
    // fallback list every writer visits.
    wake_index_->AddGlobal(d.tid);
    d.stats.Bump(Counter::kGlobalDeschedules);
  }
  waiters_->MarkRegistered(d.tid);
  TCS_PROTO(proto_->OnPresenceMark(d.tid));

  // The registration transaction: re-evaluate the precondition and, only if it
  // still fails, publish the slot. Expressing the condition as f(p) means no
  // TM-metadata validation is needed here — if a writer establishes the
  // precondition concurrently, either this transaction aborts and re-runs (and
  // then sees the new state), or it serializes first and the writer's
  // wakeWaiters sees the slot. Either way the wakeup cannot be lost.
  bool sleep = false;
  RunInternalTx([&] {
    if (fn(*this, args)) {
      sleep = false;
      return;
    }
    Write(&slot.active, 1);
    Write(&slot.asleep, 1);
    sleep = true;
  });

  if (sleep) {
    d.stats.Bump(Counter::kSleeps);
    TCS_TRACE_EVENT(d, TraceEvent::kSleep, 0);
    std::uint64_t sleep_start_ns =
        cfg_.latency_metrics || spin_kind ? ObsNowNs() : 0;
    bool acquired = true;
    // The registration transaction ended with SetInactive and nothing below
    // runs a transaction until the park returns: writers' quiescence scans
    // may skip this thread meanwhile ([quiesce-dekker] run-state leg).
    quiesce_.MarkParked(d.tid);
    if (timed) {
      // Deadline set by the DeadlineExpired check of the *For call that led
      // here. With the timer wheel, the sleep registers an epoch-stamped
      // timeout with the shared ticker and parks for either token; a stale
      // fire (a wheel post for an earlier epoch of this spot) wakes us with
      // the timeout token but no expired deadline, so we re-arm and re-park —
      // ArmTimed bumps the epoch, which retires the stale registration.
      if (wheel_ != nullptr) {
        for (;;) {
          std::uint64_t epoch = d.park.ArmTimed();
          wheel_->Schedule(&d.park, epoch, d.active_deadline);
          acquired = d.park.ParkEither();
          if (acquired || std::chrono::steady_clock::now() >= d.active_deadline) {
            break;
          }
        }
      } else {
        // Wheel disabled: one absolute-deadline timer per sleeper, the
        // pre-capacity-tier behavior.
        acquired = d.park.ParkUntil(d.active_deadline);
      }
    } else {
      d.park.ConsumeToken();
    }
    quiesce_.MarkRunning(d.tid);
    if (spin_kind) {
      // Untimed, so the park ended in a wakeup.
      d.spin_before_park = ObsNowNs() - sleep_start_ns <= kSpinRearmNs;
    }
    if (cfg_.latency_metrics) {
      std::uint64_t now = ObsNowNs();
      d.obs.wait_duration.Record(now - sleep_start_ns);
      if (acquired) {
        // The claiming waker stamped the post time just before Post; the
        // [park-handoff] edge ordered that stamp before this load (see
        // WaiterSlot).
        std::uint64_t posted = slot.LoadWakePost();
        if (posted != 0 && now >= posted) {
          d.obs.wake_latency.Record(now - posted);
        }
      }
    }
    // arg 1 marks a timeout expiry rather than a wakeup post.
    TCS_TRACE_EVENT(d, TraceEvent::kWakeup, acquired ? 0 : 1);
    if (acquired) {
      // Figure 2.1, time 4 approach: deregister before restarting so no writer
      // wastes work on this slot ("on wakeup, prevent future notifications").
      RunInternalTx([&] { Write(&slot.active, 0); });
      d.woke_from_sleep = true;
    } else {
      // Timed out. Deregister, racing against a waker that may have already
      // claimed this slot (set asleep=0) and be about to post the wake token.
      // The deregistration transaction serializes against the wake-check
      // transaction: if the waker won, we must drain its post so the stale
      // token cannot satisfy this thread's *next* sleep instantly.
      //
      // Why the drain can never hang, and never leaks a token — the ordering
      // argument, in full, because both the per-sleeper timer path and the
      // timer wheel inherit it unchanged (timeout delivery only changes how
      // `acquired == false` is produced above; the claim/post protocol below
      // is oblivious to it):
      //
      //   1. A waker posts the wake token strictly AFTER its claiming
      //      transaction (or CAS claim) commits the asleep 1→0 transition.
      //   2. Our deregistration transaction reads asleep transactionally, so
      //      it serializes against every claim. Exactly two interleavings
      //      exist:
      //        * Claim-first: we read asleep == 0. The claim is durable, so
      //          by (1) its post is already issued or imminent — ConsumeToken
      //          terminates (it parks at most until that post lands) and
      //          consumes the token, leaving the spot clean for the next
      //          sleep. No leak, no hang.
      //        * Dereg-first: we read asleep == 1 and commit active = 0,
      //          asleep = 0. Every later wake check (transactional or CAS)
      //          reads our committed zeros and skips; no post is ever issued
      //          for this sleep, so there is nothing to drain and
      //          claimed_by_waker correctly stays false.
      //   3. A racing wheel fire for THIS sleep's epoch can additionally set
      //      the timeout token, never the wake token, and ConsumeToken
      //      ignores and clears pending timeout tokens while waiting — so a
      //      late tick cannot satisfy the drain in place of the waker's post,
      //      and the next ArmTimed retires the epoch anyway.
      bool claimed_by_waker = false;
      RunInternalTx([&] {
        claimed_by_waker = (Read(&slot.asleep) == 0);
        Write(&slot.active, 0);
        Write(&slot.asleep, 0);
      });
      if (claimed_by_waker) {
        d.park.ConsumeToken();
      }
    }
  }
  waiters_->UnmarkRegistered(d.tid);
  TCS_PROTO(proto_->OnPresenceUnmark(d.tid));
  // Clears this tid's shard and fallback entries (and its global count)
  // alike, then its gate counts, so every exit — wakeup, timeout, and the
  // no-sleep double-check — leaves the index clean.
  wake_index_->Remove(d.tid);
  wake_index_->LowerGate(wait_orecs.data(), wait_orecs.size());

  d.mem.ReclaimDeferred();
}

// wakeWaiters, batched and with a lock-free claim fast path. Algorithm 4
// re-checks each candidate in its own internal transaction, so every candidate
// costs a full tx setup/commit (one global-clock RMW each) on the committing
// writer's critical path. Here the writer instead (1) collects candidate tids
// — the shard-indexed waiters its write-set shard union covers, then the
// global-fallback waiters, in that order, deduplicated (ForEachCandidateIn
// can emit a tid twice; see below) — (2) tries to claim each uncontended
// findChanges candidate with a single orec CAS and no transaction at all
// (TryCasWakeClaim below), and (3) evaluates predicates and claims slots for
// the leftover candidates in batches of up to the effective batch size inside
// ONE wake transaction each, posting every claimed wake token strictly after
// its claim is durable. With adaptive_wake_batch the effective batch size
// shrinks while the recent wake-transaction abort rate (EWMA in TxDesc) is
// high, degrading toward the paper's per-candidate baseline under contention
// instead of repeatedly aborting large batches.
//
// Why batching preserves the no-lost-wakeup argument (extending the
// conservativeness argument in wake_index.h): a claim is the transactional
// transition asleep 1→0, and the post still happens strictly after the
// claiming transaction commits, so per claimed waiter the protocol is exactly
// Algorithm 4's — the only change is that several claims share one
// serialization point. The batch transaction serializes against every
// waiter's registration transaction: if a waiter registers after the batch
// serialized, its registration double-check runs against the writer's
// committed state and sees the new values; if before, the batch's candidate
// collection (which happens after the writer's commit fence) sees the index
// entry and the batch re-reads `active`/`asleep` transactionally. A batch
// that aborts mid-claim is rolled back by the TM (the tentative asleep=0
// writes are undone/dropped) and re-executed: the claim list is rebuilt from
// scratch on every execution and posts happen only for the claims of the one
// committed execution, so an abort can neither lose a claim (the re-execution
// re-reads active/asleep and re-claims whoever still qualifies) nor duplicate
// one (no post precedes the commit). A waiter claimed by a *different* writer
// between our executions shows asleep==0 and is skipped — exactly the
// idempotence the per-candidate protocol already relied on.
//
// wake_single stops claiming at the first non-vacuous satisfied waiter both
// within a batch (no further candidates of the batch are examined) and across
// batches (no further batch runs). Vacuous empty-waitset claims earlier in
// the same batch are still posted — they were committed — but do not absorb
// the single-wakeup budget.
// The lock-free claim fast path. An uncontended claim is, at bottom, the
// asleep 1→0 transition made durable at a serialization point — nothing about
// it *needs* a full transaction. The fast path performs it directly:
//
//   1. Enter the backend's wake-claim region (sim-HTM: join the serial-token
//      Dekker handshake, since serial-irrevocable writers bypass orecs).
//   2. CAS-lock the orec covering `slot.asleep`. This excludes every
//      transactional toucher of the slot: the registration transaction and
//      the timeout deregistration write `asleep` (so they need this orec),
//      and the wakeup deregistration can only run after a *claim*, which
//      needs it too. Holding it with asleep == 1 therefore pins the slot in
//      its published state — fn/args/sem are frozen (they are rewritten only
//      after asleep returns to 0) and no other waker can claim.
//   3. Snapshot-evaluate the findChanges predicate seqlock-style: per waitset
//      entry, sample the covering orec, read the value, re-sample. Equal
//      unlocked samples prove the value is a committed one (every release
//      kind that could have covered a memory modification changes the
//      version; the exact-version releases never touched memory). Any locked
//      or changed sample → fall back to the wake transaction.
//   4. Claim: store asleep = 0, then release the orec at a fresh global-clock
//      increment. Publishing a *new* version is what makes the claim a real
//      serialization point: a concurrent wake transaction that read
//      asleep == 1 before our claim now fails validation (version > its
//      start) and re-executes, re-reads asleep == 0, and skips — the same
//      idempotence argument the batched path relies on. Releasing at the old
//      version would let that transaction commit a second claim.
//   5. Post, strictly after the release — exactly Algorithm 4's escape-action
//      ordering, with the orec release as the commit point.
//
// The quiesce table brackets the whole attempt: the raw waitset reads in step
// 3 look at memory a concurrent committer may be about to privatize/free, so
// the claimer registers as an active reader at its sampled clock, making the
// committer's quiescence fence wait for it exactly as it would for a reader
// transaction.
TmSystem::CasClaimResult TmSystem::TryCasWakeClaim(TxDesc& d, int waiter_tid) {
  WaiterSlot& slot = waiters_->slot(waiter_tid);
  // Cheap raw peek before touching any shared cache line exclusively: a
  // candidate already claimed (or never re-registered) needs no claim.
  // mo: relaxed — advisory peek only; the post-CAS acquire re-read decides.
  if (std::atomic_ref<const TmWord>(slot.active)
              .load(std::memory_order_relaxed) == 0 ||
      std::atomic_ref<const TmWord>(slot.asleep)
              .load(std::memory_order_relaxed) == 0) {
    return CasClaimResult::kSkipped;
  }
  if (!EnterWakeClaimRegion(d)) {
    return CasClaimResult::kFallback;  // serial-mode writer active (sim-HTM)
  }
  Orec& claim_orec = orecs_.For(&slot.asleep);
  // mo: acquire — pairs with [orec-publish]; the CAS below must key on a
  // version published by a completed release.
  std::uint64_t prev = claim_orec.word.load(std::memory_order_acquire);
  if (Orec::IsLocked(prev) ||
      // mo: acq_rel — the acquire leg pairs with the previous owner's release
      // store [orec-publish]; the release leg publishes the locked word other
      // threads' acquire samples key on.
      !claim_orec.word.compare_exchange_strong(prev, Orec::MakeLocked(d.tid),
                                               std::memory_order_acq_rel)) {
    ExitWakeClaimRegion(d);
    return CasClaimResult::kFallback;  // contended or mid-registration
  }
  TCS_PROTO(proto_->OnOrecAcquire(&claim_orec, d.tid, Orec::Version(prev)));
  // Re-read under the lock; only now are the loads decisive (see step 2).
  // mo: acquire — pairs with the registration transaction's commit release
  // [orec-publish]: asleep == 1 proves the registration committed, which
  // makes the slot's plain-stored fn/args/park visible and frozen.
  bool published =
      std::atomic_ref<const TmWord>(slot.active)
              .load(std::memory_order_acquire) == 1 &&
      std::atomic_ref<const TmWord>(slot.asleep)
              .load(std::memory_order_acquire) == 1;
  if (!published) {
    TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, Orec::Version(prev),
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: nothing under the orec was modified; the
    // unlock still pairs with concurrent acquire samples.
    claim_orec.word.store(Orec::MakeVersion(Orec::Version(prev)),
                          std::memory_order_release);
    ExitWakeClaimRegion(d);
    return CasClaimResult::kSkipped;
  }
  const WaitSet* ws = nullptr;
  if (slot.fn == &FindChangesPred) {
    ws = reinterpret_cast<const WaitSet*>(slot.args.v[0]);
  }
  bool changed = false;
  bool consistent = ws != nullptr && !ws->Empty();
  if (consistent) {
    for (const WaitSet::Entry& e : ws->entries()) {
      Orec& o = orecs_.For(e.addr);
      if (&o == &claim_orec) {
        // Entry aliases the orec we hold: the value is pinned by our own lock.
        if (LoadWordAcquire(e.addr) != e.val) {
          changed = true;
        }
        continue;
      }
      // mo: acquire — sample leg of the sample/read/re-check snapshot; pairs
      // with [orec-publish] so matching unlocked samples bracket a committed
      // value (no release kind that covers a memory change keeps the version).
      std::uint64_t w1 = o.word.load(std::memory_order_acquire);
      if (Orec::IsLocked(w1)) {
        consistent = false;
        break;
      }
      TmWord v = LoadWordAcquire(e.addr);
      // mo: acquire — re-check leg; pairs with [orec-publish], as above.
      std::uint64_t w2 = o.word.load(std::memory_order_acquire);
      if (w1 != w2) {
        consistent = false;
        break;
      }
      if (v != e.val) {
        changed = true;
      }
    }
  }
  if (!consistent) {
    // Arbitrary predicate, empty waitset (vacuous-wake semantics belong to
    // the transactional path), or a concurrent writer mid-flight over an
    // entry: the wake transaction decides instead.
    TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, Orec::Version(prev),
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: no modification under the orec; unlock
    // pairs with concurrent acquire samples.
    claim_orec.word.store(Orec::MakeVersion(Orec::Version(prev)),
                          std::memory_order_release);
    ExitWakeClaimRegion(d);
    return CasClaimResult::kFallback;
  }
  d.stats.Bump(Counter::kWakeChecks);
  if (!changed) {
    // Predicate unchanged at a consistent snapshot: final, exactly like the
    // batch path's skip — any writer that satisfies it later runs its own
    // wake pass against the still-registered slot.
    TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, Orec::Version(prev),
                                    ProtocolChecker::ReleaseKind::kAbortExact));
    // mo: release — [orec-publish]: no modification under the orec; unlock
    // pairs with concurrent acquire samples.
    claim_orec.word.store(Orec::MakeVersion(Orec::Version(prev)),
                          std::memory_order_release);
    ExitWakeClaimRegion(d);
    return CasClaimResult::kSkipped;
  }
  // Claim. The data store is ordered before the version publish below.
  StoreWordRelease(&slot.asleep, 0);
  std::uint64_t end = clock_.Increment();
  TCS_PROTO(proto_->OnClockObserved(d.tid, end));
  TCS_PROTO(proto_->OnOrecRelease(&claim_orec, d.tid, end,
                                  ProtocolChecker::ReleaseKind::kCommit));
  // mo: release — [orec-publish]: orders the asleep store above before the
  // fresh version concurrent validators key on; publishing a *new* version is
  // what invalidates wake transactions that read asleep == 1 before us.
  claim_orec.word.store(Orec::MakeVersion(end), std::memory_order_release);
  ExitWakeClaimRegion(d);
  TCS_PROTO(proto_->OnWakeClaimCas(waiter_tid));
  d.stats.Bump(Counter::kCasWakeClaims);
  TCS_TRACE_EVENT(d, TraceEvent::kCasWakeClaim,
                  static_cast<std::uint64_t>(waiter_tid));
  // The post happens strictly after the orec release — the claim's commit
  // point — preserving Algorithm 4's escape-action ordering.
  TCS_PROTO(proto_->OnWakePost(waiter_tid));
  if (cfg_.latency_metrics) {
    slot.StampWakePost(ObsNowNs());
  }
  slot.park->Post();
  d.stats.Bump(Counter::kWakeups);
  return CasClaimResult::kClaimed;
}

void TmSystem::WakeWaiters(const std::vector<const Orec*>& write_orecs) {
  TxDesc& d = Desc();

  // Phase 0: the counting gate. A targeted pass over a non-empty write set
  // whose orecs no waiter counts (and with nobody on the global list) has no
  // candidate to find, so it ends here, before any scratch, summary, segment
  // or fingerprint is touched (wake_index.h). The empty-snapshot scan and
  // the global-scan baseline below stay ungated.
  if (cfg_.targeted_wakeup && !write_orecs.empty() &&
      !wake_index_->GateOpen(write_orecs.data(), write_orecs.size())) {
    d.stats.Bump(Counter::kWakeGateSkips);
    return;
  }

  // Phase 1: collect candidates. Order is significant (shard-indexed first;
  // see ForEachCandidateIn) and self never qualifies. Collection dedups with
  // a per-writer seen bitmap: ForEachCandidateIn's global pass masks against
  // the *current* shard words, so a waiter that deregistered from a shard and
  // re-registered globally between the two passes is emitted twice — harmless
  // for claiming (the second claim sees asleep == 0) but it would double the
  // candidate's wake-check cost and skew the precision counters.
  std::vector<int>& cands = d.wake_candidates;
  cands.clear();
  // Sized to the registry's populated tid bound, not max_threads: a 64Ki-thread
  // ceiling must not cost every committing writer an 8KB bitmap clear.
  const std::size_t seen_words =
      (static_cast<std::size_t>(waiters_->TidBound()) + 63) / 64;
  d.wake_seen_scratch.assign(seen_words, 0);
  auto collect = [&](int tid) {
    if (tid != d.tid) {
      const std::size_t wi = static_cast<std::size_t>(tid) / 64;
      if (wi >= d.wake_seen_scratch.size()) {
        // A segment published after the bound was sampled can emit tids past
        // it mid-pass; grow (zero-filled) rather than drop the candidate.
        d.wake_seen_scratch.resize(wi + 1, 0);
      }
      std::uint64_t& word = d.wake_seen_scratch[wi];
      const std::uint64_t bit = std::uint64_t{1} << (tid % 64);
      if ((word & bit) == 0) {
        word |= bit;
        cands.push_back(tid);
      }
    }
    return true;
  };
  if (cfg_.targeted_wakeup && !write_orecs.empty()) {
    // Targeted pass: only the shards this write set covers, plus the global
    // fallback list. Work scales with relevant waiters, not registered ones.
    // The shard-set bitmap and the written orecs' fingerprint bits are built
    // once into per-thread scratch (reused commit to commit). The index walks
    // only segments its per-shard summaries name for these shards, and drops
    // shard-aliased waiters whose waitset fingerprint excludes every written
    // orec — no claim, no wake check (see wake_index.h).
    d.wake_shard_scratch.resize(
        static_cast<std::size_t>(wake_index_->shard_words()));
    wake_index_->BuildShardSet(write_orecs.data(), write_orecs.size(),
                               d.wake_shard_scratch.data());
    d.wake_fp_scratch.clear();
    if (write_orecs.size() <= WakeIndex::kMaxFingerprintOrecs) {
      for (const Orec* o : write_orecs) {
        d.wake_fp_scratch.push_back(WakeIndex::FingerprintOf(o));
      }
    }
    const std::size_t filtered = wake_index_->ForEachCandidateIn(
        d.wake_shard_scratch.data(), collect,
        d.wake_fp_scratch.empty() ? nullptr : d.wake_fp_scratch.data(),
        d.wake_fp_scratch.size());
    if (filtered > 0) {
      d.stats.Bump(Counter::kWakeFingerprintSkips, filtered);
    }
  } else {
    // Global scan: targeting disabled, or the write-set snapshot was not taken
    // (no waiter was visible mid-commit; any waiter visible now either
    // registered after this commit serialized — and so re-checked its
    // predicate against our writes — or is covered by this conservative scan).
    waiters_->ForEachRegistered(
        [&](int tid, WaiterSlot&) { return collect(tid); });
  }

  bool stop = false;

  // Phase 2: the lock-free claim fast path. The common case — a few disjoint
  // waiters, nobody racing — claims every candidate here and never runs a
  // wake transaction at all. Undecidable candidates accumulate for phase 3.
  std::vector<int>& work = d.wake_fallback;
  work.clear();
  if (cfg_.cas_claim_fast_path && !cands.empty()) {
    // Register as an active reader for the raw predicate snapshots (see
    // TryCasWakeClaim); our own quiesce entry is free post-commit.
    std::uint64_t snap_start = clock_.Load();
    TCS_PROTO(proto_->OnClockObserved(d.tid, snap_start));
    quiesce_.SetActive(d.tid, snap_start);
    for (int tid : cands) {
      if (stop) {
        break;
      }
      switch (TryCasWakeClaim(d, tid)) {
        case CasClaimResult::kClaimed:
          if (cfg_.wake_single) {
            // Fast-path claims are never vacuous (empty waitsets fall back),
            // so every claim absorbs the single-wakeup budget.
            stop = true;
          }
          break;
        case CasClaimResult::kSkipped:
          break;
        case CasClaimResult::kFallback:
          d.stats.Bump(Counter::kCasClaimFallbacks);
          work.push_back(tid);
          break;
      }
    }
    quiesce_.SetInactive(d.tid);
  } else {
    work = cands;
  }

  // Phase 3: batched wake transactions over the leftover candidates. The
  // effective batch size is capped by wake_batch_size and, when adaptive,
  // shrunk while the recent wake-tx abort-rate EWMA is high — big batches
  // amortize commit cost but repeatedly aborting ones re-run more checks.
  const std::size_t batch_cap =
      cfg_.wake_batch_size > 0 ? static_cast<std::size_t>(cfg_.wake_batch_size)
                               : std::size_t{1};
  std::size_t batch_size = batch_cap;
  if (cfg_.adaptive_wake_batch) {
    const std::uint64_t ewma = d.wake_abort_ewma_permille;
    if (ewma >= 500) {
      batch_size = std::max<std::size_t>(1, batch_cap / 4);
    } else if (ewma >= 250) {
      batch_size = std::max<std::size_t>(1, batch_cap / 2);
    }
  }
  std::uint64_t executions = 0;
  std::uint64_t batches = 0;
  for (std::size_t base = 0; base < work.size() && !stop; base += batch_size) {
    const std::size_t end = std::min(work.size(), base + batch_size);
    std::vector<TxDesc::WakeClaim>& claims = d.wake_claims;
    std::size_t checks_this_batch = 0;
    RunInternalTx([&] {
      // Re-execution of an aborted batch starts clean: tentative claims were
      // rolled back with the transaction, so the list must be rebuilt (else a
      // retried batch would double-post) and active/asleep re-read (else it
      // would claim a waiter another writer took in the meantime).
      ++executions;
      claims.clear();
      checks_this_batch = 0;
      for (std::size_t i = base; i < end; ++i) {
        WaiterSlot& slot = waiters_->slot(work[i]);
        if (Read(&slot.active) == 0 || Read(&slot.asleep) == 0) {
          continue;
        }
        ++checks_this_batch;
        bool satisfied = slot.fn(*this, slot.args);
        bool vacuous = false;
        if (!satisfied && slot.fn == &FindChangesPred &&
            reinterpret_cast<const WaitSet*>(slot.args.v[0])->Empty()) {
          // An address-free findChanges waiter can never observe a change, so
          // without this clause no commit would ever satisfy it; treat any
          // writer commit as a conservative broadcast-style wakeup instead
          // (the re-execution re-checks its real precondition and either
          // proceeds or re-publishes — at worst one false wakeup per commit).
          satisfied = true;
          vacuous = true;
        }
        if (satisfied) {
          Write(&slot.asleep, 0);
          claims.push_back({work[i], vacuous});
          if (cfg_.wake_single && !vacuous) {
            // First non-vacuous satisfied waiter: stop claiming within this
            // batch; the cross-batch stop happens below, after the commit.
            break;
          }
        }
      }
    });
#if TCS_PROTOCOL_CHECKS
    // The claim list now reflects the one committed execution of the batch.
    for (const TxDesc::WakeClaim& c : claims) {
      proto_->OnWakeClaimCommitted(c.tid);
    }
#endif
    ++batches;
    // Counters reflect the committed execution only (an aborted batch's
    // checks died with it), so kWakeChecks stays an exact per-commit metric.
    d.stats.Bump(Counter::kWakeBatches);
    if (checks_this_batch > 0) {
      d.stats.Bump(Counter::kWakeChecks, checks_this_batch);
      d.stats.Bump(Counter::kWakeChecksBatched, checks_this_batch);
    }
    if (!claims.empty()) {
      TCS_TRACE_EVENT(d, TraceEvent::kWakeBatch, claims.size());
    }
    for (const TxDesc::WakeClaim& c : claims) {
      // The wake-token post is an escape action, so it happens strictly after
      // the wake transaction commits (Algorithm 4, line 9).
      TCS_PROTO(proto_->OnWakePost(c.tid));
      WaiterSlot& claimed = waiters_->slot(c.tid);
      if (cfg_.latency_metrics) {
        // Stamp strictly before the post so the waiter's read (after the park
        // returns) observes it via the [park-handoff] edge. Exclusive: this
        // writer won the transactional asleep 1→0 claim for this sleep.
        claimed.StampWakePost(ObsNowNs());
      }
      claimed.park->Post();
      d.stats.Bump(Counter::kWakeups);
      if (c.vacuous) {
        // A vacuous (empty-waitset) wake is no evidence anyone was satisfied;
        // it must not absorb the single-wakeup budget, or a genuinely
        // satisfied waiter later in the scan would starve behind a waiter
        // that just re-parks without ever committing. Counted separately so
        // precision metrics can subtract it from kWakeups.
        d.stats.Bump(Counter::kVacuousWakeups);
      } else if (cfg_.wake_single) {
        stop = true;
      }
    }
  }

  // Feed the adaptive policy: executions counts every entry into the batch
  // lambda, batches only committed ones, so the difference is exactly the
  // aborted-and-re-run attempts. The EWMA (alpha = 1/8, permille) smooths a
  // single contended commit into a gradual batch-size response.
  if (executions > 0) {
    const std::uint64_t aborts = executions - batches;
    if (aborts > 0) {
      d.stats.Bump(Counter::kWakeTxAborts, aborts);
    }
    const std::uint64_t rate = aborts * 1000 / executions;
    // mo: relaxed — monitoring-only tally, owner-writer (this thread is the
    // sole writer of its own EWMA; SnapshotObs reads it racily, like `stats`).
    std::atomic_ref<std::uint64_t>(d.wake_abort_ewma_permille)
        .store((7 * d.wake_abort_ewma_permille + rate) / 8,
               std::memory_order_relaxed);
  }
}

}  // namespace tcs
