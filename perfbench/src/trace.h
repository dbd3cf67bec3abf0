// Span tracing for the --trace 1 run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library. Transact() wraps the body handed to the real
// tcs::Atomically (it does not copy the transaction loop), so the boundaries
// it sees are:
//
//   call          -> first body start      kBegin
//   body start    -> body end              kBody
//   body end      -> Atomically returns    kCommit / kWakeCommit
//   body throws   -> next body start       kRestart (conflict abort + backoff)
//   body end      -> next body start       kRestart (commit-time abort)
//   Retry*() call -> next body start       kWait when the thread descheduled,
//                                          kRetryRestart when it only re-ran
//                                          the body to build its waitset
//
// A commit counts as a kWakeCommit when the committing thread's own
// kWakeChecks or kCasWakeClaims counter moved during it. Every span belongs to
// the op (a sync-layer call: produce, consume, publish, take, write) that is
// open on the thread; the op's self time is its duration minus its children.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <source_location>
#include <type_traits>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/core/transaction.h"

namespace perfbench {

enum SpanKind : int {
  kBegin = 0,
  kBody,
  kCommit,
  kWakeCommit,
  kRestart,
  kRetryRestart,
  kWait,
  kOp,  // the enclosing sync-layer op
  kNumSpanKinds,
};

enum OpKind : int { kProduce = 0, kConsume, kPublish, kTake, kWrite, kNumOpKinds };

inline const char* SpanKindName(int k) {
  static const char* const kNames[kNumSpanKinds] = {
      "begin", "body", "commit", "wake_commit", "restart", "retry_restart", "wait", "op"};
  return kNames[k];
}

inline const char* OpKindName(int k) {
  static const char* const kNames[kNumOpKinds] = {"produce", "consume", "publish",
                                                  "take", "write"};
  return kNames[k];
}

struct Span {
  std::uint64_t op;  // per-thread op sequence number (the spans' shared id)
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t kind;  // SpanKind
  std::int32_t op_kind;
};

class ThreadTrace {
 public:
  // Spans kept verbatim for the dump file; the histograms see every span.
  static constexpr std::size_t kMaxKeptSpans = 20000;

  explicit ThreadTrace(bool keep_spans = true) {
    if (keep_spans) {
      kept_.reserve(kMaxKeptSpans);
    }
  }

  // --- sync-layer op boundaries ---
  void OpBegin(OpKind k) {
    op_kind_ = k;
    ++op_seq_;
    op_start_ = NowNs();
    op_children_ns_ = 0;
    op_wait_ns_ = 0;
  }
  void OpEnd() {
    const std::uint64_t now = NowNs();
    const std::uint64_t dur = now - op_start_;
    Keep(kOp, op_start_, now);
    span_hist_[kOp].Record(dur);
    self_ns_[kOp] += dur > op_children_ns_ ? dur - op_children_ns_ : 0;
    total_ns_[kOp] += dur;
    // The op's running (not parked) time: the sync layer's cost per call.
    op_active_hist_[op_kind_].Record(dur > op_wait_ns_ ? dur - op_wait_ns_ : 0);
  }

  // --- Atomically boundaries (driven by Transact below) ---
  void CallStart() {
    mark_ns_ = NowNs();
    state_ = kCalling;
  }
  void BodyStart(tcs::TmSystem& sys) {
    const std::uint64_t now = NowNs();
    switch (state_) {
      case kCalling:
        Close(kBegin, mark_ns_, now);
        break;
      case kThrew:
      case kBodyEnded:  // Commit() threw: a commit-time validation abort
        Close(kRestart, mark_ns_, now);
        break;
      case kRetryThrew: {
        const bool descheduled =
            sys.Desc().stats.Get(tcs::Counter::kDeschedules) != retry_desched_mark_;
        Close(descheduled ? kWait : kRetryRestart, mark_ns_, now);
        break;
      }
      default:
        break;
    }
    ++attempts_;
    retry_pending_ = false;
    body_start_ = now;
    state_ = kInBody;
  }
  void BodyEnd(tcs::TmSystem& sys) {
    const std::uint64_t now = NowNs();
    Close(kBody, body_start_, now);
    wake_mark_ = WakeWork(sys);
    mark_ns_ = now;
    state_ = kBodyEnded;
  }
  void BodyThrew() {
    if (retry_pending_) {
      state_ = kRetryThrew;  // mark_ns_ already holds the Retry call time
    } else {
      mark_ns_ = NowNs();
      state_ = kThrew;
    }
  }
  void RetryCall(tcs::TmSystem& sys) {
    mark_ns_ = NowNs();
    retry_desched_mark_ = sys.Desc().stats.Get(tcs::Counter::kDeschedules);
    retry_pending_ = true;
  }
  void RetryReturned() { retry_pending_ = false; }
  void CallEnd(tcs::TmSystem& sys) {
    const std::uint64_t now = NowNs();
    Close(WakeWork(sys) != wake_mark_ ? kWakeCommit : kCommit, mark_ns_, now);
    ++commits_;
    state_ = kIdle;
  }

  // Adds another thread's (or segment's) counts and histograms; kept spans
  // are not merged.
  void MergeFrom(const ThreadTrace& o) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      span_hist_[k].MergeFrom(o.span_hist_[k]);
      total_ns_[k] += o.total_ns_[k];
      self_ns_[k] += o.self_ns_[k];
    }
    for (int k = 0; k < kNumOpKinds; ++k) {
      op_active_hist_[k].MergeFrom(o.op_active_hist_[k]);
    }
    attempts_ += o.attempts_;
    commits_ += o.commits_;
  }

  // --- results (read after the thread is joined) ---
  const Hist& span_hist(int k) const { return span_hist_[k]; }
  const Hist& op_active_hist(int k) const { return op_active_hist_[k]; }
  std::uint64_t total_ns(int k) const { return total_ns_[k]; }
  std::uint64_t self_ns(int k) const { return self_ns_[k]; }
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t commits() const { return commits_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  enum State { kIdle, kCalling, kInBody, kBodyEnded, kThrew, kRetryThrew };

  static std::uint64_t WakeWork(tcs::TmSystem& sys) {
    const tcs::TxStats& st = sys.Desc().stats;
    return st.Get(tcs::Counter::kWakeChecks) + st.Get(tcs::Counter::kCasWakeClaims);
  }

  void Close(SpanKind k, std::uint64_t start, std::uint64_t end) {
    const std::uint64_t dur = end - start;
    span_hist_[k].Record(dur);
    total_ns_[k] += dur;
    self_ns_[k] += dur;
    op_children_ns_ += dur;
    if (k == kWait) {
      op_wait_ns_ += dur;
    }
    Keep(k, start, end);
  }
  void Keep(SpanKind k, std::uint64_t start, std::uint64_t end) {
    if (kept_.size() < kept_.capacity()) {
      kept_.push_back(Span{op_seq_, start, end, k, op_kind_});
    }
  }

  State state_ = kIdle;
  bool retry_pending_ = false;
  std::uint64_t mark_ns_ = 0;
  std::uint64_t body_start_ = 0;
  std::uint64_t wake_mark_ = 0;
  std::uint64_t retry_desched_mark_ = 0;

  int op_kind_ = kWrite;
  std::uint64_t op_seq_ = 0;
  std::uint64_t op_start_ = 0;
  std::uint64_t op_children_ns_ = 0;
  std::uint64_t op_wait_ns_ = 0;

  std::uint64_t attempts_ = 0;
  std::uint64_t commits_ = 0;
  std::array<Hist, kNumSpanKinds> span_hist_{};
  std::array<Hist, kNumOpKinds> op_active_hist_{};
  std::array<std::uint64_t, kNumSpanKinds> total_ns_{};
  std::array<std::uint64_t, kNumSpanKinds> self_ns_{};
  std::vector<Span> kept_;
};

// tcs::Atomically with span hooks around the body; plain Atomically when
// `tr` is null (the untraced run).
template <typename Body>
auto Transact(tcs::TmSystem& sys, ThreadTrace* tr, Body&& body) {
  if (tr == nullptr) {
    return tcs::Atomically(sys, body);
  }
  using R = std::invoke_result_t<Body&, tcs::Tx&>;
  auto wrapped = [&](tcs::Tx& tx) -> R {
    tr->BodyStart(sys);
    try {
      if constexpr (std::is_void_v<R>) {
        body(tx);
        tr->BodyEnd(sys);
      } else {
        R r = body(tx);
        tr->BodyEnd(sys);
        return r;
      }
    } catch (...) {
      tr->BodyThrew();
      throw;
    }
  };
  tr->CallStart();
  if constexpr (std::is_void_v<R>) {
    tcs::Atomically(sys, wrapped);
    tr->CallEnd(sys);
  } else {
    R r = tcs::Atomically(sys, wrapped);
    tr->CallEnd(sys);
    return r;
  }
}

// tx.Retry() / tx.RetryFor() with the wait-span mark.
[[noreturn]] inline void Retry(tcs::Tx& tx, ThreadTrace* tr) {
  if (tr != nullptr) {
    tr->RetryCall(tx.sys());
  }
  tx.Retry();
}

inline tcs::WaitResult RetryFor(
    tcs::Tx& tx, ThreadTrace* tr, std::chrono::nanoseconds timeout,
    std::source_location loc = std::source_location::current()) {
  if (tr != nullptr) {
    tr->RetryCall(tx.sys());
  }
  const tcs::WaitResult r = tx.RetryFor(timeout, loc);
  if (tr != nullptr) {
    tr->RetryReturned();
  }
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
