// perfbench: the repository benchmark. Runs one workload against the library's
// default configuration and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. LAYERS.md (next to
// this directory) maps every metric to its layer and workload.
//
//   perfbench_main --workload handoff|bystander|router --seed N --seconds S
//                  --trace 0|1 [--parked N] [--trace-out FILE]
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

int RunnableThreads(const std::string& workload) {
  if (workload == "handoff") {
    return 4;  // 2 producers + 2 consumers
  }
  if (workload == "bystander") {
    return 2;  // 2 writers; the parked population is blocked in futex wait
  }
  if (workload == "router") {
    return 4;  // generator + 3 subscribers
  }
  return -1;
}

namespace {

// A run is kSegments independent segments, each with its own set-up (a fresh
// Runtime, fresh threads, and for bystander a fresh parked population),
// warm-up and measured window. Thread interleavings settle into different
// steady states from one start to the next (handoff moves between ~60k and
// ~100k items/s per start on a 4-vCPU VM), so pooling many starts is what
// makes one run repeat the next. Set-up time is the median over segments.
constexpr int kSegments = 20;
constexpr double kWarmupSeconds = 0.2;

struct Args {
  RunOptions opt;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + key);
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      a.opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && a.opt.seconds > 0.0 && a.opt.seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.opt.trace = val == "1";
    } else if (key == "--parked") {
      a.opt.parked = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (*end != '\0' || a.opt.parked < 0 || a.opt.parked > 16384) {
        Die("--parked takes a count in [0, 16384]");
      }
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (!have_workload || RunnableThreads(a.opt.workload) < 0) {
    Die("--workload must be handoff, bystander or router");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Die("usage: --workload W --seed N --seconds S --trace 0|1");
  }
  return a;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

void MergeTally(const Workload& w, int phase, Tally& into) {
  for (const auto& wk : w.workers()) {
    into.ops += wk->tally[phase].ops;
    into.latency.MergeFrom(wk->tally[phase].latency);
    into.lateness.MergeFrom(wk->tally[phase].lateness);
  }
}

// Everything one phase (untraced or traced window) gathered over all segments.
struct PhaseTotals {
  WindowTotals counters;
  Tally tally;
};

Metrics EndToEnd(const PhaseTotals& win, const std::vector<double>& setup_s) {
  const double ops = static_cast<double>(win.tally.ops);
  Metrics m;
  m["setup_s"] = {Median(setup_s), "s"};
  m["ops_per_s"] = {ops / win.counters.seconds, "1/s"};
  m["cpu_us_per_op"] = {Ratio(win.counters.cpu_s * 1e6, ops), "us"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  std::fprintf(stderr, "latency: p50 %.3f us, p75 %.3f us, p90 %.3f us, p99 %.3f us (%llu samples)\n",
               win.tally.latency.Quantile(0.50) / 1000.0, win.tally.latency.Quantile(0.75) / 1000.0,
               win.tally.latency.Quantile(0.90) / 1000.0, win.tally.latency.Quantile(0.99) / 1000.0,
               static_cast<unsigned long long>(win.tally.latency.count()));
  if (win.tally.lateness.count() != 0) {
    std::fprintf(stderr, "generator lateness: p50 %.1f us, p99 %.1f us, max %.1f us\n",
                 win.tally.lateness.Quantile(0.5) / 1000.0,
                 win.tally.lateness.Quantile(0.99) / 1000.0,
                 static_cast<double>(win.tally.lateness.max()) / 1000.0);
  }
  return m;
}

Metrics PerLayer(const PhaseTotals& untraced, const PhaseTotals& traced, const ThreadTrace& tr) {
  const WindowTotals& c = traced.counters;
  const double ops = static_cast<double>(traced.tally.ops);
  const double commits = static_cast<double>(tr.commits());
  const double wakeups = c.Count(tcs::Counter::kWakeups);
  // Tracing overhead: CPU per op of the traced windows against the untraced
  // windows just before them, in the same segments.
  const double cpu_untraced =
      Ratio(untraced.counters.cpu_s, static_cast<double>(untraced.tally.ops));
  const double cpu_traced = Ratio(c.cpu_s, ops);
  auto p50_us = [&](const Hist& h) { return h.Quantile(0.50) / 1000.0; };

  Metrics m;
  m["tm.commit_ns_p50"] = {tr.span_hist(kCommit).Quantile(0.50), "ns"};
  m["tm.commit_ns_p99"] = {tr.span_hist(kCommit).Quantile(0.99), "ns"};
  m["tm.begin_ns_p50"] = {tr.span_hist(kBegin).Quantile(0.50), "ns"};
  m["tm.body_ns_p50"] = {tr.span_hist(kBody).Quantile(0.50), "ns"};
  m["tm.aborts_per_commit"] = {Ratio(c.Count(tcs::Counter::kAborts), commits), "count/commit"};
  m["core.attempts_per_op"] = {Ratio(static_cast<double>(tr.attempts()), ops), "count/op"};
  m["core.backoff_us_per_op"] = {
      Ratio(static_cast<double>(tr.total_ns(kRestart)) / 1000.0, ops), "us/op"};
  m["condsync.wake_commit_ns_p50"] = {tr.span_hist(kWakeCommit).Quantile(0.50), "ns"};
  m["condsync.wake_checks_per_commit"] = {Ratio(c.Count(tcs::Counter::kWakeChecks), commits),
                                          "count/commit"};
  m["condsync.wake_batches_per_commit"] = {Ratio(c.Count(tcs::Counter::kWakeBatches), commits),
                                           "count/commit"};
  m["condsync.wait_us_p50"] = {p50_us(tr.span_hist(kWait)), "us"};
  m["condsync.wait_us_p99"] = {tr.span_hist(kWait).Quantile(0.99) / 1000.0, "us"};
  m["condsync.sleeps_per_op"] = {Ratio(c.Count(tcs::Counter::kSleeps), ops), "count/op"};
  m["condsync.retry_restarts_per_op"] = {Ratio(c.Count(tcs::Counter::kRetryRestarts), ops),
                                         "count/op"};
  m["condsync.false_wakeups_per_wakeup"] = {Ratio(c.Count(tcs::Counter::kFalseWakeups), wakeups),
                                            "count/wakeup"};
  m["condsync.cas_claims_per_wakeup"] = {Ratio(c.Count(tcs::Counter::kCasWakeClaims), wakeups),
                                         "count/wakeup"};
  m["common.park_us_p50"] = {BucketQuantileUs(c.park_buckets, 0.5), "us"};
  m["common.wake_handoff_us_p50"] = {BucketQuantileUs(c.handoff_buckets, 0.5), "us"};
  m["common.ctx_switches_per_op"] = {Ratio(static_cast<double>(c.ctx_switches), ops),
                                     "count/op"};
  m["common.wheel_ticks_per_s"] = {static_cast<double>(c.wheel_ticks) / c.seconds, "1/s"};
  m["common.timed_waits_per_s"] = {static_cast<double>(c.wheel_scheduled) / c.seconds, "1/s"};
  m["common.wheel_max_lag_us"] = {static_cast<double>(c.wheel_max_lag_ns) / 1000.0, "us"};
  m["sync.produce_us_p50"] = {p50_us(tr.op_active_hist(kProduce)), "us"};
  m["sync.consume_us_p50"] = {p50_us(tr.op_active_hist(kConsume)), "us"};
  m["sync.publish_us_p50"] = {p50_us(tr.op_active_hist(kPublish)), "us"};
  m["sync.take_us_p50"] = {p50_us(tr.op_active_hist(kTake)), "us"};
  m["harness.gen_late_p99_us"] = {traced.tally.lateness.Quantile(0.99) / 1000.0, "us"};
  m["harness.gen_late_max_us"] = {static_cast<double>(traced.tally.lateness.max()) / 1000.0,
                                  "us"};
  m["harness.trace_overhead_frac"] = {Ratio(cpu_traced, cpu_untraced) - 1.0, "frac"};
  // Op latency of the untraced half-windows. It is reported here, without a
  // bound, because no percentile of it repeats across runs on a shared VM:
  // see "Why latency carries no bound" in LAYERS.md.
  const Hist& lat = untraced.tally.latency;
  m["harness.latency_p50_us"] = {lat.Quantile(0.50) / 1000.0, "us"};
  m["harness.latency_p75_us"] = {lat.Quantile(0.75) / 1000.0, "us"};
  m["harness.latency_p99_us"] = {lat.Quantile(0.99) / 1000.0, "us"};
  m["harness.latency_samples"] = {static_cast<double>(lat.count()), "count"};
  return m;
}

// Prints the per-kind self-time table to stderr and writes it, with the spans
// the first segment kept, to `path`.
void DumpTrace(const ThreadTrace& totals, const std::vector<std::vector<Span>>& spans,
               const std::string& path) {
  std::fprintf(stderr, "%-14s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (int k = 0; k < kNumSpanKinds; ++k) {
    std::fprintf(stderr, "%-14s %10llu %14.3f %14.3f\n", SpanKindName(k),
                 static_cast<unsigned long long>(totals.span_hist(k).count()),
                 static_cast<double>(totals.total_ns(k)) / 1e6,
                 static_cast<double>(totals.self_ns(k)) / 1e6);
  }
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    Die("cannot write " + path);
  }
  for (int k = 0; k < kNumSpanKinds; ++k) {
    out << "{\"summary\":\"" << SpanKindName(k) << "\",\"count\":" << totals.span_hist(k).count()
        << ",\"total_ns\":" << totals.total_ns(k) << ",\"self_ns\":" << totals.self_ns(k)
        << "}\n";
  }
  for (std::size_t t = 0; t < spans.size(); ++t) {
    for (const Span& s : spans[t]) {
      out << "{\"thread\":" << t << ",\"op\":" << s.op << ",\"op_kind\":\""
          << OpKindName(s.op_kind) << "\",\"span\":\"" << SpanKindName(s.kind)
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

void PrintResult(const Outcome& out, const Metrics& m) {
  std::string line = "{\"correct\": ";
  line += out.problems.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  for (const auto& [name, metric] : m) {
    std::fprintf(stderr, "  %-36s %16.4f %s\n", name.c_str(), metric.value, metric.unit);
  }
  if (!out.problems.empty()) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n", out.problems.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const RunOptions& opt = args.opt;
  const int cpus = AvailableCpus();
  if (RunnableThreads(opt.workload) > cpus) {
    Die(opt.workload + " needs " + std::to_string(RunnableThreads(opt.workload)) +
        " runnable threads but only " + std::to_string(cpus) + " CPUs are available");
  }
  // Per segment: warm-up, then the window; a traced run splits the window
  // into an untraced half and a traced half.
  const double window_s = opt.seconds / kSegments / (opt.trace ? 2 : 1);
  const double segment_s = kWarmupSeconds + window_s * (opt.trace ? 2 : 1);

  Outcome outcome;
  std::vector<double> setup_s;
  PhaseTotals untraced, traced;
  ThreadTrace trace_totals(/*keep_spans=*/false);
  std::vector<std::vector<Span>> first_spans;
  for (int seg = 0; seg < kSegments; ++seg) {
    // Inputs are generated before set-up is timed; every segment draws its
    // own from the seed.
    RouterInputs router_inputs;
    if (opt.workload == "router") {
      router_inputs = BuildRouterInputs(opt.seed * kSegments + seg, segment_s);
    }
    const std::uint64_t t0 = NowNs();
    std::unique_ptr<Workload> w = opt.workload == "handoff"     ? MakeHandoff(opt)
                                  : opt.workload == "bystander" ? MakeBystander(opt)
                                                                : MakeRouter(opt, router_inputs);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);

    const std::uint64_t base = NowNs();
    const auto at = [&](double s) { return base + static_cast<std::uint64_t>(s * 1e9); };
    w->Start(base);
    w->clock().set(kWarmup);
    SleepUntilNs(at(kWarmupSeconds));
    const Snapshot a = TakeSnapshot(w->sys());
    w->clock().set(kWindow);
    SleepUntilNs(at(kWarmupSeconds + window_s));
    const Snapshot b = TakeSnapshot(w->sys());
    Snapshot c;
    if (opt.trace) {
      w->clock().set(kTraced);
      SleepUntilNs(at(kWarmupSeconds + 2 * window_s));
      c = TakeSnapshot(w->sys());
    }
    const Outcome o = w->Finish();
    outcome.MergeFrom(o);
    if (o.abandoned_threads) {
      PrintResult(outcome, {});
      std::_Exit(1);  // blocked threads cannot be joined; skip the destructors
    }

    untraced.counters.Add(a, b);
    Tally seg_window;
    MergeTally(*w, kWindow, seg_window);
    const double seg_ops = static_cast<double>(seg_window.ops);
    std::fprintf(stderr,
                 "segment %d: setup %.4f s, %.0f ops/s, %.3f cpu us/op, p50 %.2f us, p75 %.2f us, "
                 "p99 %.2f us\n",
                 seg, setup_s.back(), seg_ops / (static_cast<double>(b.t_ns - a.t_ns) * 1e-9),
                 Ratio((b.cpu_s - a.cpu_s) * 1e6, seg_ops), seg_window.latency.Quantile(0.50) / 1000.0,
                 seg_window.latency.Quantile(0.75) / 1000.0, seg_window.latency.Quantile(0.99) / 1000.0);
    MergeTally(*w, kWindow, untraced.tally);
    if (opt.trace) {
      traced.counters.Add(b, c);
      MergeTally(*w, kTraced, traced.tally);
      for (const auto& wk : w->workers()) {
        trace_totals.MergeFrom(*wk->trace);
        if (seg == 0) {
          first_spans.push_back(wk->trace->kept());
        }
      }
    }
  }

  const Metrics m = opt.trace ? PerLayer(untraced, traced, trace_totals)
                              : EndToEnd(untraced, setup_s);
  if (opt.trace) {
    DumpTrace(trace_totals, first_spans, args.trace_out);
  }
  PrintResult(outcome, m);
  return outcome.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
