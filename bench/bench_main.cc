// Unified benchmark runner: sweeps the bounded-buffer grid, the mini-PARSEC
// apps, and the wake-index ablation over a thread × backend × mechanism
// matrix, and emits one machine-readable BENCH_wakeup.json so performance is
// comparable PR-to-PR (the CI bench-smoke job uploads it as an artifact).
//
// Flags:
//   --quick              CI-sized run: eager backend only, small op counts
//   --out=PATH           output file (default BENCH_wakeup.json)
//   --scenario=NAME      all | wake_index | commit_cost | waiter_scale |
//                        bounded | parsec (default all)
//   --ops=N --trials=N --scale=N --max_threads=N --commits=N --many_commits=N
//   --scale_waiters=N    waiter_scale point size (default 1e5, --quick 1e4)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/bounded_grid.h"
#include "bench/commit_cost.h"
#include "bench/parsec_grid.h"
#include "src/common/json_writer.h"
#include "bench/waiter_scale.h"
#include "bench/wake_scenarios.h"

namespace tcs {
namespace {

std::string FlagString(int argc, char** argv, const std::string& key,
                       const std::string& def) {
  std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return def;
}

void EmitWakeTrialRow(JsonWriter& w, const WakeTrialResult& r) {
  w.BeginObject();
  w.Key("backend").String(BackendName(r.backend));
  w.Key("mode").String(r.targeted ? "wake_index" : "global_scan");
  w.Key("waiters").Int(r.waiters);
  w.Key("num_shards").Int(r.num_shards);
  w.Key("waitset_shape").String(WaitsetShapeName(r.shape));
  w.Key("producer").String(r.silent_producer ? "silent" : "hot");
  w.Key("producer_commits").U64(r.producer_commits);
  w.Key("wake_batch_size").Int(r.wake_batch_size);
  w.Key("cas_claim_fast_path").Bool(r.cas_claim_fast_path);
  w.Key("adaptive_wake_batch").Bool(r.adaptive_wake_batch);
  w.Key("seconds").Double(r.seconds);
  w.Key("commits_per_sec").Double(r.commits_per_sec);
  w.Key("wake_checks").U64(r.wake_checks);
  w.Key("wake_checks_per_commit").Double(r.wake_checks_per_commit);
  w.Key("wake_batches").U64(r.wake_batches);
  w.Key("wake_batches_per_commit").Double(r.wake_batches_per_commit);
  w.Key("cas_claims").U64(r.cas_claims);
  w.Key("cas_fallbacks").U64(r.cas_fallbacks);
  w.Key("wake_tx_aborts").U64(r.wake_tx_aborts);
  // Precision rows: vacuous empty-waitset posts are conservative broadcasts,
  // not satisfied wakes, so they are subtracted out of genuine_wakeups.
  w.Key("wakeups").U64(r.wakeups);
  w.Key("vacuous_wakeups").U64(r.vacuous_wakeups);
  w.Key("genuine_wakeups").U64(r.genuine_wakeups);
  // Latency distributions (src/obs/ histograms, hot phase only). Percentiles
  // are log2-bucket upper bounds — conservative for SLO claims.
  w.Key("commit_latency_count").U64(r.commit_latency_count);
  w.Key("commit_p50_ns").U64(r.commit_p50_ns);
  w.Key("commit_p99_ns").U64(r.commit_p99_ns);
  w.Key("commit_p999_ns").U64(r.commit_p999_ns);
  w.Key("wake_latency_count").U64(r.wake_latency_count);
  w.Key("wake_p50_ns").U64(r.wake_p50_ns);
  w.Key("wake_p99_ns").U64(r.wake_p99_ns);
  w.Key("wake_p999_ns").U64(r.wake_p999_ns);
  w.EndObject();
}

void EmitWakeIndex(JsonWriter& w, const std::vector<Backend>& backends,
                   const std::vector<int>& waiter_counts,
                   std::uint64_t commits) {
  w.Key("wake_index").BeginArray();
  struct Summary {
    Backend backend;
    int waiters;
    double speedup;
  };
  std::vector<Summary> summaries;
  for (Backend b : backends) {
    for (int n : waiter_counts) {
      WakeTrialResult scan =
          RunWakeIndexTrial(b, /*targeted=*/false, n, commits);
      WakeTrialResult idx = RunWakeIndexTrial(b, /*targeted=*/true, n, commits);
      EmitWakeTrialRow(w, scan);
      EmitWakeTrialRow(w, idx);
      double speedup = scan.commits_per_sec > 0
                           ? idx.commits_per_sec / scan.commits_per_sec
                           : 0.0;
      summaries.push_back({b, n, speedup});
      std::printf("wake_index  backend=%-10s waiters=%-4d "
                  "global=%.0f/s targeted=%.0f/s speedup=%.2fx\n",
                  BackendName(b), n, scan.commits_per_sec, idx.commits_per_sec,
                  speedup);
    }
  }
  w.EndArray();
  w.Key("wake_index_summary").BeginArray();
  for (const Summary& s : summaries) {
    w.BeginObject();
    w.Key("backend").String(BackendName(s.backend));
    w.Key("waiters").Int(s.waiters);
    w.Key("speedup_wake_index_vs_global_scan").Double(s.speedup);
    w.EndObject();
  }
  w.EndArray();
}

// Shard-count ablation: 64 disjoint waiters, silent producer (every commit
// pays the wake path, nobody is ever satisfied, so all 64 stay parked), shard
// count swept 64 / 256 / 1024. wake_checks_per_commit is then a deterministic
// precision metric — 1.0 means the producer only ever checks the one waiter
// registered under the hot cell's shard; the gap above 1.0 is shard aliasing,
// which more shards shrink.
void EmitWakeShardSweep(JsonWriter& w, const std::vector<Backend>& backends,
                        std::uint64_t commits) {
  w.Key("wake_index_shard_sweep").BeginArray();
  for (Backend b : backends) {
    for (int shards : {64, 256, 1024}) {
      WakeTrialOptions opts;
      opts.backend = b;
      opts.targeted = true;
      opts.waiters = 64;
      opts.producer_commits = commits;
      opts.num_shards = shards;
      opts.silent_producer = true;
      WakeTrialResult r = RunWakeIndexTrial(opts);
      EmitWakeTrialRow(w, r);
      std::printf("wake_shard_sweep backend=%-10s shards=%-5d "
                  "checks/commit=%.3f targeted=%.0f/s\n",
                  BackendName(b), shards, r.wake_checks_per_commit,
                  r.commits_per_sec);
    }
  }
  w.EndArray();
}

// Many-waiter scenario (256–1024 parked threads): disjoint and overlapping
// waitsets, targeted vs global scan. This is the production-scale shape the
// >64-shard index exists for; the global-scan baseline at these counts pays
// waiters × commits wake checks.
void EmitWakeManyWaiters(JsonWriter& w, const std::vector<Backend>& backends,
                         const std::vector<int>& waiter_counts,
                         std::uint64_t commits) {
  w.Key("wake_index_many_waiters").BeginArray();
  for (Backend b : backends) {
    for (int n : waiter_counts) {
      for (WaitsetShape shape :
           {WaitsetShape::kDisjoint, WaitsetShape::kOverlapping}) {
        for (bool targeted : {false, true}) {
          WakeTrialOptions opts;
          opts.backend = b;
          opts.targeted = targeted;
          opts.waiters = n;
          opts.producer_commits = commits;
          opts.shape = shape;
          WakeTrialResult r = RunWakeIndexTrial(opts);
          EmitWakeTrialRow(w, r);
          std::printf("wake_many   backend=%-10s waiters=%-5d shape=%-11s "
                      "mode=%-11s checks/commit=%.3f commits/s=%.0f\n",
                      BackendName(b), n, WaitsetShapeName(shape),
                      targeted ? "wake_index" : "global_scan",
                      r.wake_checks_per_commit, r.commits_per_sec);
        }
      }
    }
  }
  w.EndArray();
}

// Wake-batching ablation: batch size swept 1/4/8/16 with many parked waiters
// under the global-scan wake path — the shape where a committing writer pays
// one wake check per registered waiter, so the per-candidate internal
// transactions (batch_size=1, the paper's Algorithm 4) dominate the wake
// path. Batching coalesces those checks: wake_batches_per_commit should track
// ceil(candidates / batch_size), and commits_per_sec is the throughput win.
void EmitWakeBatchSweep(JsonWriter& w, const std::vector<Backend>& backends,
                        const std::vector<int>& waiter_counts,
                        std::uint64_t commits) {
  w.Key("wake_batching_sweep").BeginArray();
  for (Backend b : backends) {
    for (int n : waiter_counts) {
      if (n > 256 && b != Backend::kEagerStm) {
        // 1024 parked threads per trial; keep the tail of the sweep on one
        // backend so full-run wall time stays sane.
        continue;
      }
      double base_cps = 0.0;
      double best_fixed_cps = 0.0;
      for (int batch : {1, 4, 8, 16}) {
        WakeTrialOptions opts;
        opts.backend = b;
        opts.targeted = false;  // global scan: every commit checks everyone
        opts.waiters = n;
        opts.producer_commits = commits;
        opts.wake_batch_size = batch;
        // Fixed-batch rows isolate the batching variable: no fast-path
        // claims, no adaptive resizing.
        opts.cas_claim_fast_path = false;
        opts.adaptive_wake_batch = false;
        WakeTrialResult r = RunWakeIndexTrial(opts);
        EmitWakeTrialRow(w, r);
        if (batch == 1) {
          base_cps = r.commits_per_sec;
        }
        best_fixed_cps = std::max(best_fixed_cps, r.commits_per_sec);
        double speedup =
            base_cps > 0 ? r.commits_per_sec / base_cps : 0.0;
        std::printf("wake_batch  backend=%-10s waiters=%-5d batch=%-3d "
                    "batches/commit=%.2f checks/commit=%.2f commits/s=%.0f "
                    "speedup_vs_batch1=%.2fx\n",
                    BackendName(b), n, batch, r.wake_batches_per_commit,
                    r.wake_checks_per_commit, r.commits_per_sec, speedup);
      }
      // Adaptive row: same shape, batch capped at the sweep maximum, the
      // effective size steered by the wake-tx abort-rate EWMA. Compared
      // against the best fixed size from the rows above.
      WakeTrialOptions opts;
      opts.backend = b;
      opts.targeted = false;
      opts.waiters = n;
      opts.producer_commits = commits;
      opts.wake_batch_size = 16;
      opts.cas_claim_fast_path = false;
      opts.adaptive_wake_batch = true;
      WakeTrialResult r = RunWakeIndexTrial(opts);
      EmitWakeTrialRow(w, r);
      double vs_best =
          best_fixed_cps > 0 ? r.commits_per_sec / best_fixed_cps : 0.0;
      std::printf("wake_batch  backend=%-10s waiters=%-5d batch=ada "
                  "batches/commit=%.2f checks/commit=%.2f commits/s=%.0f "
                  "vs_best_fixed=%.2fx\n",
                  BackendName(b), n, r.wake_batches_per_commit,
                  r.wake_checks_per_commit, r.commits_per_sec, vs_best);
    }
  }
  w.EndArray();
}

// CAS fast-path ablation: 1–4 disjoint waiters — the paper's common case of a
// few threads blocked on distinct conditions — on the targeted wake path.
// With the fast path off, every satisfied waiter costs at least one internal
// wake transaction; with it on, the claim is a single orec CAS and
// wake_batches_per_commit collapses to ~0 while cas_claims carries the wakes.
void EmitCasClaimAblation(JsonWriter& w, const std::vector<Backend>& backends,
                          std::uint64_t commits) {
  w.Key("cas_claim_ablation").BeginArray();
  for (Backend b : backends) {
    for (int n : {1, 2, 4}) {
      for (bool cas : {false, true}) {
        WakeTrialOptions opts;
        opts.backend = b;
        opts.targeted = true;
        opts.waiters = n;
        opts.producer_commits = commits;
        opts.cas_claim_fast_path = cas;
        WakeTrialResult r = RunWakeIndexTrial(opts);
        EmitWakeTrialRow(w, r);
        std::printf("cas_claim   backend=%-10s waiters=%-2d cas=%-3s "
                    "batches/commit=%.3f cas_claims=%llu commits/s=%.0f\n",
                    BackendName(b), n, cas ? "on" : "off",
                    r.wake_batches_per_commit,
                    static_cast<unsigned long long>(r.cas_claims),
                    r.commits_per_sec);
      }
    }
  }
  w.EndArray();
}

// Before/after row for the memory-order diet (the [wake-publish] relaxation):
// the publication op mix a waiter/writer pair executes on the WakeIndex
// bitmaps — insert, scan, clear — timed once under the pre-diet blanket
// seq_cst orders and once under the acq/rel//relaxed orders the code ships
// with now. memory_order is an ordinary runtime value in C++, so both arms
// run the identical instruction sequence apart from the ordering itself.
struct MoDietResult {
  const char* mode;
  std::uint64_t ops;
  double seconds;
  double ops_per_sec;
};

MoDietResult RunMoDietTrial(bool before, std::uint64_t ops) {
  // Order selection for the A/B arms. The analyzer requires these seq_cst
  // mentions to be justified like any other site:
  // mo: seq_cst — the "before" arm reproduces the pre-diet blanket seq_cst
  // publication orders; the "after" arm uses the shipped [wake-publish]
  // orders (release insert, acquire scan, relaxed clear).
  // seq_cst-required: A/B measurement baseline, not a synchronization claim.
  const std::memory_order insert_memory_order =
      before ? std::memory_order_seq_cst : std::memory_order_release;
  // mo: seq_cst — before-arm selector, as above.
  // seq_cst-required: A/B measurement baseline, not a synchronization claim.
  const std::memory_order scan_memory_order =
      before ? std::memory_order_seq_cst : std::memory_order_acquire;
  // mo: seq_cst — before-arm selector, as above.
  // seq_cst-required: A/B measurement baseline, not a synchronization claim.
  const std::memory_order clear_memory_order =
      before ? std::memory_order_seq_cst : std::memory_order_relaxed;

  constexpr int kWords = 64;
  auto words = std::make_unique<std::atomic<std::uint64_t>[]>(kWords);
  for (int i = 0; i < kWords; ++i) {
    // mo: relaxed — single-threaded setup before the timed loop.
    words[i].store(0, std::memory_order_relaxed);
  }
  std::uint64_t sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const int w = static_cast<int>(i & (kWords - 1));
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    words[w].fetch_or(bit, insert_memory_order);   // waiter: publish
    sink += words[w].load(scan_memory_order);      // writer: scan
    words[w].fetch_and(~bit, clear_memory_order);  // waiter: deregister
  }
  auto t1 = std::chrono::steady_clock::now();
  // Keep `sink` observable so the scan load cannot be dropped.
  if (sink == std::uint64_t{0x5eed}) {
    std::printf("# sink %llu\n", static_cast<unsigned long long>(sink));
  }
  MoDietResult r;
  r.mode = before ? "seq_cst_before" : "acq_rel_after";
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.ops_per_sec = r.seconds > 0 ? static_cast<double>(ops) / r.seconds : 0.0;
  return r;
}

void EmitMoDiet(JsonWriter& w, std::uint64_t ops) {
  w.Key("mo_diet").BeginArray();
  for (bool before : {true, false}) {
    MoDietResult r = RunMoDietTrial(before, ops);
    w.BeginObject();
    w.Key("mode").String(r.mode);
    w.Key("op_mix").String("wake_publish_insert_scan_clear");
    w.Key("ops").U64(r.ops);
    w.Key("seconds").Double(r.seconds);
    w.Key("ops_per_sec").Double(r.ops_per_sec);
    w.EndObject();
    std::printf("mo_diet     mode=%-15s ops=%llu %.0f ops/s\n", r.mode,
                static_cast<unsigned long long>(r.ops), r.ops_per_sec);
  }
  w.EndArray();
}

// One writer's commit cost against 0/256/1k/4k parked bystanders; the
// bench-smoke gate bounds the 4k median against the 0 median.
void EmitCommitCostVsParked(JsonWriter& w, const std::vector<Backend>& backends,
                            std::uint64_t commits, int trials) {
  w.Key("commit_cost_vs_parked").BeginArray();
  for (Backend b : backends) {
    for (int parked : {0, 256, 1024, 4096}) {
      CommitCostResult r = RunCommitCostVsParked(b, parked, commits, trials);
      w.BeginObject();
      w.Key("backend").String(BackendName(r.backend));
      w.Key("parked").Int(r.parked);
      w.Key("commits").U64(r.commits);
      w.Key("trials").Int(static_cast<int>(r.trial_ns.size()));
      w.Key("ns_per_commit_median").Double(r.median_ns);
      w.Key("ns_per_commit_min").Double(r.min_ns);
      w.Key("ns_per_commit_max").Double(r.max_ns);
      w.Key("wake_checks_per_commit").Double(r.wake_checks_per_commit);
      w.Key("spurious_wakeups").U64(r.spurious_wakeups);
      w.Key("lost_wakeups").U64(r.lost_wakeups);
      w.EndObject();
      std::printf(
          "commit_cost backend=%-9s parked=%-5d ns/commit median=%.0f "
          "min=%.0f max=%.0f checks/commit=%.3f\n",
          BackendName(r.backend), r.parked, r.median_ns, r.min_ns, r.max_ns,
          r.wake_checks_per_commit);
    }
  }
  w.EndArray();
}

void EmitWaiterScaleRow(JsonWriter& w, const WaiterScaleResult& r) {
  w.BeginObject();
  w.Key("backend").String(BackendName(r.backend));
  w.Key("requested_waiters").Int(r.requested_waiters);
  w.Key("waiters").Int(r.waiters);
  w.Key("spawned").Int(r.spawned);
  w.Key("park_backend").Int(r.park_backend);
  w.Key("uses_futex").Bool(r.uses_futex);
  w.Key("timer_wheel").Bool(r.timer_wheel);
  w.Key("park_seconds").Double(r.park_seconds);
  w.Key("wake_seconds").Double(r.wake_seconds);
  w.Key("wake_rounds").U64(r.wake_rounds);
  w.Key("acks").U64(r.acks);
  w.Key("lost_wakeups").U64(r.lost_wakeups);
  w.Key("registry_bytes").U64(r.registry_bytes);
  w.Key("wake_index_bytes").U64(r.wake_index_bytes);
  w.Key("registry_segments").Int(r.registry_segments);
  w.Key("mem_bytes_per_waiter").Double(r.mem_bytes_per_waiter);
  w.Key("timed_waits").U64(r.timed_waits);
  w.Key("wheel_ticks").U64(r.wheel_ticks);
  w.Key("wheel_scheduled").U64(r.wheel_scheduled);
  w.Key("wheel_fired").U64(r.wheel_fired);
  w.Key("wheel_stale").U64(r.wheel_stale);
  w.Key("wheel_max_lag_ns").U64(r.wheel_max_lag_ns);
  w.Key("wake_latency_count").U64(r.wake_latency_count);
  w.Key("wake_p50_ns").U64(r.wake_p50_ns);
  w.Key("wake_p99_ns").U64(r.wake_p99_ns);
  w.Key("wake_p999_ns").U64(r.wake_p999_ns);
  w.EndObject();
}

void PrintWaiterScaleRow(const char* variant, const WaiterScaleResult& r) {
  if (r.waiters < r.requested_waiters) {
    std::printf(
        "waiter_scale: requested %d waiters clamped to %d by the machine's "
        "PID budget (kernel.pid_max)\n",
        r.requested_waiters, r.waiters);
  }
  std::printf(
      "waiter_scale backend=%-10s variant=%-9s waiters=%-7d spawned=%-7d "
      "lost=%llu mem/waiter=%.0fB wake_p99=%lluns timed=%llu ticks=%llu\n",
      BackendName(r.backend), variant, r.waiters, r.spawned,
      static_cast<unsigned long long>(r.lost_wakeups), r.mem_bytes_per_waiter,
      static_cast<unsigned long long>(r.wake_p99_ns),
      static_cast<unsigned long long>(r.timed_waits),
      static_cast<unsigned long long>(r.wheel_ticks));
}

// Capacity-tier sweep: one 10^4/10^5-waiter point per backend (pooled parking
// + timer wheel at defaults), plus two eager-backend variant rows — the
// portable mutex+condvar parking pool, and the wheel off (per-wait kernel
// timeouts) — so the defaults' wins are visible in the same artifact. The CI
// gate (bench-smoke) asserts lost_wakeups == 0, bounded mem_bytes_per_waiter,
// and wheel_ticks < timed_waits over these rows.
void EmitWaiterScale(JsonWriter& w, const std::vector<Backend>& backends,
                     int waiters, int variant_waiters) {
  w.Key("waiter_scale_sweep").BeginArray();
  for (Backend b : backends) {
    WaiterScaleOptions opts;
    opts.backend = b;
    opts.waiters = waiters;
    WaiterScaleResult r = RunWaiterScaleTrial(opts);
    EmitWaiterScaleRow(w, r);
    PrintWaiterScaleRow("default", r);
  }
  {
    WaiterScaleOptions opts;
    opts.backend = Backend::kEagerStm;
    opts.waiters = variant_waiters;
    opts.park_backend = 2;  // mutex+condvar pool (portable fallback)
    WaiterScaleResult r = RunWaiterScaleTrial(opts);
    EmitWaiterScaleRow(w, r);
    PrintWaiterScaleRow("pool", r);
  }
  {
    WaiterScaleOptions opts;
    opts.backend = Backend::kEagerStm;
    // Smaller than the other variants: without the wheel, timed-wait expiries
    // land scattered instead of batched at tick boundaries, so the churners'
    // commits (and their quiescence) never leave a quiet window for the rest
    // of the park phase — at 10^4 waiters the row alone costs minutes. The
    // contrast the row exists for (per-wait timeouts vs one wheel) is just as
    // visible at this size.
    opts.waiters = std::min(variant_waiters, 2500);
    opts.timer_wheel = false;  // per-wait kernel timeouts (pre-capacity tier)
    WaiterScaleResult r = RunWaiterScaleTrial(opts);
    EmitWaiterScaleRow(w, r);
    PrintWaiterScaleRow("no_wheel", r);
  }
  w.EndArray();
}

void EmitBounded(JsonWriter& w, const std::vector<Backend>& backends,
                 const BoundedGridOptions& base) {
  w.Key("bounded_buffer").BeginArray();
  for (Backend b : backends) {
    BoundedGridOptions opts = base;
    opts.backend = b;
    opts.include_retry_orig = (b != Backend::kSimHtm);
    for (const BoundedGridRow& r : CollectBoundedGrid(opts)) {
      w.BeginObject();
      w.Key("backend").String(BackendName(b));
      w.Key("mechanism").String(MechanismName(r.mech));
      w.Key("producers").Int(r.producers);
      w.Key("consumers").Int(r.consumers);
      w.Key("buffer_size").U64(r.buffer_size);
      w.Key("mean_s").Double(r.mean_s);
      w.Key("stddev_s").Double(r.stddev_s);
      w.EndObject();
    }
    std::printf("bounded_buffer backend=%s done\n", BackendName(b));
  }
  w.EndArray();
}

void EmitParsec(JsonWriter& w, const std::vector<Backend>& backends,
                const ParsecGridOptions& base) {
  w.Key("parsec").BeginArray();
  for (Backend b : backends) {
    ParsecGridOptions opts = base;
    opts.backend = b;
    opts.include_retry_orig = (b != Backend::kSimHtm);
    for (const ParsecGridRow& r : CollectParsecGrid(opts)) {
      w.BeginObject();
      w.Key("backend").String(BackendName(b));
      w.Key("app").String(r.app);
      w.Key("mechanism").String(MechanismName(r.mech));
      w.Key("threads").Int(r.threads);
      w.Key("mean_s").Double(r.mean_s);
      w.Key("stddev_s").Double(r.stddev_s);
      w.Key("throughput").Double(r.throughput);
      w.EndObject();
    }
    std::printf("parsec backend=%s done\n", BackendName(b));
  }
  w.EndArray();
}

int Run(int argc, char** argv) {
  BenchFlags flags(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const std::string out = FlagString(argc, argv, "out", "BENCH_wakeup.json");
  const std::string scenario = FlagString(argc, argv, "scenario", "all");

  std::vector<Backend> backends =
      quick ? std::vector<Backend>{Backend::kEagerStm}
            : std::vector<Backend>{Backend::kEagerStm, Backend::kLazyStm,
                                   Backend::kSimHtm};

  std::vector<int> waiter_counts = quick ? std::vector<int>{16, 64}
                                         : std::vector<int>{4, 16, 64};
  std::uint64_t commits = flags.GetU64("commits", quick ? 1500 : 4000);
  // Many-waiter trials pay waiters × commits wake checks on the global-scan
  // baseline, so they run fewer producer commits.
  std::vector<int> many_waiter_counts =
      quick ? std::vector<int>{256} : std::vector<int>{256, 1024};
  std::uint64_t many_commits =
      flags.GetU64("many_commits", quick ? 300 : 600);

  BoundedGridOptions bounded;
  bounded.ops = flags.GetU64("ops", quick ? 1 << 11 : 1 << 14);
  bounded.trials = flags.GetU64("trials", quick ? 1 : 3);
  bounded.max_side = static_cast<int>(flags.GetU64("max_side", quick ? 2 : 4));

  ParsecGridOptions parsec;
  parsec.scale = flags.GetU64("scale", quick ? 1 : 2);
  parsec.trials = flags.GetU64("trials", quick ? 1 : 3);
  parsec.max_threads =
      static_cast<int>(flags.GetU64("max_threads", quick ? 4 : 8));
  // All eight apps run even in --quick: the CI artifact carries per-app
  // throughput for the whole suite (scale stays test-sized).

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("tcsync");
  w.Key("schema_version").Int(1);
  w.Key("quick").Bool(quick);
  w.Key("scenarios").BeginObject();
  if (scenario == "all" || scenario == "wake_index") {
    EmitWakeIndex(w, backends, waiter_counts, commits);
    EmitWakeShardSweep(w, backends, commits);
    // The many-waiter matrix spawns up to 1024 threads per trial; sweep it on
    // the eager backend only to keep the full run's wall time sane.
    EmitWakeManyWaiters(w, {Backend::kEagerStm}, many_waiter_counts,
                        many_commits);
    // The batching sweep reuses the many-waiter shape (global scan, so every
    // commit pays one check per waiter); full runs cover all three backends
    // at 256 waiters plus eager at 1024.
    EmitWakeBatchSweep(w, backends, many_waiter_counts, many_commits);
    EmitCasClaimAblation(w, backends, commits);
    EmitMoDiet(w, flags.GetU64("mo_diet_ops", quick ? 2000000 : 20000000));
  }
  if (scenario == "all" || scenario == "commit_cost") {
    EmitCommitCostVsParked(
        w, backends, flags.GetU64("cost_commits", quick ? 20000 : 100000),
        static_cast<int>(flags.GetU64("cost_trials", quick ? 3 : 5)));
  }
  if (scenario == "all" || scenario == "waiter_scale") {
    // 10^5 parked waiters per full-run point; CI (--quick) runs the 10^4
    // point. Variant rows (pool parking, wheel off) stay at the CI size even
    // in full runs — they exist for comparison, not for the capacity record.
    const int scale_waiters = static_cast<int>(
        flags.GetU64("scale_waiters", quick ? 10000 : 100000));
    const int variant_waiters = std::min(scale_waiters, 10000);
    EmitWaiterScale(w, backends, scale_waiters, variant_waiters);
  }
  if (scenario == "all" || scenario == "bounded") {
    EmitBounded(w, backends, bounded);
  }
  if (scenario == "all" || scenario == "parsec") {
    EmitParsec(w, backends, parsec);
  }
  w.EndObject();
  w.EndObject();
  if (!w.WriteFile(out)) {
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace tcs

int main(int argc, char** argv) { return tcs::Run(argc, argv); }
