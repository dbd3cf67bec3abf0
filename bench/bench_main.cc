// Unified benchmark runner: sweeps the bounded-buffer grid, the mini-PARSEC
// apps, the wake-path ablations and the capacity tier over a thread ×
// backend × mechanism matrix, and emits one machine-readable
// BENCH_wakeup.json so performance is comparable change to change (the CI
// bench-smoke job uploads it as an artifact and gates on its rows).
//
// Flags:
//   --quick              CI-sized run: eager backend only, small op counts
//   --paper              paper-sized bounded and parsec grids (Figures
//                        2.3-2.8): 2^20 ops over 16 panels, scale 8, 5 trials
//   --out=PATH           output file (default BENCH_wakeup.json)
//   --scenario=NAME      all (default) or one of kScenarios below
//   --ops=N --trials=N --max_side=N          bounded grid sizing
//   --scale=N --trials=N --max_threads=N     parsec grid sizing
//   --commits=N --many_commits=N --mo_diet_ops=N
//   --cost_commits=N --cost_trials=N
//   --scale_waiters=N    waiter_scale point size (default 1e5, --quick 1e4)
// An unknown flag or scenario prints the valid names and exits 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/bounded_grid.h"
#include "bench/commit_cost.h"
#include "bench/parsec_grid.h"
#include "src/common/json_writer.h"
#include "bench/waiter_scale.h"
#include "bench/wake_scenarios.h"
#include "src/core/runtime.h"
#include "src/core/transaction.h"
#include "src/sync/bounded_buffer.h"

namespace tcs {
namespace {

const std::vector<std::string> kScenarios = {
    "wake_index",   "wake_batching_verify", "commit_cost",
    "waiter_scale", "bounded",              "parsec",
    "wake_policy",  "wakeup_precision",     "waitset_pruning",
};

const std::vector<std::string> kFlags = {
    "quick",        "paper",       "out",           "scenario",
    "ops",          "trials",      "max_side",      "scale",
    "max_threads",  "commits",     "many_commits",  "mo_diet_ops",
    "cost_commits", "cost_trials", "scale_waiters",
};

// The fields of one wake trial, written into the caller's open object.
void EmitWakeTrialFields(JsonWriter& w, const WakeTrialResult& r) {
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
}

void EmitWakeTrialRow(JsonWriter& w, const WakeTrialResult& r) {
  w.BeginObject();
  EmitWakeTrialFields(w, r);
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

// No-lost-wakeup gate for the batched and CAS wake paths; CI's bench-smoke
// job checks these rows. Two passes over 256 global-scan waiters: fixed
// batches 1/4/8/16 with the CAS fast path and adaptive sizing off, then
// batches 4/16 with both on (the production configuration, so both claim
// paths race). Each pass ends with an adaptive row (cap 16) measured against
// the pass's best fixed batch. Then the CAS fast-path acceptance rows: 1/2/4
// disjoint waiters on the targeted path, fast path off vs on. Every row
// carries a kVerifyWaiters-thread no-lost-wakeup check under its
// configuration.
constexpr int kVerifyWaiters = 64;
constexpr std::chrono::seconds kVerifyDeadline{60};

void EmitVerifyFields(JsonWriter& w, const WakeVerifyResult& v) {
  w.Key("verify_waiters").Int(kVerifyWaiters);
  w.Key("lost_wakeups").U64(v.lost_wakeups);
  w.Key("leaked_entries").U64(v.leaked_entries);
  if (v.lost_wakeups != 0 || v.leaked_entries != 0) {
    std::printf("wake_verify FAILED: lost_wakeups=%llu leaked_entries=%llu\n",
                static_cast<unsigned long long>(v.lost_wakeups),
                static_cast<unsigned long long>(v.leaked_entries));
  }
}

void EmitWakeBatchingVerify(JsonWriter& w, const std::vector<Backend>& backends,
                            std::uint64_t commits) {
  struct Pass {
    const char* name;
    bool cas_and_adaptive;
    std::vector<int> batches;
  };
  const Pass passes[] = {{"cas_off_adaptive_off", false, {1, 4, 8, 16}},
                         {"cas_on_adaptive_on", true, {4, 16}}};
  constexpr int kWaiters = 256;
  w.Key("wake_batching_verify").BeginArray();
  for (Backend b : backends) {
    for (const Pass& p : passes) {
      double best_fixed_cps = 0.0;
      for (int batch : p.batches) {
        WakeTrialOptions opts;
        opts.backend = b;
        opts.targeted = false;  // global scan: every commit checks everyone
        opts.waiters = kWaiters;
        opts.producer_commits = commits;
        opts.wake_batch_size = batch;
        opts.cas_claim_fast_path = p.cas_and_adaptive;
        opts.adaptive_wake_batch = p.cas_and_adaptive;
        WakeTrialResult r = RunWakeIndexTrial(opts);
        best_fixed_cps = std::max(best_fixed_cps, r.commits_per_sec);
        w.BeginObject();
        w.Key("kind").String("fixed_batch");
        w.Key("pass").String(p.name);
        EmitWakeTrialFields(w, r);
        EmitVerifyFields(
            w, VerifyNoLostWakeups(b, batch, p.cas_and_adaptive,
                                   p.cas_and_adaptive, kVerifyWaiters,
                                   kVerifyDeadline));
        w.EndObject();
        std::printf("wake_verify backend=%-10s pass=%-20s batch=%-3d "
                    "batches/commit=%.2f commits/s=%.0f\n",
                    BackendName(b), p.name, batch, r.wake_batches_per_commit,
                    r.commits_per_sec);
      }
      // Adaptive sizing against the best fixed batch. Adaptive typically
      // lands at 0.95-1.05x; the CI bound (0.5x) only trips on a structural
      // collapse such as shrinking to tiny batches with no abort pressure,
      // because short runs see +-30% noise between identical sweep points.
      WakeTrialOptions opts;
      opts.backend = b;
      opts.targeted = false;
      opts.waiters = kWaiters;
      opts.producer_commits = commits;
      opts.wake_batch_size = p.batches.back();
      opts.cas_claim_fast_path = p.cas_and_adaptive;
      opts.adaptive_wake_batch = true;
      WakeTrialResult r = RunWakeIndexTrial(opts);
      const double vs_best =
          best_fixed_cps > 0 ? r.commits_per_sec / best_fixed_cps : 0.0;
      w.BeginObject();
      w.Key("kind").String("adaptive_batch");
      w.Key("pass").String(p.name);
      EmitWakeTrialFields(w, r);
      w.Key("best_fixed_commits_per_sec").Double(best_fixed_cps);
      w.Key("vs_best_fixed").Double(vs_best);
      EmitVerifyFields(w, VerifyNoLostWakeups(b, p.batches.back(),
                                              p.cas_and_adaptive,
                                              /*adaptive=*/true, kVerifyWaiters,
                                              kVerifyDeadline));
      w.EndObject();
      std::printf("wake_verify backend=%-10s pass=%-20s batch=ada "
                  "commits/s=%.0f vs_best_fixed=%.2fx\n",
                  BackendName(b), p.name, r.commits_per_sec, vs_best);
    }
    // CAS fast-path acceptance: the fast path must strictly reduce wake
    // transactions, and the common case must claim without any. The CI
    // residue allowance (commits/10) covers the racing-re-registration
    // window, where the registration transaction holds the slot's orec and
    // the fast path correctly falls back.
    for (int n : {1, 2, 4}) {
      WakeTrialResult off;
      WakeTrialResult on;
      for (bool cas : {false, true}) {
        WakeTrialOptions opts;
        opts.backend = b;
        opts.targeted = true;
        opts.waiters = n;
        opts.producer_commits = commits;
        opts.cas_claim_fast_path = cas;
        (cas ? on : off) = RunWakeIndexTrial(opts);
      }
      w.BeginObject();
      w.Key("kind").String("cas_acceptance");
      w.Key("backend").String(BackendName(b));
      w.Key("waiters").Int(n);
      w.Key("producer_commits").U64(commits);
      w.Key("batches_off").U64(off.wake_batches);
      w.Key("batches_on").U64(on.wake_batches);
      w.Key("cas_claims_on").U64(on.cas_claims);
      EmitVerifyFields(w, VerifyNoLostWakeups(b, 16, /*cas=*/true,
                                              /*adaptive=*/true, kVerifyWaiters,
                                              kVerifyDeadline));
      w.EndObject();
      std::printf("wake_verify backend=%-10s cas_acceptance waiters=%d "
                  "batches off=%llu on=%llu cas_claims=%llu\n",
                  BackendName(b), n,
                  static_cast<unsigned long long>(off.wake_batches),
                  static_cast<unsigned long long>(on.wake_batches),
                  static_cast<unsigned long long>(on.cas_claims));
    }
  }
  w.EndArray();
}

// The spin_then_park row of wake_policy: a capacity-1 Retry ping-pong, 2
// producers and 2 consumers, where nearly every item would cross a park and
// unpark without the pre-park spin (deschedule.cc). Per backend: ops/s
// median/min/max over `trials`, sleeps per op, the spin's wakeups and misses,
// items lost or duplicated (checksum), and a no-lost-wakeup verification. CI
// checks that the spin fired and nothing was lost; it bounds no timing.
void EmitSpinThenPark(JsonWriter& w, const std::vector<Backend>& backends,
                      std::uint64_t items, int trials) {
  constexpr int kSide = 2;
  const std::uint64_t per_side = items / kSide;
  const std::uint64_t n = per_side * kSide;  // items per trial
  for (Backend b : backends) {
    std::vector<double> ops_per_s;
    std::uint64_t sleeps = 0;
    std::uint64_t spin_wakeups = 0;
    std::uint64_t spin_misses = 0;
    std::uint64_t bad_checksums = 0;
    for (int t = 0; t < trials; ++t) {
      TmConfig cfg;
      cfg.backend = b;
      cfg.max_threads = 16;
      Runtime rt(cfg);
      BoundedBuffer buf(&rt, Mechanism::kRetry, 1);
      std::uint64_t sums[kSide] = {};
      const double t0 = NowSec();
      std::vector<std::thread> threads;
      for (int p = 0; p < kSide; ++p) {
        threads.emplace_back([&, p] {
          for (std::uint64_t i = 1; i <= per_side; ++i) {
            buf.Produce(static_cast<std::uint64_t>(p) * per_side + i);
          }
        });
      }
      for (int c = 0; c < kSide; ++c) {
        threads.emplace_back([&, c] {
          for (std::uint64_t i = 0; i < per_side; ++i) {
            sums[c] += buf.Consume();
          }
        });
      }
      for (auto& th : threads) {
        th.join();
      }
      ops_per_s.push_back(static_cast<double>(n) / (NowSec() - t0));
      bad_checksums += sums[0] + sums[1] != n * (n + 1) / 2 ? 1 : 0;
      TxStats st = rt.AggregateStats();
      sleeps += st.Get(Counter::kSleeps);
      spin_wakeups += st.Get(Counter::kSpinWakeups);
      spin_misses += st.Get(Counter::kSpinMisses);
    }
    std::sort(ops_per_s.begin(), ops_per_s.end());
    const WakeVerifyResult v = VerifyNoLostWakeups(
        b, TmConfig{}.wake_batch_size, /*cas=*/true, /*adaptive=*/true,
        kVerifyWaiters, kVerifyDeadline);
    const double ops = static_cast<double>(n) * trials;
    w.BeginObject();
    w.Key("backend").String(BackendName(b));
    w.Key("policy").String("spin_then_park");
    w.Key("producers").Int(kSide);
    w.Key("consumers").Int(kSide);
    w.Key("capacity").Int(1);
    w.Key("ops").U64(n);
    w.Key("trials").Int(trials);
    w.Key("ops_per_s_median").Double(ops_per_s[ops_per_s.size() / 2]);
    w.Key("ops_per_s_min").Double(ops_per_s.front());
    w.Key("ops_per_s_max").Double(ops_per_s.back());
    w.Key("sleeps_per_op").Double(static_cast<double>(sleeps) / ops);
    w.Key("spin_wakeups").U64(spin_wakeups);
    w.Key("spin_misses").U64(spin_misses);
    w.Key("bad_checksums").U64(bad_checksums);
    EmitVerifyFields(w, v);
    w.EndObject();
    std::printf("wake_policy policy=spin_then_park backend=%-10s "
                "ops/s median=%.0f [%.0f, %.0f] sleeps/op=%.4f "
                "spin_wakeups=%llu spin_misses=%llu\n",
                BackendName(b), ops_per_s[ops_per_s.size() / 2],
                ops_per_s.front(), ops_per_s.back(),
                static_cast<double>(sleeps) / ops,
                static_cast<unsigned long long>(spin_wakeups),
                static_cast<unsigned long long>(spin_misses));
  }
}

// Wake policy (§2.4.1): the paper diagnoses the pathological p1-cN shape —
// "after the production, 4 consumers are woken. They all contend for the
// same element, one succeeds, three fail, and then the failed threads go
// back to sleep". TmConfig::wake_single stops the waiter scan at the first
// satisfied waiter, emulating pthread-style signal. One producer moves `ops`
// elements to four Retry consumers through a capacity-4 buffer. The array
// ends with the spin_then_park rows (EmitSpinThenPark).
void EmitWakePolicy(JsonWriter& w, const std::vector<Backend>& backends,
                    std::uint64_t ops) {
  constexpr int kConsumers = 4;
  const std::uint64_t per_consumer = ops / kConsumers;
  w.Key("wake_policy").BeginArray();
  for (bool single : {false, true}) {
    TmConfig cfg;
    cfg.max_threads = 16;
    cfg.wake_single = single;
    Runtime rt(cfg);
    BoundedBuffer buf(&rt, Mechanism::kRetry, 4);
    const double t0 = NowSec();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        for (std::uint64_t i = 0; i < per_consumer; ++i) {
          buf.Consume();
        }
      });
    }
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < per_consumer * kConsumers; ++i) {
        buf.Produce(i);
      }
    });
    for (auto& t : threads) {
      t.join();
    }
    const double seconds = NowSec() - t0;
    TxStats st = rt.AggregateStats();
    w.BeginObject();
    w.Key("backend").String(BackendName(cfg.backend));
    w.Key("policy").String(single ? "single" : "broadcast");
    w.Key("ops").U64(per_consumer * kConsumers);
    w.Key("seconds").Double(seconds);
    w.Key("wakeups").U64(st.Get(Counter::kWakeups));
    w.Key("false_wakeups").U64(st.Get(Counter::kFalseWakeups));
    w.EndObject();
    std::printf("wake_policy policy=%-9s seconds=%.4f wakeups=%llu "
                "false_wakeups=%llu\n",
                single ? "single" : "broadcast", seconds,
                static_cast<unsigned long long>(st.Get(Counter::kWakeups)),
                static_cast<unsigned long long>(st.Get(Counter::kFalseWakeups)));
  }
  EmitSpinThenPark(w, backends, 4 * ops, /*trials=*/3);
  w.EndArray();
}

bool ThresholdPred(TmSystem& sys, const WaitArgs& args) {
  const auto* counter = reinterpret_cast<const TVar<std::uint64_t>*>(args.v[0]);
  return sys.Read(counter->word()) >= args.v[1];
}

// Wakeup precision (§2.3): four waiters wait for a shared counter to reach
// evenly spread thresholds while one writer increments it `steps` times.
// WaitPred wakes each waiter exactly when its threshold is met; Retry and
// Await wake on every change (false wakeups).
void EmitWakeupPrecision(JsonWriter& w, std::uint64_t steps) {
  constexpr int kWaiters = 4;
  w.Key("wakeup_precision").BeginArray();
  for (Mechanism mech :
       {Mechanism::kWaitPred, Mechanism::kAwait, Mechanism::kRetry}) {
    TmConfig cfg;
    cfg.max_threads = 16;
    Runtime rt(cfg);
    TVar<std::uint64_t> counter(0);
    const double t0 = NowSec();
    std::vector<std::thread> waiters;
    for (int i = 0; i < kWaiters; ++i) {
      waiters.emplace_back([&, i] {
        const std::uint64_t threshold =
            (static_cast<std::uint64_t>(i) + 1) * steps / kWaiters;
        Atomically(rt.sys(), [&](Tx& tx) {
          if (tx.Load(counter) < threshold) {
            switch (mech) {
              case Mechanism::kWaitPred: {
                WaitArgs args;
                args.v[0] = reinterpret_cast<TmWord>(&counter);
                args.v[1] = threshold;
                args.n = 2;
                tx.WaitPred(&ThresholdPred, args);
              }
              case Mechanism::kAwait:
                tx.Await(counter);
              default:
                tx.Retry();
            }
          }
        });
      });
    }
    // All waiters must be asleep before the writer starts, or they would
    // observe an already-satisfied counter and never wait.
    while (rt.AggregateStats().Get(Counter::kSleeps) < kWaiters) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (std::uint64_t s = 0; s < steps; ++s) {
      Atomically(rt.sys(),
                 [&](Tx& tx) { tx.Store(counter, tx.Load(counter) + 1); });
    }
    for (auto& t : waiters) {
      t.join();
    }
    const double seconds = NowSec() - t0;
    TxStats st = rt.AggregateStats();
    w.BeginObject();
    w.Key("backend").String(BackendName(cfg.backend));
    w.Key("mechanism").String(MechanismName(mech));
    w.Key("steps").U64(steps);
    w.Key("sleeps").U64(st.Get(Counter::kSleeps));
    w.Key("wakeups").U64(st.Get(Counter::kWakeups));
    w.Key("wake_checks").U64(st.Get(Counter::kWakeChecks));
    w.Key("false_wakeups").U64(st.Get(Counter::kFalseWakeups));
    w.Key("waitset_entries").U64(st.Get(Counter::kWaitsetEntries));
    w.Key("seconds").Double(seconds);
    w.EndObject();
    std::printf("wakeup_precision mechanism=%-8s sleeps=%llu wakeups=%llu "
                "false_wakeups=%llu\n",
                MechanismName(mech),
                static_cast<unsigned long long>(st.Get(Counter::kSleeps)),
                static_cast<unsigned long long>(st.Get(Counter::kWakeups)),
                static_cast<unsigned long long>(st.Get(Counter::kFalseWakeups)));
  }
  w.EndArray();
}

// Waitset pruning (§2.4.2): "Await effectively prunes the set of locations
// on which a sleeping transaction waits. This, in turn, reduces overhead in
// wakeWaiters". A waiter reads K unrelated words before waiting on one flag;
// a writer then makes `commits` commits that never satisfy it, each paying
// one wake check of the published waitset — K+1 entries under Retry, one
// under Await.
void EmitWaitsetPruning(JsonWriter& w, std::uint64_t commits) {
  w.Key("waitset_pruning").BeginArray();
  for (std::uint64_t k : {std::uint64_t{0}, std::uint64_t{64},
                          std::uint64_t{512}, std::uint64_t{4096}}) {
    for (Mechanism mech : {Mechanism::kAwait, Mechanism::kRetry}) {
      TmConfig cfg;
      cfg.max_threads = 8;
      Runtime rt(cfg);
      std::vector<TVar<std::uint64_t>> table(k + 1);
      for (auto& cell : table) {
        cell.UnsafeWrite(1);
      }
      TVar<std::uint64_t> flag(0);
      TVar<std::uint64_t> unrelated(0);
      std::thread waiter([&] {
        Atomically(rt.sys(), [&](Tx& tx) {
          std::uint64_t sum = 0;
          for (std::uint64_t i = 0; i < k; ++i) {
            sum += tx.Load(table[i]);
          }
          if (tx.Load(flag) + sum == sum) {  // flag == 0: not released yet
            if (mech == Mechanism::kAwait) {
              tx.Await(flag);
            }
            tx.Retry();
          }
        });
      });
      while (rt.AggregateStats().Get(Counter::kSleeps) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      const double t0 = NowSec();
      for (std::uint64_t i = 0; i < commits; ++i) {
        Atomically(rt.sys(), [&](Tx& tx) { tx.Store(unrelated, i); });
      }
      const double seconds = NowSec() - t0;
      Atomically(rt.sys(),
                 [&](Tx& tx) { tx.Store(flag, std::uint64_t{1} << 62); });
      waiter.join();
      const std::uint64_t entries =
          rt.AggregateStats().Get(Counter::kWaitsetEntries);
      const double ns_per_commit =
          seconds * 1e9 / static_cast<double>(commits);
      w.BeginObject();
      w.Key("backend").String(BackendName(cfg.backend));
      w.Key("mechanism").String(MechanismName(mech));
      w.Key("extra_reads").U64(k);
      w.Key("commits").U64(commits);
      w.Key("waitset_entries").U64(entries);
      w.Key("writer_seconds").Double(seconds);
      w.Key("ns_per_commit").Double(ns_per_commit);
      w.EndObject();
      std::printf("waitset_pruning extra_reads=%-5llu mechanism=%-6s "
                  "waitset_entries=%llu ns/commit=%.1f\n",
                  static_cast<unsigned long long>(k), MechanismName(mech),
                  static_cast<unsigned long long>(entries), ns_per_commit);
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

// Capacity-tier sweep: one 10^4/10^5-waiter point per backend (futex parking
// + timer wheel at defaults), plus an eager-backend variant row with the
// wheel off (per-wait kernel timeouts), so the wheel's effect is visible in
// the same artifact. The CI gate (bench-smoke) asserts lost_wakeups == 0,
// bounded mem_bytes_per_waiter, and wheel_ticks < timed_waits over these rows.
void EmitWaiterScale(JsonWriter& w, const std::vector<Backend>& backends,
                     int waiters) {
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
    // Smaller than the default rows: without the wheel, timed-wait expiries
    // land scattered instead of batched at tick boundaries, so the churners'
    // commits (and their quiescence) never leave a quiet window for the rest
    // of the park phase — at 10^4 waiters the row alone costs minutes. The
    // contrast the row exists for (per-wait timeouts vs one wheel) is just as
    // visible at this size.
    opts.waiters = std::min(waiters, 2500);
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
  BenchFlags flags(argc, argv, kFlags);
  const bool quick = flags.GetBool("quick", false);
  const bool paper = flags.GetBool("paper", false);
  const std::string out = flags.GetString("out", "BENCH_wakeup.json");
  const std::string scenario = flags.GetString("scenario", "all");
  if (scenario != "all" &&
      std::find(kScenarios.begin(), kScenarios.end(), scenario) ==
          kScenarios.end()) {
    std::fprintf(stderr, "unknown scenario: %s\nvalid scenarios: all",
                 scenario.c_str());
    for (const std::string& name : kScenarios) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  auto wanted = [&](const char* name) {
    return scenario == "all" || scenario == name;
  };

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

  // --paper: Figures 2.3-2.5 (all 16 producer × consumer panels, 2^20
  // elements per trial) and 2.6-2.8 (scale 8), 5 trials each (§2.4).
  BoundedGridOptions bounded;
  bounded.ops = flags.GetU64("ops", paper ? 1 << 20 : quick ? 1 << 11 : 1 << 14);
  bounded.trials = flags.GetU64("trials", paper ? 5 : quick ? 1 : 3);
  bounded.max_side = static_cast<int>(
      flags.GetU64("max_side", paper ? 8 : quick ? 2 : 4));

  ParsecGridOptions parsec;
  parsec.scale = flags.GetU64("scale", paper ? 8 : quick ? 1 : 2);
  parsec.trials = flags.GetU64("trials", paper ? 5 : quick ? 1 : 3);
  parsec.max_threads =
      static_cast<int>(flags.GetU64("max_threads", quick && !paper ? 4 : 8));
  // All eight apps run even in --quick: the CI artifact carries per-app
  // throughput for the whole suite (scale stays test-sized).

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("tcsync");
  w.Key("schema_version").Int(1);
  w.Key("quick").Bool(quick);
  w.Key("scenarios").BeginObject();
  if (wanted("wake_index")) {
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
  if (wanted("wake_batching_verify")) {
    EmitWakeBatchingVerify(w, backends, many_commits);
  }
  if (wanted("commit_cost")) {
    EmitCommitCostVsParked(
        w, backends, flags.GetU64("cost_commits", quick ? 20000 : 100000),
        static_cast<int>(flags.GetU64("cost_trials", quick ? 3 : 5)));
  }
  if (wanted("waiter_scale")) {
    // 10^5 parked waiters per full-run point; CI (--quick) runs the 10^4
    // point.
    EmitWaiterScale(w, backends,
                    static_cast<int>(flags.GetU64(
                        "scale_waiters", quick ? 10000 : 100000)));
  }
  if (wanted("bounded")) {
    EmitBounded(w, backends, bounded);
  }
  if (wanted("parsec")) {
    EmitParsec(w, backends, parsec);
  }
  if (wanted("wake_policy")) {
    EmitWakePolicy(w, backends, quick ? 1 << 11 : 1 << 13);
  }
  if (wanted("wakeup_precision")) {
    EmitWakeupPrecision(w, quick ? 500 : 2000);
  }
  if (wanted("waitset_pruning")) {
    EmitWaitsetPruning(w, quick ? 1000 : 5000);
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
