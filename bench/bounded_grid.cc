#include "bench/bounded_grid.h"

#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/sync/bounded_buffer.h"

namespace tcs {
namespace {

double RunTrial(Backend backend, Mechanism mech, int producers, int consumers,
                std::uint64_t buffer_size, std::uint64_t total_ops) {
  std::unique_ptr<Runtime> rt;
  if (MechanismUsesTm(mech)) {
    TmConfig cfg;
    cfg.backend = backend;
    cfg.max_threads = producers + consumers + 4;
    rt = std::make_unique<Runtime>(cfg);
  }
  BoundedBuffer buf(rt.get(), mech, buffer_size);
  buf.UnsafePrefill(buffer_size / 2, 1'000'000);

  std::uint64_t per_producer = total_ops / static_cast<std::uint64_t>(producers);
  std::uint64_t produced = per_producer * static_cast<std::uint64_t>(producers);
  std::uint64_t per_consumer = produced / static_cast<std::uint64_t>(consumers);
  std::uint64_t consumed = per_consumer * static_cast<std::uint64_t>(consumers);
  // Keep the buffer population balanced across the trial: consume exactly what
  // gets produced, leaving the prefill in place.
  std::uint64_t leftover = produced - consumed;

  double t0 = NowSec();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        buf.Produce(static_cast<std::uint64_t>(p) * per_producer + i);
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < per_consumer; ++i) {
        buf.Consume();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Drain the division remainder so every trial moves the same element count.
  for (std::uint64_t i = 0; i < leftover; ++i) {
    buf.Consume();
  }
  return NowSec() - t0;
}

}  // namespace

std::vector<BoundedGridRow> CollectBoundedGrid(const BoundedGridOptions& opts) {
  std::vector<BoundedGridRow> rows;
  for (int p : {1, 2, 4, 8}) {
    for (int c : {1, 2, 4, 8}) {
      if (p > opts.max_side || c > opts.max_side) {
        continue;
      }
      for (std::uint64_t buf : {std::uint64_t{4}, std::uint64_t{16},
                                std::uint64_t{128}}) {
        for (Mechanism m : kAllMechanisms) {
          if (m == Mechanism::kRetryOrig && !opts.include_retry_orig) {
            continue;
          }
          std::vector<double> samples;
          for (std::uint64_t t = 0; t < opts.trials; ++t) {
            samples.push_back(RunTrial(opts.backend, m, p, c, buf, opts.ops));
          }
          TrialStats s = Summarize(samples);
          rows.push_back({p, c, buf, m, s.mean, s.stddev});
        }
      }
    }
  }
  return rows;
}

}  // namespace tcs
