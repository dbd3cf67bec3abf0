// The mini-PARSEC sweep behind Figures 2.6-2.8: app × thread count × mechanism,
// reporting seconds (the paper's bar heights).
#ifndef TCS_BENCH_PARSEC_GRID_H_
#define TCS_BENCH_PARSEC_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mechanism.h"
#include "src/tm/tm_config.h"

namespace tcs {

struct ParsecGridOptions {
  Backend backend = Backend::kEagerStm;
  bool include_retry_orig = true;
  std::uint64_t scale = 4;
  std::uint64_t trials = 3;
  int max_threads = 8;
};

struct ParsecGridRow {
  std::string app;
  int threads;
  Mechanism mech;
  double mean_s;
  double stddev_s;
  // Scale-normalized throughput (workload units per second): scale / mean_s,
  // comparable across runs with different --scale values.
  double throughput;
};

// Runs the sweep and returns one row per (app, threads, mechanism); aborts if
// any mechanism disagrees with the run's reference checksum.
std::vector<ParsecGridRow> CollectParsecGrid(const ParsecGridOptions& opts);

}  // namespace tcs

#endif  // TCS_BENCH_PARSEC_GRID_H_
