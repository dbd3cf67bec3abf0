// The bounded-buffer micro-benchmark grid behind Figures 2.3-2.5: producers ×
// consumers × buffer size × mechanism, reporting seconds per trial exactly as the
// paper's panels plot them.
#ifndef TCS_BENCH_BOUNDED_GRID_H_
#define TCS_BENCH_BOUNDED_GRID_H_

#include <cstdint>
#include <vector>

#include "src/core/mechanism.h"
#include "src/tm/tm_config.h"

namespace tcs {

struct BoundedGridOptions {
  Backend backend = Backend::kEagerStm;
  // Figures 2.3/2.4 include Retry-Orig; Figure 2.5 (HTM) cannot (§2.1).
  bool include_retry_orig = true;
  // Total elements produced (and consumed) per trial. The paper uses 2^20
  // (bench_main --paper); the default here is scaled down for container-class
  // hardware. The buffer is half-filled before each trial (§2.4.1).
  std::uint64_t ops = 1 << 14;
  std::uint64_t trials = 3;
  // Keep oversubscribed panels bounded on tiny machines: skip producer/consumer
  // counts above this (bench_main --max_side).
  int max_side = 8;
};

// One measured grid point; bench_main serializes these as JSON rows.
struct BoundedGridRow {
  int producers;
  int consumers;
  std::uint64_t buffer_size;
  Mechanism mech;
  double mean_s;
  double stddev_s;
};

// Runs the full grid and returns one row per (panel, buffer size, mechanism).
std::vector<BoundedGridRow> CollectBoundedGrid(const BoundedGridOptions& opts);

}  // namespace tcs

#endif  // TCS_BENCH_BOUNDED_GRID_H_
