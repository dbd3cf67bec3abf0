// Shared benchmark-harness utilities: flag parsing and timing statistics.
#ifndef TCS_BENCH_BENCH_UTIL_H_
#define TCS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tcs {

// Minimal --key=value flag parser over a fixed set of known keys. A bare
// --key reads as "1". Anything else — a positional argument or an unknown
// key — prints the valid flags and exits 2.
class BenchFlags {
 public:
  BenchFlags(int argc, char** argv, const std::vector<std::string>& known);

  // Returns the flag value or `def` when absent.
  std::uint64_t GetU64(const std::string& key, std::uint64_t def) const;
  bool GetBool(const std::string& key, bool def) const;
  std::string GetString(const std::string& key, const std::string& def) const;

 private:
  const std::string* Find(const std::string& key) const;

  std::vector<std::pair<std::string, std::string>> kv_;
};

struct TrialStats {
  double mean = 0.0;
  double stddev = 0.0;
};

TrialStats Summarize(const std::vector<double>& samples);

double NowSec();

}  // namespace tcs

#endif  // TCS_BENCH_BENCH_UTIL_H_
