#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tcs {

BenchFlags::BenchFlags(int argc, char** argv,
                       const std::vector<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string key;
    std::string value = "1";
    if (std::strncmp(arg, "--", 2) == 0) {
      const char* eq = std::strchr(arg, '=');
      key = eq == nullptr ? std::string(arg + 2) : std::string(arg + 2, eq);
      if (eq != nullptr) {
        value = eq + 1;
      }
    }
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown argument: %s\nvalid flags:", arg);
      for (const std::string& k : known) {
        std::fprintf(stderr, " --%s", k.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    kv_.emplace_back(std::move(key), std::move(value));
  }
}

const std::string* BenchFlags::Find(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::uint64_t BenchFlags::GetU64(const std::string& key, std::uint64_t def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : std::strtoull(v->c_str(), nullptr, 10);
}

bool BenchFlags::GetBool(const std::string& key, bool def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : (*v != "0" && *v != "false");
}

std::string BenchFlags::GetString(const std::string& key,
                                  const std::string& def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : *v;
}

TrialStats Summarize(const std::vector<double>& samples) {
  TrialStats s;
  if (samples.empty()) {
    return s;
  }
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (double v : samples) {
    var += (v - s.mean) * (v - s.mean);
  }
  s.stddev = samples.size() > 1
                 ? std::sqrt(var / static_cast<double>(samples.size() - 1))
                 : 0.0;
  return s;
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace tcs
