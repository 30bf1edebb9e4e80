#ifndef CSOD_BENCH_BENCH_UTIL_H_
#define CSOD_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction harnesses. Each harness is a
// standalone binary that prints the series of one paper figure; all accept
//   --quick        smaller sweep (default when no flags are given is the
//                  calibrated default below, already laptop-sized)
//   --trials=T     number of random measurement matrices per point
//   --n=N ...      full paper-scale overrides (see each binary's --help).

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/simd.h"

namespace csod::bench {

/// Prints a table header row: name column + one column per M value.
inline void PrintHeader(const std::string& label,
                        const std::vector<int64_t>& columns) {
  std::printf("%-24s", label.c_str());
  for (int64_t c : columns) std::printf(" %8lld", static_cast<long long>(c));
  std::printf("\n");
}

/// Prints a data row of percentages.
inline void PrintPercentRow(const std::string& label,
                            const std::vector<double>& values) {
  std::printf("%-24s", label.c_str());
  for (double v : values) std::printf(" %7.1f%%", 100.0 * v);
  std::printf("\n");
}

/// Prints a data row of raw doubles.
inline void PrintDoubleRow(const std::string& label,
                           const std::vector<double>& values,
                           const char* fmt = " %8.2f") {
  std::printf("%-24s", label.c_str());
  for (double v : values) std::printf(fmt, v);
  std::printf("\n");
}

/// Standard banner naming the figure being reproduced.
inline void Banner(const char* figure, const char* description) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==============================================================="
              "=\n");
}

/// FNV-1a over raw bytes: the benches' deterministic output digest.
class Fnv1a {
 public:
  void Add(const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void AddU64(uint64_t v) { Add(&v, sizeof(v)); }
  void AddDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AddU64(bits);
  }
  void AddString(const std::string& s) { Add(s.data(), s.size()); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// "0x%016x" rendering of a digest, as every BENCH file prints it.
inline std::string HexDigest(uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, digest);
  return buf;
}

/// The CPUs this process may run on, counted the way `nproc` does.
inline size_t AvailableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Picks a gate threshold by core-count tier: >= 8 cores, 2-7 cores, 1 core.
inline double ByCoreTier(double eight_or_more, double two_to_seven,
                         double one) {
  const size_t cores = AvailableCores();
  return cores >= 8 ? eight_or_more : cores >= 2 ? two_to_seven : one;
}

/// The `"host"` object every BENCH JSON carries: cores, build type (the
/// CSOD_BENCH_BUILD_TYPE definition from bench/CMakeLists.txt), ISA.
inline std::string HostJson() {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %zu, \"build_type\": \"%s\", \"simd\": \"%s\"}",
                AvailableCores(), CSOD_BENCH_BUILD_TYPE,
                simd::LevelName(simd::ActiveLevel()));
  return buf;
}

/// Pass/fail gates on a bench's own numbers. Each check prints one
/// `gate <name>: pass|FAIL (<value> vs <threshold>)` line; main() returns
/// exit_code(), which is 1 if any gate failed.
class Gates {
 public:
  void AtLeast(const char* name, double value, double min) {
    Report(name, value >= min, Number(value), Number(min));
  }
  void AtMost(const char* name, double value, double max) {
    Report(name, value <= max, Number(value), Number(max));
  }
  void Below(const char* name, double value, double bound) {
    Report(name, value < bound, Number(value), Number(bound));
  }
  void Equal(const char* name, uint64_t value, uint64_t expected) {
    Report(name, value == expected, std::to_string(value),
           std::to_string(expected));
  }
  void Holds(const char* name, bool held) {
    Report(name, held, held ? "true" : "false", "true");
  }
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  static std::string Number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), std::abs(v) >= 1e5 ? "%.0f" : "%.6g", v);
    return buf;
  }
  void Report(const char* name, bool pass, const std::string& value,
              const std::string& threshold) {
    std::printf("gate %s: %s (%s vs %s)\n", name, pass ? "pass" : "FAIL",
                value.c_str(), threshold.c_str());
    failed_ = failed_ || !pass;
  }

  bool failed_ = false;
};

}  // namespace csod::bench

#endif  // CSOD_BENCH_BENCH_UTIL_H_
