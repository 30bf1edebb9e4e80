#ifndef CSOD_TESTS_TEST_SCOPES_H_
#define CSOD_TESTS_TEST_SCOPES_H_

// Scoped overrides of process-wide settings, shared by the tests. Each
// restores the previous value on scope exit, even when an assertion fails
// mid-test.

#include <cstddef>

#include "common/parallel.h"
#include "common/simd.h"

namespace csod {

class ScopedParallelismLimit {
 public:
  explicit ScopedParallelismLimit(size_t limit)
      : previous_(GetParallelismLimit()) {
    SetParallelismLimit(limit);
  }
  ~ScopedParallelismLimit() { SetParallelismLimit(previous_); }
  ScopedParallelismLimit(const ScopedParallelismLimit&) = delete;
  ScopedParallelismLimit& operator=(const ScopedParallelismLimit&) = delete;

 private:
  size_t previous_;
};

// A level the host lacks is clamped to simd::SupportedLevel(), so a loop
// over simd::kAllLevels runs every level the host has, and the best of them
// again in place of each one it lacks: a test that labels a failure should
// name simd::ActiveLevel(), not the level it asked for.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::SetLevelForTesting(level)) {}
  ~ScopedSimdLevel() { simd::SetLevelForTesting(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  simd::Level previous_;
};

}  // namespace csod

#endif  // CSOD_TESTS_TEST_SCOPES_H_
