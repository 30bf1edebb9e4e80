// Cross-solver differential test (ISSUE 8 satellite): AMP and BOMP answer
// the same 20 seeded biased-recovery workloads and must agree within the
// tolerances each engine documents.
//
// Documented tolerances (the per-engine contracts under test):
//  - BOMP : EK == 0 and EV < 1e-6 relative once M is comfortably past the
//           sparsity (same contract differential_test.cc pins for the CS
//           protocol).
//  - AMP  : identical EK/EV contract in the same regime — the debias pass
//           re-solves least squares on the detected support, so once the
//           support is located the values match BOMP's least-squares
//           values to floating-point accuracy, NOT bit-for-bit (different
//           iteration path). Mode agreement within 1e-6 relative.
//
// The engines are intentionally compared through the common BompResult
// currency + KOutliersFromRecovery, i.e. exactly the path the Detector's
// `solver` option switches.

#include <cmath>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cs/amp.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "cs/solver.h"
#include "outlier/metrics.h"
#include "outlier/outlier.h"

namespace csod::cs {
namespace {

constexpr size_t kN = 400;
constexpr size_t kSparsity = 10;
constexpr size_t kK = 5;
constexpr size_t kM = 160;
constexpr double kMode = 5000.0;

struct Workload {
  std::vector<double> global;
  outlier::OutlierSet truth;
};

// Majority-dominated data with a well-separated same-sign divergence
// ladder — the regime where every engine carries an exactness contract.
Workload MakeWorkload(uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 13);
  Workload w;
  w.global.assign(kN, kMode);
  std::uniform_int_distribution<size_t> pick_key(0, kN - 1);
  std::uniform_real_distribution<double> jitter(0.0, 500.0);
  size_t planted = 0;
  while (planted < kSparsity) {
    const size_t key = pick_key(rng);
    if (w.global[key] != kMode) continue;
    w.global[key] = kMode + 3000.0 * static_cast<double>(planted + 1) +
                    jitter(rng);
    ++planted;
  }
  w.truth = outlier::ExactKOutliers(w.global, kK);
  return w;
}

TEST(SolverDifferentialTest, AmpAgreesWithBompAcrossTwentySeededWorkloads) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Workload w = MakeWorkload(seed);
    MeasurementMatrix matrix(kM, kN, 100 + seed);
    auto y = matrix.Multiply(w.global).MoveValue();

    BompOptions bomp_options;
    bomp_options.max_iterations = kSparsity + 4;
    auto bomp = RunBomp(matrix, y, bomp_options).MoveValue();
    const outlier::OutlierSet bomp_topk =
        outlier::KOutliersFromRecovery(bomp, kK);

    auto amp = RunBiasedAmp(matrix, y, AmpOptions{}).MoveValue();
    const outlier::OutlierSet amp_topk =
        outlier::KOutliersFromRecovery(amp, kK);

    // Both engines nail the exact top-k keys...
    EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(w.truth, bomp_topk), 0.0);
    EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(w.truth, amp_topk), 0.0);
    // ...and their values to the documented relative tolerance.
    EXPECT_LT(outlier::ErrorOnValue(w.truth, bomp_topk), 1e-6);
    EXPECT_LT(outlier::ErrorOnValue(w.truth, amp_topk), 1e-6);
    // Cross-engine mode agreement (relative to the mode's scale).
    EXPECT_NEAR(amp.mode, bomp.mode, 1e-6 * kMode);

    // Same selection, key by key, after divergence ranking.
    ASSERT_EQ(amp_topk.outliers.size(), bomp_topk.outliers.size());
    for (size_t i = 0; i < amp_topk.outliers.size(); ++i) {
      EXPECT_EQ(amp_topk.outliers[i].key_index,
                bomp_topk.outliers[i].key_index);
      // Engine-to-engine value agreement: both are least-squares solves on
      // the same located support, so they differ only in conditioning.
      EXPECT_NEAR(amp_topk.outliers[i].value, bomp_topk.outliers[i].value,
                  1e-5 * std::fabs(bomp_topk.outliers[i].value));
    }
  }
}

TEST(SolverDifferentialTest, UnifiedBudgetMapsToEveryEngine) {
  const Workload w = MakeWorkload(3);
  MeasurementMatrix matrix(kM, kN, 77);
  auto y = matrix.Multiply(w.global).MoveValue();

  for (RecoverySolver solver :
       {RecoverySolver::kOmp, RecoverySolver::kCosamp, RecoverySolver::kAmp}) {
    SCOPED_TRACE(SolverName(solver));
    SolverOptions solve;
    solve.solver = solver;
    solve.iterations = kSparsity + 4;  // One R, three engines.
    auto result = RecoverBiased(matrix, y, solve);
    ASSERT_TRUE(result.ok());
    const outlier::OutlierSet topk =
        outlier::KOutliersFromRecovery(result.Value(), kK);
    EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(w.truth, topk), 0.0);
  }
}

}  // namespace
}  // namespace csod::cs
