#include "cs/bomp.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "cs/measurement_matrix.h"
#include "cs/solver.h"
#include "la/vector_ops.h"

namespace csod::cs {
namespace {

// Biased s-sparse vector: mode b everywhere except `outliers` positions.
std::vector<double> BiasedSparse(size_t n, double b,
                                 const std::vector<size_t>& positions,
                                 const std::vector<double>& values) {
  std::vector<double> x(n, b);
  for (size_t i = 0; i < positions.size(); ++i) x[positions[i]] = values[i];
  return x;
}

TEST(BompTest, RejectsZeroIterations) {
  MeasurementMatrix matrix(8, 16, 1);
  std::vector<double> y(8, 1.0);
  BompOptions options;
  EXPECT_FALSE(RunBomp(matrix, y, options).ok());
  EXPECT_FALSE(RecoverWithKnownMode(matrix, y, 0.0, options).ok());
}

TEST(BompTest, DefaultIterationsMatchesPaperRange) {
  // R = f(k) in [2k, 5k] (Section 5), floored for tiny k.
  for (size_t k : {5u, 10u, 20u, 100u}) {
    const size_t r = DefaultIterationsForK(k);
    EXPECT_GE(r, 2 * k) << "k=" << k;
    EXPECT_LE(r, 5 * k) << "k=" << k;
  }
  EXPECT_GE(DefaultIterationsForK(1), 8u);
}

// 7k + 1 wraps size_t for k > (2^64 - 2) / 7: k = 2635249153387078803 once
// got the budget 8. The budget saturates instead, and never falls as k
// grows.
TEST(BompTest, DefaultIterationsSaturatesInsteadOfWrapping) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  const size_t last = (kMax - 1) / 7;
  EXPECT_EQ(DefaultIterationsForK(last), (7 * last + 1) / 2);
  EXPECT_EQ(DefaultIterationsForK(last + 1), kMax);
  EXPECT_EQ(DefaultIterationsForK(size_t{2635249153387078803}), kMax);
  EXPECT_EQ(DefaultIterationsForK(kMax), kMax);
  EXPECT_EQ(IterationBudget(0, kMax), kMax);
}

TEST(BompTest, RecoversBiasAndOutliersExactly) {
  const size_t n = 256;
  const double b = 5000.0;  // The paper's synthetic mode.
  const std::vector<size_t> positions = {10, 100, 200};
  const std::vector<double> values = {9000.0, -2000.0, 12000.0};
  std::vector<double> x = BiasedSparse(n, b, positions, values);

  MeasurementMatrix matrix(96, n, 5);
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BompOptions options;
  options.max_iterations = 10;
  auto result = RunBomp(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  const BompResult& r = result.Value();

  EXPECT_TRUE(r.bias_selected);
  EXPECT_NEAR(r.mode, b, 1e-5);

  std::set<size_t> planted(positions.begin(), positions.end());
  std::set<size_t> recovered;
  for (const auto& e : r.entries) recovered.insert(e.index);
  // All planted outliers recovered (the recovery may carry a few
  // negligible extra entries from later iterations).
  for (size_t p : planted) EXPECT_TRUE(recovered.count(p)) << "missing " << p;
  for (const auto& e : r.entries) {
    EXPECT_NEAR(e.value, x[e.index], 1e-4) << "index " << e.index;
  }
}

TEST(BompTest, MaterializeReconstructsVector) {
  const size_t n = 128;
  const double b = 1800.0;  // Figure 1(a)'s mode.
  std::vector<double> x = BiasedSparse(n, b, {5, 60}, {40000.0, -35000.0});

  MeasurementMatrix matrix(64, n, 9);
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BompOptions options;
  options.max_iterations = 8;
  auto result = RunBomp(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  std::vector<double> reconstructed = result.Value().Materialize(n);
  ASSERT_EQ(reconstructed.size(), n);
  EXPECT_LT(la::DistanceL2(reconstructed, x) / la::Norm2(x), 1e-6);
}

TEST(BompTest, ZeroModeDataStillRecovered) {
  // Sparse-at-zero data: BOMP degenerates gracefully (bias coefficient ~0
  // or unselected) and still finds the components.
  const size_t n = 200;
  std::vector<double> x(n, 0.0);
  x[7] = 300.0;
  x[120] = -500.0;

  MeasurementMatrix matrix(48, n, 13);
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BompOptions options;
  options.max_iterations = 8;
  auto result = RunBomp(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.Value().mode, 0.0, 1.0);
  std::vector<double> reconstructed = result.Value().Materialize(n);
  EXPECT_LT(la::DistanceL2(reconstructed, x) / la::Norm2(x), 1e-3);
}

TEST(BompTest, ModeTraceStabilizesAfterSparsityIterations) {
  // Figure 4(b): the bias estimate stabilizes once the s outliers are
  // picked up (iteration s + 1).
  const size_t n = 400;
  const size_t s = 8;
  const double b = 5000.0;
  Rng rng(3);
  std::vector<double> x(n, b);
  std::set<size_t> planted;
  while (planted.size() < s) planted.insert(rng.NextBounded(n));
  for (size_t p : planted) {
    x[p] = b + (rng.NextDouble() + 0.5) * 8000.0 *
                   ((rng.NextU64() & 1) ? 1.0 : -1.0);
  }

  MeasurementMatrix matrix(160, n, 21);
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BompOptions options;
  options.max_iterations = 2 * s + 4;
  options.record_mode_trace = true;
  auto result = RunBomp(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  const auto& trace = result.Value().mode_trace;
  ASSERT_GE(trace.size(), s + 1);
  // After iteration s+1 the estimate must sit at b.
  for (size_t i = s; i < trace.size(); ++i) {
    EXPECT_NEAR(trace[i], b, 1.0) << "iteration " << i + 1;
  }
}

TEST(BompTest, KnownModeMatchesBompOnBiasedData) {
  // Figure 4(a)'s comparison: OMP with the mode known in advance should
  // recover the same outliers BOMP finds without knowing it.
  const size_t n = 256;
  const double b = 5000.0;
  const std::vector<size_t> positions = {3, 77, 199, 240};
  const std::vector<double> values = {15000.0, -3000.0, 9999.0, 1.0};
  std::vector<double> x = BiasedSparse(n, b, positions, values);

  MeasurementMatrix matrix(128, n, 33);
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BompOptions options;
  options.max_iterations = 12;

  auto bomp = RunBomp(matrix, y.Value(), options);
  auto known = RecoverWithKnownMode(matrix, y.Value(), b, options);
  ASSERT_TRUE(bomp.ok());
  ASSERT_TRUE(known.ok());
  EXPECT_NEAR(known.Value().mode, b, 0.0);
  EXPECT_FALSE(known.Value().bias_selected);

  std::vector<double> xa = bomp.Value().Materialize(n);
  std::vector<double> xb = known.Value().Materialize(n);
  EXPECT_LT(la::DistanceL2(xa, x) / la::Norm2(x), 1e-5);
  EXPECT_LT(la::DistanceL2(xb, x) / la::Norm2(x), 1e-5);
}

TEST(BompTest, EntriesBoundedByIterations) {
  // Section 3.2: the recovered x has at most R - 1 non-mode components.
  const size_t n = 300;
  Rng rng(8);
  std::vector<double> x(n, 100.0);
  for (int i = 0; i < 50; ++i) x[rng.NextBounded(n)] += rng.NextGaussian() * 500.0;

  MeasurementMatrix matrix(80, n, 44);
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BompOptions options;
  options.max_iterations = 6;
  auto result = RunBomp(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.Value().entries.size(), options.max_iterations - 1);
}

// A budget of R atoms takes at most ⌈R/2⌉ + 1 Φ0 sweeps (two atoms per
// pass, the bias atom alone), and bomp.passes records the count beside
// bomp.iterations.
TEST(BompTest, PassesStayWithinHalfTheBudgetPlusOne) {
  const size_t n = 300;
  MeasurementMatrix matrix(80, n, 44);
  for (const size_t budget : {size_t{5}, size_t{8}, size_t{13}, size_t{20}}) {
    Rng rng(budget);
    std::vector<double> x(n, 100.0);
    for (int i = 0; i < 50; ++i) {
      x[rng.NextBounded(n)] += rng.NextGaussian() * 500.0;
    }
    obs::Telemetry telemetry;
    BompOptions options;
    options.max_iterations = budget;
    options.stop_on_residual_stagnation = false;
    options.telemetry = &telemetry;
    const BompResult result =
        RunBomp(matrix, matrix.Multiply(x).MoveValue(), options).MoveValue();
    EXPECT_EQ(result.iterations, budget);  // 50 outliers: never converges.
    EXPECT_TRUE(result.bias_selected);
    EXPECT_LE(result.passes, (budget + 1) / 2 + 1) << "R = " << budget;
    EXPECT_GE(result.passes, (budget + 1) / 2) << "R = " << budget;
    EXPECT_EQ(telemetry.value("bomp.passes").sum,
              static_cast<double>(result.passes));
    EXPECT_EQ(telemetry.value("bomp.iterations").sum,
              static_cast<double>(result.iterations));
  }
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// RecoverBiased, the entry point every caller shares, is RunBomp bit for
// bit.
TEST(SolverTest, OmpDispatchMatchesRunBompBitwise) {
  const size_t n = 300;
  std::vector<double> x(n, 1500.0);
  x[7] = 21000.0;
  x[250] = -4000.0;
  MeasurementMatrix matrix(110, n, 41);
  auto y = matrix.Multiply(x).MoveValue();

  SolverOptions solve;
  solve.iterations = 10;
  auto via_solver = RecoverBiased(matrix, y, solve).MoveValue();

  BompOptions bomp;
  bomp.max_iterations = 10;
  auto direct = RunBomp(matrix, y, bomp).MoveValue();

  EXPECT_EQ(Bits(via_solver.mode), Bits(direct.mode));
  ASSERT_EQ(via_solver.entries.size(), direct.entries.size());
  for (size_t i = 0; i < direct.entries.size(); ++i) {
    EXPECT_EQ(via_solver.entries[i].index, direct.entries[i].index);
    EXPECT_EQ(Bits(via_solver.entries[i].value),
              Bits(direct.entries[i].value));
  }
}

// Property sweep: exact recovery across (n, s, b) combinations with
// generous M.
class BompRecoveryTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double>> {};

TEST_P(BompRecoveryTest, ExactRecovery) {
  const auto [n, s, b] = GetParam();
  const size_t m = std::min<size_t>(
      n,
      static_cast<size_t>(4.0 * (s + 1) * std::log(static_cast<double>(n))) +
          16);
  MeasurementMatrix matrix(m, n, 1234 + n + s);
  Rng rng(n * 7 + s);
  std::vector<double> x(n, b);
  std::set<size_t> planted;
  while (planted.size() < s) planted.insert(rng.NextBounded(n));
  for (size_t p : planted) {
    x[p] = b + (rng.NextDouble() + 0.2) * 10000.0 *
                   ((rng.NextU64() & 1) ? 1.0 : -1.0);
  }
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BompOptions options;
  options.max_iterations = s + 3;
  auto result = RunBomp(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.Value().mode, b, std::fabs(b) * 1e-6 + 1e-3);
  std::vector<double> reconstructed = result.Value().Materialize(n);
  EXPECT_LT(la::DistanceL2(reconstructed, x) / la::Norm2(x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BompRecoveryTest,
    ::testing::Values(std::make_tuple(128, 4, 5000.0),
                      std::make_tuple(256, 8, 5000.0),
                      std::make_tuple(256, 8, -250.0),
                      std::make_tuple(512, 16, 1800.0),
                      std::make_tuple(1000, 25, 7.5),
                      std::make_tuple(400, 12, 100000.0)));

}  // namespace
}  // namespace csod::cs
