#include "cs/basis_pursuit.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/random.h"
#include "cs/measurement_matrix.h"
#include "la/vector_ops.h"
#include "obs/telemetry.h"

namespace csod::cs {
namespace {

TEST(BasisPursuitTest, RejectsWrongMeasurementSize) {
  MeasurementMatrix matrix(8, 16, 1);
  BasisPursuitOptions options;
  EXPECT_FALSE(RunBasisPursuit(matrix, {1, 2, 3}, options).ok());
}

TEST(BasisPursuitTest, ZeroMeasurementGivesZero) {
  MeasurementMatrix matrix(8, 16, 1);
  BasisPursuitOptions options;
  auto result = RunBasisPursuit(matrix, std::vector<double>(8, 0.0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(la::Norm2(result.Value().x), 0.0, 1e-9);
}

TEST(BasisPursuitTest, RecoversSparseSupport) {
  const size_t n = 128;
  MeasurementMatrix matrix(64, n, 17);
  std::vector<double> x(n, 0.0);
  x[5] = 10.0;
  x[50] = -8.0;
  x[100] = 12.0;
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BasisPursuitOptions options;
  options.max_iterations = 2000;
  auto result = RunBasisPursuit(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  const std::vector<double>& xhat = result.Value().x;

  // The three largest recovered magnitudes must be the planted support.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + 3, order.end(),
                    [&](size_t a, size_t b) {
                      return std::fabs(xhat[a]) > std::fabs(xhat[b]);
                    });
  std::set<size_t> top(order.begin(), order.begin() + 3);
  EXPECT_TRUE(top.count(5));
  EXPECT_TRUE(top.count(50));
  EXPECT_TRUE(top.count(100));

  // Values approximately right (soft-thresholding bias allowed).
  EXPECT_NEAR(xhat[5], 10.0, 1.0);
  EXPECT_NEAR(xhat[50], -8.0, 1.0);
  EXPECT_NEAR(xhat[100], 12.0, 1.0);
}

TEST(BasisPursuitTest, SmallerLambdaFitsTighter) {
  const size_t n = 64;
  MeasurementMatrix matrix(32, n, 23);
  std::vector<double> x(n, 0.0);
  x[10] = 5.0;
  x[20] = -3.0;
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BasisPursuitOptions loose;
  loose.lambda = 0.5;
  loose.max_iterations = 1500;
  BasisPursuitOptions tight;
  tight.lambda = 0.001;
  tight.max_iterations = 1500;

  auto r_loose = RunBasisPursuit(matrix, y.Value(), loose);
  auto r_tight = RunBasisPursuit(matrix, y.Value(), tight);
  ASSERT_TRUE(r_loose.ok());
  ASSERT_TRUE(r_tight.ok());
  EXPECT_LT(r_tight.Value().final_residual_norm,
            r_loose.Value().final_residual_norm);
}

TEST(BiasedBasisPursuitTest, RecoversUnknownModeData) {
  // The L1 counterpart to BOMP: bias coefficient unpenalized.
  const size_t n = 200;
  const double b = 500.0;
  std::vector<double> x(n, b);
  x[20] = 1400.0;
  x[150] = -700.0;

  MeasurementMatrix matrix(80, n, 31);
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  BasisPursuitOptions options;
  options.max_iterations = 3000;
  options.lambda = 1.0;
  auto result = RunBiasedBasisPursuit(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.Value().mode, b, 25.0);

  // The two strongest recovered entries must be the planted outliers.
  std::vector<cs::RecoveredEntry> entries = result.Value().entries;
  std::sort(entries.begin(), entries.end(),
            [&](const cs::RecoveredEntry& a, const cs::RecoveredEntry& c) {
              return std::fabs(a.value - result.Value().mode) >
                     std::fabs(c.value - result.Value().mode);
            });
  ASSERT_GE(entries.size(), 2u);
  std::set<size_t> top = {entries[0].index, entries[1].index};
  EXPECT_TRUE(top.count(20));
  EXPECT_TRUE(top.count(150));
}

TEST(BiasedBasisPursuitTest, UnpenalizedAtomOutOfRangeRejected) {
  MeasurementMatrix matrix(8, 16, 1);
  MatrixDictionary dict(&matrix);
  BasisPursuitOptions options;
  options.unpenalized_atoms = {99};
  std::vector<double> y(8, 1.0);
  EXPECT_FALSE(RunBasisPursuit(dict, y, options).ok());
}

TEST(BasisPursuitTest, TelemetryTransparentAndRecords) {
  // FISTA telemetry parity (ISSUE 8 satellite): a live sink observes the
  // solve — fista.recover span, fista.runs counter, iteration/residual
  // histograms — without changing a single output bit.
  const size_t n = 128;
  MeasurementMatrix matrix(64, n, 41);
  std::vector<double> x(n, 0.0);
  x[7] = 9.0;
  x[90] = -6.0;
  auto y = matrix.Multiply(x).MoveValue();

  BasisPursuitOptions live_options;
  live_options.max_iterations = 400;
  obs::Telemetry telemetry;
  live_options.telemetry = &telemetry;
  auto live = RunBasisPursuit(matrix, y, live_options).MoveValue();

  BasisPursuitOptions plain_options;
  plain_options.max_iterations = 400;
  plain_options.telemetry = obs::Telemetry::Disabled();
  auto plain = RunBasisPursuit(matrix, y, plain_options).MoveValue();

  ASSERT_EQ(live.x.size(), plain.x.size());
  for (size_t i = 0; i < live.x.size(); ++i) {
    uint64_t live_bits, plain_bits;
    std::memcpy(&live_bits, &live.x[i], sizeof(live_bits));
    std::memcpy(&plain_bits, &plain.x[i], sizeof(plain_bits));
    EXPECT_EQ(live_bits, plain_bits) << "x[" << i << "]";
  }
  EXPECT_EQ(live.iterations, plain.iterations);

  // Same instrument names as BOMP: <solver>.recover span, <solver>.runs
  // counter, iteration and residual value series.
  const std::string snapshot = telemetry.SnapshotJson();
  EXPECT_NE(snapshot.find("fista.recover"), std::string::npos);
  EXPECT_NE(snapshot.find("fista.runs"), std::string::npos);
  EXPECT_NE(snapshot.find("fista.iterations"), std::string::npos);
  EXPECT_NE(snapshot.find("fista.final_residual_norm"), std::string::npos);

  // The disabled singleton records nothing at all.
  EXPECT_EQ(obs::Telemetry::Disabled()->SnapshotJson(),
            obs::Telemetry().SnapshotJson());
}

TEST(BasisPursuitTest, ReportsIterations) {
  MeasurementMatrix matrix(16, 32, 3);
  std::vector<double> x(32, 0.0);
  x[4] = 1.0;
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());
  BasisPursuitOptions options;
  options.max_iterations = 50;
  auto result = RunBasisPursuit(matrix, y.Value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.Value().iterations, 1u);
  EXPECT_LE(result.Value().iterations, 50u);
}

}  // namespace
}  // namespace csod::cs
