#include "la/incremental_qr.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "la/vector_ops.h"

namespace csod::la {
namespace {

std::vector<double> RandomVector(size_t m, Rng* rng) {
  std::vector<double> v(m);
  for (double& e : v) e = rng->NextGaussian();
  return v;
}

TEST(IncrementalQrTest, AppendRejectsWrongSize) {
  IncrementalQr qr(4);
  EXPECT_FALSE(qr.AppendColumn({1, 2, 3}).ok());
}

TEST(IncrementalQrTest, SingleColumnNormalized) {
  IncrementalQr qr(3);
  auto r = qr.AppendColumn({3, 0, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.Value(), 5.0);
  EXPECT_NEAR(Norm2(qr.q(0)), 1.0, 1e-14);
}

TEST(IncrementalQrTest, DependentColumnRejected) {
  IncrementalQr qr(3);
  ASSERT_TRUE(qr.AppendColumn({1, 0, 0}).ok());
  ASSERT_TRUE(qr.AppendColumn({0, 1, 0}).ok());
  // In the span of the first two.
  auto r = qr.AppendColumn({2, 3, 0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.Value(), 0.0);
  EXPECT_EQ(qr.size(), 2u);  // Not appended.
}

TEST(IncrementalQrTest, ProjectionOfSpannedVectorIsIdentity) {
  IncrementalQr qr(3);
  ASSERT_TRUE(qr.AppendColumn({1, 1, 0}).ok());
  ASSERT_TRUE(qr.AppendColumn({0, 1, 1}).ok());
  const std::vector<double> y = {2, 3, 1};  // = 2*(1,1,0) + 1*(0,1,1)
  auto proj = qr.Project(y);
  ASSERT_TRUE(proj.ok());
  EXPECT_NEAR(DistanceL2(proj.Value(), y), 0.0, 1e-12);
}

TEST(IncrementalQrTest, ProjectionOrthogonalComplement) {
  IncrementalQr qr(3);
  ASSERT_TRUE(qr.AppendColumn({1, 0, 0}).ok());
  auto proj = qr.Project({0, 5, 0});
  ASSERT_TRUE(proj.ok());
  EXPECT_NEAR(Norm2(proj.Value()), 0.0, 1e-14);
}

// RunOmp keeps its projection across appends and adds one term per atom;
// that sum must be Project(y) bit for bit after every append.
TEST(IncrementalQrTest, RunningProjectionEqualsProjectBitwise) {
  for (size_t m : {size_t{256}, size_t{600}}) {
    Rng rng(m);
    const std::vector<double> y = RandomVector(m, &rng);
    IncrementalQr qr(m);
    std::vector<double> running(m, 0.0);
    for (size_t k = 1; k <= 40; ++k) {
      auto norm = qr.AppendColumn(RandomVector(m, &rng));
      ASSERT_TRUE(norm.ok());
      ASSERT_GT(norm.Value(), 0.0);
      const std::vector<double>& q_new = qr.q(qr.size() - 1);
      Axpy(Dot(q_new, y), q_new, &running);
      auto proj = qr.Project(y);
      ASSERT_TRUE(proj.ok());
      for (size_t i = 0; i < m; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(running[i]),
                  std::bit_cast<uint64_t>(proj.Value()[i]))
            << "m=" << m << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(IncrementalQrTest, LeastSquaresExactSolve) {
  // Overdetermined consistent system: y = 2*a1 - 3*a2.
  IncrementalQr qr(4);
  const std::vector<double> a1 = {1, 2, 0, 1};
  const std::vector<double> a2 = {0, 1, 1, -1};
  ASSERT_TRUE(qr.AppendColumn(a1).ok());
  ASSERT_TRUE(qr.AppendColumn(a2).ok());
  std::vector<double> y(4);
  for (size_t i = 0; i < 4; ++i) y[i] = 2 * a1[i] - 3 * a2[i];
  auto z = qr.SolveLeastSquares(y);
  ASSERT_TRUE(z.ok());
  ASSERT_EQ(z.Value().size(), 2u);
  EXPECT_NEAR(z.Value()[0], 2.0, 1e-12);
  EXPECT_NEAR(z.Value()[1], -3.0, 1e-12);
}

TEST(IncrementalQrTest, LeastSquaresMinimizesResidual) {
  // Inconsistent system: the LS residual must be orthogonal to the span.
  IncrementalQr qr(3);
  const std::vector<double> a1 = {1, 0, 0};
  const std::vector<double> a2 = {1, 1, 0};
  ASSERT_TRUE(qr.AppendColumn(a1).ok());
  ASSERT_TRUE(qr.AppendColumn(a2).ok());
  const std::vector<double> y = {1, 2, 3};
  auto z = qr.SolveLeastSquares(y);
  ASSERT_TRUE(z.ok());
  std::vector<double> fitted(3, 0.0);
  Axpy(z.Value()[0], a1, &fitted);
  Axpy(z.Value()[1], a2, &fitted);
  const std::vector<double> residual = Subtract(y, fitted);
  EXPECT_NEAR(Dot(residual, a1), 0.0, 1e-12);
  EXPECT_NEAR(Dot(residual, a2), 0.0, 1e-12);
}

// Property sweep: orthonormality of Q and reconstruction A = Q R across
// shapes (m, r).
class QrShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(QrShapeTest, OrthonormalityAndReconstruction) {
  const auto [m, r] = GetParam();
  Rng rng(1000 + m * 31 + r);
  IncrementalQr qr(m);
  std::vector<std::vector<double>> columns;
  for (size_t j = 0; j < r; ++j) {
    columns.push_back(RandomVector(m, &rng));
    auto res = qr.AppendColumn(columns.back());
    ASSERT_TRUE(res.ok());
    ASSERT_GT(res.Value(), 0.0);
  }
  ASSERT_EQ(qr.size(), r);

  // Q columns are orthonormal.
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      const double expected = (i == j) ? 1.0 : 0.0;
      EXPECT_NEAR(Dot(qr.q(i), qr.q(j)), expected, 1e-10)
          << "i=" << i << " j=" << j;
    }
  }

  // A = Q R: original column j equals sum_i R(i,j) q_i.
  for (size_t j = 0; j < r; ++j) {
    std::vector<double> reconstructed(m, 0.0);
    for (size_t i = 0; i <= j; ++i) {
      Axpy(qr.r_entry(i, j), qr.q(i), &reconstructed);
    }
    EXPECT_NEAR(DistanceL2(reconstructed, columns[j]), 0.0, 1e-9)
        << "column " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapeTest,
    ::testing::Values(std::make_tuple(5, 1), std::make_tuple(8, 4),
                      std::make_tuple(16, 8), std::make_tuple(32, 16),
                      std::make_tuple(64, 32), std::make_tuple(50, 50),
                      std::make_tuple(128, 20)));

TEST(IncrementalQrTest, ApplyQTransposedSizeCheck) {
  IncrementalQr qr(3);
  ASSERT_TRUE(qr.AppendColumn({1, 0, 0}).ok());
  EXPECT_FALSE(qr.ApplyQTransposed({1, 2}).ok());
  EXPECT_FALSE(qr.Project({1, 2, 3, 4}).ok());
}

}  // namespace
}  // namespace csod::la
