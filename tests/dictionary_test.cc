#include "cs/dictionary.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "la/vector_ops.h"

namespace csod::cs {
namespace {

std::vector<double> AtomOf(const Dictionary& dict, size_t j) {
  std::vector<double> out(dict.atom_length());
  dict.FillAtom(j, out.data());
  return out;
}

TEST(MatrixDictionaryTest, MirrorsMatrix) {
  MeasurementMatrix matrix(6, 10, 3);
  MatrixDictionary dict(&matrix);
  EXPECT_EQ(dict.num_atoms(), 10u);
  EXPECT_EQ(dict.atom_length(), 6u);
  for (size_t j = 0; j < 10; ++j) {
    EXPECT_EQ(AtomOf(dict, j), matrix.Column(j));
  }
}

TEST(ExtendedDictionaryTest, AtomZeroIsBiasColumn) {
  MeasurementMatrix matrix(8, 12, 5);
  ExtendedDictionary dict(&matrix);
  EXPECT_EQ(dict.num_atoms(), 13u);
  EXPECT_EQ(AtomOf(dict, 0), matrix.BiasColumn());
  for (size_t j = 1; j < 13; ++j) {
    EXPECT_EQ(AtomOf(dict, j), matrix.Column(j - 1));
  }
}

// The unmasked atoms of `c` by |c_j| descending, ties toward the lowest j
// (a stable sort of the ascending scan), cut to `count`.
std::vector<size_t> ScanTop(const std::vector<double>& c,
                            const std::vector<bool>& mask, size_t count) {
  std::vector<size_t> order;
  for (size_t j = 0; j < c.size(); ++j) {
    if (!mask[j]) order.push_back(j);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::fabs(c[a]) > std::fabs(c[b]);
  });
  if (order.size() > count) order.resize(count);
  return order;
}

// CorrelateTop at counts 1 and 2 against ScanTop over `c`, the reference
// correlations of every atom with `r`, bit for bit, peeling the leading
// atom each round (the OMP access pattern).
void ExpectTopMatchesScan(const Dictionary& dict, const std::vector<double>& r,
                          const std::vector<double>& c, size_t rounds) {
  ASSERT_EQ(c.size(), dict.num_atoms());
  std::vector<bool> mask(dict.num_atoms(), false);
  for (size_t round = 0; round < rounds; ++round) {
    for (const size_t count : {size_t{1}, size_t{2}}) {
      const auto want = ScanTop(c, mask, count);
      const auto got = dict.CorrelateTop(r, mask, count).MoveValue();
      ASSERT_EQ(got.size(), want.size()) << "round " << round;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].index, want[i]) << "round " << round;
        EXPECT_EQ(got[i].correlation, c[want[i]]);  // Bitwise.
        EXPECT_EQ(got[i].abs_correlation, std::fabs(c[want[i]]));
      }
    }
    mask[ScanTop(c, mask, 1).front()] = true;
  }
}

TEST(MatrixDictionaryTest, CorrelateArgmaxMatchesCorrelateScan) {
  MeasurementMatrix matrix(6, 10, 3);
  MatrixDictionary dict(&matrix);
  Rng rng(17);
  std::vector<double> r(6);
  for (double& v : r) v = rng.NextGaussian();
  ExpectTopMatchesScan(dict, r, matrix.CorrelateAll(r).MoveValue(), 5);
}

TEST(ExtendedDictionaryTest, CorrelateArgmaxMatchesCorrelateScan) {
  MeasurementMatrix matrix(8, 12, 5);
  ExtendedDictionary dict(&matrix);
  Rng rng(23);
  std::vector<double> r(8);
  for (double& v : r) v = rng.NextGaussian();
  // Atom 0 is the bias column, atom j + 1 is matrix column j.
  std::vector<double> c = {la::Dot(matrix.BiasColumn(), r)};
  const std::vector<double> columns = matrix.CorrelateAll(r).MoveValue();
  c.insert(c.end(), columns.begin(), columns.end());
  // Six rounds exercise the bias atom both unmasked and masked.
  ExpectTopMatchesScan(dict, r, c, 6);
}

TEST(ExtendedDictionaryTest, CorrelateArgmaxZeroResidualPicksBias) {
  MeasurementMatrix matrix(8, 12, 5);
  ExtendedDictionary dict(&matrix);
  EXPECT_TRUE(dict.IsBiasAtom(0));
  EXPECT_FALSE(dict.IsBiasAtom(1));
  // All 13 correlations tie at 0.0; the bias atom (index 0) leads, then
  // the first data atom.
  const std::vector<double> zero(8, 0.0);
  std::vector<bool> mask(13, false);
  auto top = dict.CorrelateTop(zero, mask, 2).MoveValue();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 0u);
  EXPECT_EQ(top[0].abs_correlation, 0.0);
  EXPECT_EQ(top[1].index, 1u);
  // With the bias masked the tie falls to the first data atoms.
  mask[0] = true;
  top = dict.CorrelateTop(zero, mask, 2).MoveValue();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 2u);
}

TEST(ExtendedDictionaryTest, CorrelateArgmaxMaskSizeChecked) {
  MeasurementMatrix matrix(8, 12, 5);
  ExtendedDictionary dict(&matrix);
  std::vector<double> r(8, 1.0);
  EXPECT_FALSE(dict.CorrelateTop(r, std::vector<bool>(12, false), 2).ok());
}

TEST(ExtendedDictionaryTest, MeasurementIdentity) {
  // Equation 2: Φ0(b·1 + z) == [φ0, Φ0]·[√N b, z].
  const size_t n = 12;
  const double b = 7.5;
  MeasurementMatrix matrix(8, n, 5);
  ExtendedDictionary dict(&matrix);

  std::vector<double> z(n, 0.0);
  z[2] = 3.0;
  z[9] = -1.0;

  std::vector<double> x(n, b);
  for (size_t i = 0; i < n; ++i) x[i] += z[i];
  auto y_direct = matrix.Multiply(x).MoveValue();

  std::vector<double> extended(n + 1);
  extended[0] = std::sqrt(static_cast<double>(n)) * b;
  for (size_t i = 0; i < n; ++i) extended[i + 1] = z[i];
  // Σ_j extended_j · atom_j over all N + 1 atoms.
  std::vector<double> y_extended(8, 0.0);
  for (size_t j = 0; j < n + 1; ++j) {
    la::Axpy(extended[j], AtomOf(dict, j), &y_extended);
  }

  EXPECT_LT(la::DistanceL2(y_direct, y_extended), 1e-9);
}

}  // namespace
}  // namespace csod::cs
