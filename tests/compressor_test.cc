#include "cs/compressor.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "cs/measurement_matrix.h"
#include "la/vector_ops.h"

#include "test_scopes.h"

namespace csod::cs {
namespace {

TEST(SparseSliceTest, DenseRoundTrip) {
  std::vector<double> x = {0.0, 1.5, 0.0, -2.0, 0.0};
  SparseSlice slice = SparseSlice::FromDense(x);
  EXPECT_EQ(slice.nnz(), 2u);
  auto dense = slice.ToDense(5);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense.Value(), x);
}

TEST(SparseSliceTest, ToDenseAccumulatesDuplicates) {
  SparseSlice slice;
  slice.indices = {1, 1, 2};
  slice.values = {2.0, 3.0, 1.0};
  auto dense = slice.ToDense(4);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense.Value(), (std::vector<double>{0.0, 5.0, 1.0, 0.0}));
}

TEST(SparseSliceTest, ToDenseRejectsOutOfRange) {
  SparseSlice slice;
  slice.indices = {0, 9};
  slice.values = {1.0, 7.0};
  auto dense = slice.ToDense(2);
  ASSERT_FALSE(dense.ok());
  EXPECT_EQ(dense.status().code(), StatusCode::kOutOfRange);
}

TEST(SparseSliceTest, FromDenseReservesExactly) {
  std::vector<double> x(1000, 0.0);
  for (size_t i = 0; i < x.size(); i += 7) x[i] = double(i) + 1.0;
  SparseSlice slice = SparseSlice::FromDense(x);
  EXPECT_EQ(slice.nnz(), 143u);
  EXPECT_EQ(slice.indices.capacity(), slice.nnz());
  EXPECT_EQ(slice.values.capacity(), slice.nnz());
}

TEST(CompressorTest, SparseAndDensePathsAgree) {
  MeasurementMatrix matrix(16, 40, 11);
  Compressor compressor(&matrix);
  std::vector<double> x(40, 0.0);
  x[2] = 3.0;
  x[30] = -1.5;
  SparseSlice slice = SparseSlice::FromDense(x);
  auto dense = compressor.Compress(x);
  auto sparse = compressor.Compress(slice);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  EXPECT_NEAR(la::DistanceL2(dense.Value(), sparse.Value()), 0.0, 1e-12);
}

TEST(CompressorTest, LinearityAcrossSlices) {
  // Equation 1: Σ_l Φ0 x_l == Φ0 Σ_l x_l.
  const size_t n = 64;
  MeasurementMatrix matrix(24, n, 5);
  Compressor compressor(&matrix);

  Rng rng(3);
  std::vector<std::vector<double>> slices(4, std::vector<double>(n, 0.0));
  std::vector<double> global(n, 0.0);
  for (auto& slice : slices) {
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextDouble() < 0.3) {
        slice[i] = rng.NextGaussian() * 100.0;
        global[i] += slice[i];
      }
    }
  }

  std::vector<std::vector<double>> measurements;
  for (const auto& slice : slices) {
    auto y = compressor.Compress(slice);
    ASSERT_TRUE(y.ok());
    measurements.push_back(y.MoveValue());
  }
  auto aggregated = Compressor::AggregateMeasurements(measurements);
  auto direct = compressor.Compress(global);
  ASSERT_TRUE(aggregated.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(la::DistanceL2(aggregated.Value(), direct.Value()), 1e-9);
}

TEST(CompressorTest, AggregateErrors) {
  EXPECT_FALSE(Compressor::AggregateMeasurements({}).ok());
  EXPECT_FALSE(
      Compressor::AggregateMeasurements({{1.0, 2.0}, {1.0}}).ok());
}

TEST(CompressorTest, MeasurementSize) {
  MeasurementMatrix matrix(7, 20, 1);
  Compressor compressor(&matrix);
  EXPECT_EQ(compressor.measurement_size(), 7u);
}

// Builds a cluster-shaped batch that exercises every tricky case at once:
// an empty slice, explicit zero values, duplicate indices within one slice,
// and one slice large enough to span multiple reduction blocks.
std::vector<SparseSlice> MakeBatch(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseSlice> slices(6);
  // slices[0] stays empty (a node that saw no events).
  for (size_t l = 1; l < slices.size(); ++l) {
    const size_t nnz = (l == 3) ? 1300 : 20 + 10 * l;  // slice 3: 3 blocks.
    for (size_t k = 0; k < nnz; ++k) {
      slices[l].indices.push_back(size_t(rng.NextDouble() * double(n)) % n);
      slices[l].values.push_back(
          (k % 17 == 0) ? 0.0 : rng.NextGaussian() * 50.0);
    }
  }
  // Duplicate indices inside one slice (a pre-aggregation node).
  slices[2].indices.push_back(slices[2].indices.front());
  slices[2].values.push_back(4.25);
  return slices;
}

// The per-node reference: Compress each slice, then AggregateMeasurements.
std::vector<double> PerNodeReference(const Compressor& compressor,
                                     const std::vector<SparseSlice>& slices) {
  std::vector<std::vector<double>> measurements;
  for (const auto& slice : slices) {
    auto y = compressor.Compress(slice);
    EXPECT_TRUE(y.ok());
    measurements.push_back(y.MoveValue());
  }
  auto y = Compressor::AggregateMeasurements(measurements);
  EXPECT_TRUE(y.ok());
  return y.MoveValue();
}

TEST(CompressorTest, CompressAccumulateMatchesPerNodeAggregateBitwise) {
  const size_t n = 4000;
  const std::vector<SparseSlice> slices = MakeBatch(n, 77);
  // Cached and implicit matrices must both match their per-node paths.
  for (size_t budget : {size_t{1} << 24, size_t{0}}) {
    MeasurementMatrix matrix(64, n, 9, budget);
    Compressor compressor(&matrix);
    const std::vector<double> reference = PerNodeReference(compressor, slices);
    std::vector<double> batched;
    ASSERT_TRUE(compressor.CompressAccumulate(slices, &batched).ok());
    EXPECT_EQ(batched, reference) << "budget=" << budget;
  }
}

TEST(CompressorTest, CompressAccumulateBitIdenticalAcrossLimitsAndLevels) {
  const size_t n = 4000;
  const std::vector<SparseSlice> slices = MakeBatch(n, 31);
  for (size_t budget : {size_t{1} << 24, size_t{0}}) {
    MeasurementMatrix matrix(64, n, 9, budget);
    Compressor compressor(&matrix);

    // Reference: serial, portable SIMD, per-node path.
    std::vector<double> reference;
    {
      ScopedParallelismLimit serial(1);
      ScopedSimdLevel portable(simd::Level::kPortable);
      reference = PerNodeReference(compressor, slices);
    }

    for (size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
      for (simd::Level level : simd::kAllLevels) {
        ScopedParallelismLimit scoped_limit(limit);
        ScopedSimdLevel scoped_level(level);
        std::vector<double> batched;
        ASSERT_TRUE(compressor.CompressAccumulate(slices, &batched).ok());
        EXPECT_EQ(batched, reference)
            << "budget=" << budget << " limit=" << limit
            << " level=" << simd::LevelName(simd::ActiveLevel());
      }
    }
  }
}

TEST(CompressorTest, CompressAccumulateEmptyBatchYieldsZeros) {
  MeasurementMatrix matrix(12, 50, 3);
  Compressor compressor(&matrix);
  std::vector<double> y = {9.0};  // Pre-filled garbage must be overwritten.
  ASSERT_TRUE(
      compressor.CompressAccumulate(std::vector<SparseSlice>{}, &y).ok());
  EXPECT_EQ(y, std::vector<double>(12, 0.0));

  // A batch of only-empty slices is equivalent to an empty batch.
  ASSERT_TRUE(
      compressor.CompressAccumulate(std::vector<SparseSlice>(3), &y).ok());
  EXPECT_EQ(y, std::vector<double>(12, 0.0));
}

TEST(CompressorTest, CompressAccumulateRejectsOutOfRange) {
  MeasurementMatrix matrix(12, 50, 3);
  Compressor compressor(&matrix);
  std::vector<SparseSlice> slices(2);
  slices[1].indices = {50};
  slices[1].values = {1.0};
  std::vector<double> y;
  Status status = compressor.CompressAccumulate(slices, &y);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(CompressorTest, CompressEachMatchesPerSliceCompressBitwise) {
  const size_t n = 4000;
  const std::vector<SparseSlice> slices = MakeBatch(n, 13);
  std::vector<const SparseSlice*> views;
  for (const auto& slice : slices) views.push_back(&slice);
  for (size_t budget : {size_t{1} << 24, size_t{0}}) {
    MeasurementMatrix matrix(64, n, 9, budget);
    Compressor compressor(&matrix);
    auto each = compressor.CompressEach(views);
    ASSERT_TRUE(each.ok());
    ASSERT_EQ(each.Value().size(), slices.size());
    for (size_t l = 0; l < slices.size(); ++l) {
      auto y = compressor.Compress(slices[l]);
      ASSERT_TRUE(y.ok());
      EXPECT_EQ(each.Value()[l], y.Value()) << "budget=" << budget
                                            << " slice=" << l;
    }
  }
}

}  // namespace
}  // namespace csod::cs
