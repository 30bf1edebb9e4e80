#include "core/detector.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cs/measurement_matrix.h"
#include "la/vector_ops.h"
#include "outlier/metrics.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::core {
namespace {

DetectorOptions SmallOptions(size_t n = 500, size_t m = 180) {
  DetectorOptions options;
  options.n = n;
  options.m = m;
  options.seed = 11;
  options.iterations = 24;
  return options;
}

std::vector<cs::SparseSlice> MakeSlices(const std::vector<double>& global,
                                        size_t num_nodes, uint64_t seed) {
  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = seed;
  return workload::PartitionAdditive(global, part).Value();
}

std::vector<double> TestGlobal(size_t n = 500, size_t s = 12,
                               uint64_t seed = 5) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  return workload::GenerateMajorityDominated(gen).Value();
}

TEST(DetectorTest, CreateValidatesOptions) {
  DetectorOptions bad;
  EXPECT_FALSE(DistributedOutlierDetector::Create(bad).ok());
  bad.n = 10;
  EXPECT_FALSE(DistributedOutlierDetector::Create(bad).ok());
  bad.m = 4;
  EXPECT_TRUE(DistributedOutlierDetector::Create(bad).ok());
}

TEST(DetectorTest, DetectsPlantedOutliers) {
  const std::vector<double> global = TestGlobal();
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  for (const auto& slice : MakeSlices(global, 6, 3)) {
    ASSERT_TRUE(detector->AddSource(slice).ok());
  }
  EXPECT_EQ(detector->num_sources(), 6u);

  const size_t k = 5;
  auto result = detector->Detect(k);
  ASSERT_TRUE(result.ok());
  auto truth = outlier::ExactKOutliers(global, k);
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(truth, result.Value()), 0.0);
  EXPECT_NEAR(result.Value().mode, 5000.0, 1e-3);
}

TEST(DetectorTest, NonFiniteSourceMeasurementFailsDetect) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  ASSERT_TRUE(detector
                  ->AddSourceMeasurement(std::vector<double>(
                      180, std::numeric_limits<double>::quiet_NaN()))
                  .ok());
  const auto result = detector->Detect(3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DetectorTest, OverflowedSketchFailsDetect) {
  // Finite deltas whose sum overflows entries of y to ±inf.
  auto detector =
      DistributedOutlierDetector::Create(SmallOptions(200, 100)).MoveValue();
  const auto id = detector->AddSource(cs::SparseSlice{}).MoveValue();
  cs::SparseSlice delta;
  delta.indices = {5};
  delta.values = {1e308};
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(detector->ApplyDelta(id, delta).ok());
  const auto result = detector->Detect(3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Removing the source that made y non-finite restores Detect: y is rebuilt
// from the remaining sketches, not left as NaN − NaN.
TEST(DetectorTest, RemovingTheNonFiniteSourceRestoresDetect) {
  const std::vector<double> global = TestGlobal();
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  for (const auto& slice : MakeSlices(global, 3, 4)) {
    ASSERT_TRUE(detector->AddSource(slice).ok());
  }
  const std::vector<double> before = detector->global_measurement();
  const auto bad = detector->AddSourceMeasurement(
      std::vector<double>(180, std::numeric_limits<double>::quiet_NaN()));
  ASSERT_TRUE(bad.ok());
  ASSERT_FALSE(detector->Detect(3).ok());
  ASSERT_TRUE(detector->RemoveSource(bad.Value()).ok());
  EXPECT_EQ(detector->global_measurement(), before);
  const auto result = detector->Detect(3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(
      outlier::ErrorOnKey(outlier::ExactKOutliers(global, 3), result.Value()),
      0.0);
}

TEST(DetectorTest, DetectRequiresSources) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_FALSE(detector->Detect(3).ok());
  EXPECT_FALSE(detector->Detect(0).ok());
}

TEST(DetectorTest, RemoveSourceEqualsNeverAdding) {
  const std::vector<double> global = TestGlobal();
  auto slices = MakeSlices(global, 4, 9);

  auto with_removal =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  std::vector<SourceId> ids;
  for (const auto& slice : slices) {
    ids.push_back(with_removal->AddSource(slice).MoveValue());
  }
  ASSERT_TRUE(with_removal->RemoveSource(ids[2]).ok());

  auto without =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  for (size_t l = 0; l < slices.size(); ++l) {
    if (l == 2) continue;
    ASSERT_TRUE(without->AddSource(slices[l]).ok());
  }

  EXPECT_LT(la::DistanceL2(with_removal->global_measurement(),
                           without->global_measurement()),
            1e-9);
}

TEST(DetectorTest, RemoveUnknownSourceFails) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_FALSE(detector->RemoveSource(42).ok());
}

TEST(DetectorTest, ApplyDeltaEqualsRecompression) {
  const std::vector<double> global = TestGlobal();
  auto slices = MakeSlices(global, 3, 17);

  auto incremental =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  std::vector<SourceId> ids;
  for (const auto& slice : slices) {
    ids.push_back(incremental->AddSource(slice).MoveValue());
  }
  // New data arrives at node 1: a fresh outlier and a mode shift on one key.
  cs::SparseSlice delta;
  delta.indices = {42, 260};
  delta.values = {30000.0, -4.0};
  ASSERT_TRUE(incremental->ApplyDelta(ids[1], delta).ok());

  // Reference: recompute from scratch with the delta folded into slice 1.
  auto fresh = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  for (size_t l = 0; l < slices.size(); ++l) {
    cs::SparseSlice slice = slices[l];
    if (l == 1) {
      slice.indices.insert(slice.indices.end(), delta.indices.begin(),
                           delta.indices.end());
      slice.values.insert(slice.values.end(), delta.values.begin(),
                          delta.values.end());
    }
    ASSERT_TRUE(fresh->AddSource(slice).ok());
  }

  EXPECT_LT(la::DistanceL2(incremental->global_measurement(),
                           fresh->global_measurement()),
            1e-9);

  // The new outlier at key 42 must now be detected.
  auto result = incremental->Detect(5);
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const auto& o : result.Value().outliers) {
    if (o.key_index == 42) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DetectorTest, ApplyDeltaUnknownSourceFails) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  cs::SparseSlice delta;
  EXPECT_FALSE(detector->ApplyDelta(7, delta).ok());
}

TEST(DetectorTest, AddSourceMeasurementMatchesAddSource) {
  const std::vector<double> global = TestGlobal();
  auto slices = MakeSlices(global, 2, 23);

  auto by_slice = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  ASSERT_TRUE(by_slice->AddSource(slices[0]).ok());

  // Simulate the remote node: compress with its own copy of the matrix.
  cs::MeasurementMatrix remote_matrix(SmallOptions().m, SmallOptions().n,
                                      SmallOptions().seed);
  auto y = remote_matrix.MultiplySparse(slices[0].indices, slices[0].values);
  ASSERT_TRUE(y.ok());
  auto by_measurement =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  ASSERT_TRUE(by_measurement->AddSourceMeasurement(y.MoveValue()).ok());

  EXPECT_EQ(by_slice->global_measurement(),
            by_measurement->global_measurement());
}

TEST(DetectorTest, AddSourceMeasurementSizeChecked) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_FALSE(detector->AddSourceMeasurement({1.0, 2.0}).ok());
}

TEST(DetectorTest, AccessorsExposeConfiguration) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_EQ(detector->options().n, 500u);
  EXPECT_EQ(detector->options().m, 180u);
  EXPECT_EQ(detector->matrix().n(), 500u);
  EXPECT_EQ(detector->matrix().m(), 180u);
  EXPECT_EQ(detector->global_measurement().size(), 180u);
  EXPECT_EQ(detector->num_sources(), 0u);
}

TEST(DetectorTest, DefaultIterationsUsedWhenUnset) {
  // iterations = 0 selects the paper's f(k) at detection time; detection
  // still succeeds on easy data.
  DetectorOptions options = SmallOptions();
  options.iterations = 0;
  auto detector = DistributedOutlierDetector::Create(options).MoveValue();
  std::vector<double> global(500, 100.0);
  global[17] = 90000.0;
  ASSERT_TRUE(detector->AddSource(cs::SparseSlice::FromDense(global)).ok());
  auto result = detector->Detect(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.Value().outliers.size(), 1u);
  EXPECT_EQ(result.Value().outliers[0].key_index, 17u);
}

TEST(DetectorTest, DetectTopKOnZeroModeData) {
  // Section 6.2 extension: with mode 0 the recovered entries rank as top-k.
  const size_t n = 400;
  std::vector<double> global(n, 0.0);
  global[10] = 900.0;
  global[20] = 700.0;
  global[30] = 500.0;
  global[40] = -800.0;

  auto detector =
      DistributedOutlierDetector::Create(SmallOptions(n, 120)).MoveValue();
  ASSERT_TRUE(detector->AddSource(cs::SparseSlice::FromDense(global)).ok());
  auto top = detector->DetectTopK(3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.Value().size(), 3u);
  EXPECT_EQ(top.Value()[0].key_index, 10u);
  EXPECT_EQ(top.Value()[1].key_index, 20u);
  EXPECT_EQ(top.Value()[2].key_index, 30u);
}

}  // namespace
}  // namespace csod::core
