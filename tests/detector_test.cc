#include "core/detector.h"

#include <cmath>
#include <sstream>
#include <string>
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

TEST(DetectorTest, SaveLoadRoundTrip) {
  const std::vector<double> global = TestGlobal();
  auto original = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  std::vector<SourceId> ids;
  for (const auto& slice : MakeSlices(global, 4, 31)) {
    ids.push_back(original->AddSource(slice).MoveValue());
  }

  std::stringstream checkpoint;
  ASSERT_TRUE(original->Save(checkpoint).ok());
  auto restored =
      DistributedOutlierDetector::Load(checkpoint, SmallOptions()).MoveValue();

  EXPECT_EQ(restored->num_sources(), original->num_sources());
  EXPECT_EQ(restored->options().n, original->options().n);
  EXPECT_EQ(restored->options().m, original->options().m);
  EXPECT_EQ(restored->options().seed, original->options().seed);
  EXPECT_EQ(restored->global_measurement(), original->global_measurement());

  // Detection agrees bitwise.
  auto a = original->Detect(5).MoveValue();
  auto b = restored->Detect(5).MoveValue();
  ASSERT_EQ(a.outliers.size(), b.outliers.size());
  for (size_t i = 0; i < a.outliers.size(); ++i) {
    EXPECT_EQ(a.outliers[i].key_index, b.outliers[i].key_index);
    EXPECT_EQ(a.outliers[i].value, b.outliers[i].value);
  }

  // Source ids survive: removing an original id works on the restored
  // detector too.
  ASSERT_TRUE(restored->RemoveSource(ids[2]).ok());
  ASSERT_TRUE(original->RemoveSource(ids[2]).ok());
  EXPECT_EQ(restored->global_measurement(), original->global_measurement());
}

TEST(DetectorTest, LoadRejectsGarbage) {
  std::stringstream not_a_checkpoint("hello world");
  EXPECT_FALSE(
      DistributedOutlierDetector::Load(not_a_checkpoint, SmallOptions()).ok());

  std::stringstream truncated("csod-detector v4\n500 180 11 24 3\n");
  EXPECT_FALSE(DistributedOutlierDetector::Load(truncated, SmallOptions()).ok());

  // A checkpoint of another geometry is refused, not reinterpreted.
  auto original = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  ASSERT_TRUE(original->AddSourceMeasurement(std::vector<double>(180, 1.0)).ok());
  std::stringstream saved;
  ASSERT_TRUE(original->Save(saved).ok());
  DetectorOptions other_seed = SmallOptions();
  other_seed.seed += 1;
  EXPECT_FALSE(DistributedOutlierDetector::Load(saved, other_seed).ok());

  // Two sketches under one source id would double-count it in y.
  const std::string one_source = saved.str();
  const std::string header = "csod-detector v4\n500 180 11 24 1\n";
  ASSERT_EQ(one_source.rfind(header, 0), 0u);
  const std::string body = one_source.substr(header.size());
  std::stringstream duplicate_id("csod-detector v4\n500 180 11 24 2\n" + body +
                                 body);
  EXPECT_FALSE(
      DistributedOutlierDetector::Load(duplicate_id, SmallOptions()).ok());

  // A payload size far beyond the stream must fail before allocating it.
  DetectorOptions tiny;
  tiny.n = 16;
  tiny.m = 4;
  tiny.seed = 1;
  std::stringstream huge_payload(
      "csod-detector v4\n16 4 1 0 1\n0 4611686018427387904\n");
  EXPECT_FALSE(DistributedOutlierDetector::Load(huge_payload, tiny).ok());

  // An M whose matrix size would wrap size_t never reaches the matrix.
  DetectorOptions narrow = tiny;
  narrow.n = 4;
  std::stringstream wrapping_m(
      "csod-detector v4\n4 2305843009213693952 1 0 0\n");
  EXPECT_FALSE(DistributedOutlierDetector::Load(wrapping_m, narrow).ok());
}

// Older checkpoints were measured with an older Φ0; a byte-for-byte older
// file (this build's body under the old header) must be refused by name.
Status LoadUnderHeader(const std::string& version) {
  auto original = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_TRUE(
      original->AddSourceMeasurement(std::vector<double>(180, 1.0)).ok());
  std::stringstream saved;
  EXPECT_TRUE(original->Save(saved).ok());
  const std::string current = saved.str();
  const std::string header =
      "csod-detector v" + std::to_string(cs::kPhi0Format) + "\n";
  EXPECT_EQ(current.rfind(header, 0), 0u);
  std::stringstream relabeled("csod-detector " + version + "\n" +
                              current.substr(header.size()));
  return DistributedOutlierDetector::Load(relabeled, SmallOptions()).status();
}

TEST(DetectorTest, LoadRefusesAV1CheckpointByItsPhi0Format) {
  const Status status = LoadUnderHeader("v1");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("Φ0 format 1"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(LoadUnderHeader("v4").ok());
}

TEST(DetectorTest, LoadRefusesAV2CheckpointByItsPhi0Format) {
  const Status status = LoadUnderHeader("v2");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("Φ0 format 2"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("Φ0 format 4"), std::string::npos)
      << status.ToString();
  // A newer format is refused by name too; a non-numeric version is not a
  // format at all.
  const Status newer = LoadUnderHeader("v5");
  EXPECT_EQ(newer.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(newer.ToString().find("Φ0 format 5"), std::string::npos)
      << newer.ToString();
  for (const char* bad : {"v", "vx", "v4x", "4", "v-4"}) {
    const Status unknown = LoadUnderHeader(bad);
    EXPECT_NE(unknown.ToString().find("unknown csod-detector version"),
              std::string::npos)
        << bad << ": " << unknown.ToString();
  }
}

// Format 3 held float-rounded entries; its sketches are refused by name.
TEST(DetectorTest, LoadRefusesAV3CheckpointByItsPhi0Format) {
  const Status status = LoadUnderHeader("v3");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("Φ0 format 3"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("this build uses Φ0 format 4"),
            std::string::npos)
      << status.ToString();
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
