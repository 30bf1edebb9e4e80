// Randomized end-to-end property sweeps: the library's load-bearing
// invariants checked across many seeds and configurations via
// parameterized suites.

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/csod.h"
#include "la/vector_ops.h"

namespace csod {
namespace {

// ---------------------------------------------------------------------
// Property 1: measurement linearity survives any partitioning — the
// global measurement assembled from per-node compressions equals the
// direct compression of the aggregate, for every strategy and seed.
class LinearityProperty
    : public ::testing::TestWithParam<
          std::tuple<workload::PartitionStrategy, uint64_t>> {};

TEST_P(LinearityProperty, MeasurementsAggregateExactly) {
  const auto [strategy, seed] = GetParam();
  workload::ClickLogOptions gen;
  gen.n_override = 700;
  gen.sparsity_override = 25;
  gen.seed = seed;
  auto data = workload::GenerateClickLog(gen).MoveValue();

  workload::PartitionOptions part;
  part.num_nodes = 5;
  part.strategy = strategy;
  part.cancellation_noise =
      strategy == workload::PartitionStrategy::kSkewedSplit ? 4000.0 : 0.0;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(data.global, part).MoveValue();

  cs::MeasurementMatrix matrix(130, 700, seed + 2);
  cs::Compressor compressor(&matrix);
  std::vector<std::vector<double>> measurements;
  for (const auto& slice : slices) {
    measurements.push_back(compressor.Compress(slice).MoveValue());
  }
  auto aggregated =
      cs::Compressor::AggregateMeasurements(measurements).MoveValue();
  auto direct = compressor.Compress(data.global).MoveValue();
  EXPECT_LT(la::DistanceL2(aggregated, direct),
            1e-9 * (1.0 + la::Norm2(direct)));
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, LinearityProperty,
    ::testing::Combine(
        ::testing::Values(workload::PartitionStrategy::kUniformSplit,
                          workload::PartitionStrategy::kSkewedSplit,
                          workload::PartitionStrategy::kByKey),
        ::testing::Values(1u, 7u, 42u)));

// ---------------------------------------------------------------------
// Property 2: with a generous budget the full pipeline is exact — for
// many seeds, detection over a skew-partitioned cluster matches the
// centralized reference on keys AND values.
class ExactnessProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactnessProperty, DetectorMatchesCentralizedReference) {
  const uint64_t seed = GetParam();
  const size_t n = 600;
  const size_t s = 12;
  const size_t k = 5;
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  auto global = workload::GenerateMajorityDominated(gen).MoveValue();
  const auto truth = outlier::ExactKOutliers(global, k);

  workload::PartitionOptions part;
  part.num_nodes = 7;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.cancellation_noise = 3000.0;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(global, part).MoveValue();

  core::DetectorOptions options;
  options.n = n;
  options.m = 220;  // Generous for s = 12.
  options.seed = seed + 2;
  options.iterations = s + 6;
  auto detector =
      core::DistributedOutlierDetector::Create(options).MoveValue();
  for (const auto& slice : slices) {
    ASSERT_TRUE(detector->AddSource(slice).ok());
  }
  auto detected = detector->Detect(k).MoveValue();

  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(truth, detected), 0.0)
      << "seed " << seed;
  EXPECT_LT(outlier::ErrorOnValue(truth, detected), 1e-6) << "seed " << seed;
  EXPECT_NEAR(detected.mode, 5000.0, 1e-3) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactnessProperty,
                         ::testing::Range(uint64_t{100}, uint64_t{110}));

// ---------------------------------------------------------------------
// Property 3: an exact recovery is the whole vector — the mode at every
// key plus the recovered entries — so its sum and median match the dense
// reference across seeds.
class AggregateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregateProperty, RecoveredAggregatesMatchDense) {
  const uint64_t seed = GetParam();
  const size_t n = 500;
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = 10;
  gen.seed = seed;
  auto x = workload::GenerateMajorityDominated(gen).MoveValue();

  cs::MeasurementMatrix matrix(160, n, seed + 5);
  auto y = matrix.Multiply(x).MoveValue();
  cs::BompOptions options;
  options.max_iterations = 18;
  auto recovery = cs::RunBomp(matrix, y, options).MoveValue();

  std::vector<double> recovered(n, recovery.mode);
  for (const cs::RecoveredEntry& e : recovery.entries) {
    recovered[e.index] = e.value;
  }

  double exact_sum = 0.0;
  double recovered_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    exact_sum += x[i];
    recovered_sum += recovered[i];
  }
  EXPECT_NEAR(recovered_sum, exact_sum, std::fabs(exact_sum) * 1e-6);

  std::vector<double> sorted = x;
  std::sort(sorted.begin(), sorted.end());
  std::sort(recovered.begin(), recovered.end());
  const size_t median = (n + 1) / 2 - 1;
  EXPECT_NEAR(recovered[median], sorted[median], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateProperty,
                         ::testing::Range(uint64_t{200}, uint64_t{208}));

// ---------------------------------------------------------------------
// Property 4: protocol results are invariant to node granularity — the
// same data split across 2, 4, or 12 nodes yields identical recoveries
// (the measurement only depends on the aggregate).
class GranularityProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(GranularityProperty, NodeCountDoesNotChangeAnswer) {
  const size_t num_nodes = GetParam();
  workload::MajorityDominatedOptions gen;
  gen.n = 400;
  gen.sparsity = 8;
  gen.seed = 77;
  auto global = workload::GenerateMajorityDominated(gen).MoveValue();

  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  part.strategy = workload::PartitionStrategy::kUniformSplit;
  part.seed = 78;
  auto slices = workload::PartitionAdditive(global, part).MoveValue();

  dist::Cluster cluster(400);
  for (auto& slice : slices) {
    ASSERT_TRUE(cluster.AddNode(std::move(slice)).ok());
  }
  dist::CsProtocolOptions options;
  options.m = 140;
  options.seed = 5;
  options.iterations = 12;
  dist::CsOutlierProtocol protocol(options);
  dist::CommStats comm;
  auto result = protocol.Run(cluster, 4, &comm).MoveValue();

  // Reference: single-node "cluster" with the whole aggregate.
  dist::Cluster single(400);
  ASSERT_TRUE(single.AddNode(cs::SparseSlice::FromDense(global)).ok());
  dist::CsOutlierProtocol reference(options);
  dist::CommStats ref_comm;
  auto expected = reference.Run(single, 4, &ref_comm).MoveValue();

  ASSERT_EQ(result.outliers.size(), expected.outliers.size());
  for (size_t i = 0; i < expected.outliers.size(); ++i) {
    EXPECT_EQ(result.outliers[i].key_index, expected.outliers[i].key_index);
    EXPECT_NEAR(result.outliers[i].value, expected.outliers[i].value, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, GranularityProperty,
                         ::testing::Values(1, 2, 4, 12));

}  // namespace
}  // namespace csod
