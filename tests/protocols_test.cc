#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/simd.h"
#include "cs/bomp.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"
#include "dist/all_protocol.h"
#include "dist/cs_protocol.h"
#include "dist/kplusdelta_protocol.h"
#include "outlier/metrics.h"
#include "outlier/outlier.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::dist {
namespace {

// Restore the parallelism limit / SIMD dispatch level on scope exit, even
// when an assertion fails mid-test.
class ScopedParallelismLimit {
 public:
  explicit ScopedParallelismLimit(size_t limit) : previous_(GetParallelismLimit()) {
    SetParallelismLimit(limit);
  }
  ~ScopedParallelismLimit() { SetParallelismLimit(previous_); }

 private:
  size_t previous_;
};

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::SetLevelForTesting(level)) {}
  ~ScopedSimdLevel() { simd::SetLevelForTesting(previous_); }

 private:
  simd::Level previous_;
};

// Builds a cluster holding a majority-dominated global vector split with
// the given strategy.
struct TestSetup {
  std::vector<double> global;
  std::unique_ptr<Cluster> cluster;
  outlier::OutlierSet truth;
};

TestSetup MakeSetup(size_t n, size_t s, size_t num_nodes, size_t k,
                    workload::PartitionStrategy strategy, uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  TestSetup setup;
  setup.global = workload::GenerateMajorityDominated(gen).Value();

  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  part.strategy = strategy;
  part.seed = seed + 1;
  if (strategy == workload::PartitionStrategy::kSkewedSplit) {
    part.cancellation_noise = 2000.0;
  }
  auto slices = workload::PartitionAdditive(setup.global, part).Value();

  setup.cluster = std::make_unique<Cluster>(n);
  for (auto& slice : slices) {
    EXPECT_TRUE(setup.cluster->AddNode(std::move(slice)).ok());
  }
  setup.truth = outlier::ExactKOutliers(setup.global, k);
  return setup;
}

TEST(AllProtocolTest, ExactAnswerAndVectorizedCost) {
  const size_t n = 400;
  const size_t k = 5;
  TestSetup setup = MakeSetup(n, 20, 4, k,
                              workload::PartitionStrategy::kSkewedSplit, 3);
  AllTransmitProtocol all(AllEncoding::kVectorized);
  CommStats comm;
  auto result = all.Run(*setup.cluster, k, &comm);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(setup.truth, result.Value()), 0.0);
  EXPECT_NEAR(outlier::ErrorOnValue(setup.truth, result.Value()), 0.0, 1e-12);
  // Cost = L * N * Sv.
  EXPECT_EQ(comm.bytes_total(), 4u * n * kValueBytes);
  EXPECT_EQ(comm.rounds(), 1u);
}

TEST(AllProtocolTest, KeyValueEncodingCost) {
  const size_t k = 5;
  TestSetup setup = MakeSetup(300, 10, 3, k,
                              workload::PartitionStrategy::kByKey, 7);
  AllTransmitProtocol all(AllEncoding::kKeyValue);
  CommStats comm;
  auto result = all.Run(*setup.cluster, k, &comm);
  ASSERT_TRUE(result.ok());
  uint64_t expected = 0;
  for (NodeId id : setup.cluster->NodeIds()) {
    expected += setup.cluster->Slice(id).Value()->nnz() * kKeyValueBytes;
  }
  EXPECT_EQ(comm.bytes_total(), expected);
}

TEST(AllProtocolTest, EmptyClusterRejected) {
  Cluster cluster(10);
  AllTransmitProtocol all;
  CommStats comm;
  EXPECT_FALSE(all.Run(cluster, 3, &comm).ok());
  EXPECT_FALSE(all.Run(cluster, 3, nullptr).ok());
}

TEST(CsProtocolTest, RecoversExactOutliersAtFractionOfAllCost) {
  const size_t n = 1000;
  const size_t s = 20;
  const size_t k = 5;
  TestSetup setup = MakeSetup(n, s, 8, k,
                              workload::PartitionStrategy::kSkewedSplit, 11);

  CsProtocolOptions options;
  options.m = 250;  // Generous for s=20.
  options.seed = 99;
  options.iterations = s + 4;
  CsOutlierProtocol protocol(options);
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, k, &comm);
  ASSERT_TRUE(result.ok());

  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(setup.truth, result.Value()), 0.0);
  EXPECT_LT(outlier::ErrorOnValue(setup.truth, result.Value()), 1e-6);
  EXPECT_NEAR(result.Value().mode, 5000.0, 1e-3);

  // Cost = L * M * SM, far below ALL's L * N * Sv.
  EXPECT_EQ(comm.bytes_total(), 8u * options.m * kMeasurementBytes);
  EXPECT_LT(comm.bytes_total(), 8u * n * kValueBytes / 2);
  EXPECT_EQ(comm.rounds(), 1u);
}

TEST(CsProtocolTest, InsensitiveToPartitioning) {
  // The same global vector partitioned three different ways must produce
  // identical global measurements, hence identical recoveries (Equation 1).
  const size_t n = 600;
  const size_t k = 5;
  std::vector<outlier::OutlierSet> answers;
  for (auto strategy : {workload::PartitionStrategy::kUniformSplit,
                        workload::PartitionStrategy::kSkewedSplit,
                        workload::PartitionStrategy::kByKey}) {
    TestSetup setup = MakeSetup(n, 15, 6, k, strategy, 21);
    CsProtocolOptions options;
    options.m = 200;
    options.seed = 5;
    options.iterations = 20;
    CsOutlierProtocol protocol(options);
    CommStats comm;
    auto result = protocol.Run(*setup.cluster, k, &comm);
    ASSERT_TRUE(result.ok());
    answers.push_back(result.MoveValue());
  }
  ASSERT_EQ(answers.size(), 3u);
  for (size_t i = 1; i < answers.size(); ++i) {
    ASSERT_EQ(answers[i].outliers.size(), answers[0].outliers.size());
    for (size_t j = 0; j < answers[0].outliers.size(); ++j) {
      EXPECT_EQ(answers[i].outliers[j].key_index,
                answers[0].outliers[j].key_index);
    }
  }
}

TEST(CsProtocolTest, InvalidConfigRejected) {
  Cluster cluster(10);
  ASSERT_TRUE(cluster.AddNode({}).ok());
  CsProtocolOptions options;  // m == 0.
  CsOutlierProtocol protocol(options);
  CommStats comm;
  EXPECT_FALSE(protocol.Run(cluster, 3, &comm).ok());
  options.m = 5;
  CsOutlierProtocol protocol2(options);
  EXPECT_FALSE(protocol2.Run(cluster, 3, nullptr).ok());
  Cluster empty(10);
  EXPECT_FALSE(protocol2.Run(empty, 3, &comm).ok());
}

TEST(KPlusDeltaTest, GoodOnByKeyPartitionsPoorOnSkewed) {
  // The paper: K+δ works when values are uniformly distributed across
  // nodes but fails when the partitioning is skewed. Outlier divergences
  // are separated by more than any possible mode-estimate error so the
  // easy case is deterministic.
  const size_t n = 1000;
  const size_t k = 5;
  std::vector<double> global(n, 5000.0);
  for (size_t i = 0; i < 10; ++i) {
    const double sign = (i % 2 == 0) ? 1.0 : -1.0;
    global[i * 97 + 3] = 5000.0 + sign * (3000.0 + 1500.0 * i);
  }
  const outlier::OutlierSet truth = outlier::ExactKOutliers(global, k);

  KPlusDeltaOptions options;
  options.delta = 45;
  options.seed = 7;
  KPlusDeltaProtocol protocol(options);

  workload::PartitionOptions easy_part;
  easy_part.num_nodes = 8;
  easy_part.strategy = workload::PartitionStrategy::kByKey;
  easy_part.seed = 31;
  Cluster easy_cluster(n);
  auto easy_slices = workload::PartitionAdditive(global, easy_part).MoveValue();
  for (auto& slice : easy_slices) {
    ASSERT_TRUE(easy_cluster.AddNode(std::move(slice)).ok());
  }
  CommStats comm_easy;
  auto easy_result = protocol.Run(easy_cluster, k, &comm_easy);
  ASSERT_TRUE(easy_result.ok());
  const double easy_ek = outlier::ErrorOnKey(truth, easy_result.Value());

  workload::PartitionOptions hard_part;
  hard_part.num_nodes = 8;
  hard_part.strategy = workload::PartitionStrategy::kSkewedSplit;
  hard_part.cancellation_noise = 8000.0;
  hard_part.seed = 31;
  Cluster hard_cluster(n);
  auto hard_slices = workload::PartitionAdditive(global, hard_part).MoveValue();
  for (auto& slice : hard_slices) {
    ASSERT_TRUE(hard_cluster.AddNode(std::move(slice)).ok());
  }
  CommStats comm_hard;
  auto hard_result = protocol.Run(hard_cluster, k, &comm_hard);
  ASSERT_TRUE(hard_result.ok());
  const double hard_ek = outlier::ErrorOnKey(truth, hard_result.Value());

  // On by-key partitions every local value is the global value: with
  // budget >= s the answer is exact.
  EXPECT_EQ(easy_ek, 0.0);
  // Skewed splits break the local ranking.
  EXPECT_GE(hard_ek, easy_ek);
}

TEST(KPlusDeltaTest, CommunicationBudgetRespected) {
  const size_t k = 5;
  const size_t delta = 15;
  TestSetup setup = MakeSetup(500, 10, 4, k,
                              workload::PartitionStrategy::kByKey, 13);
  KPlusDeltaOptions options;
  options.delta = delta;
  KPlusDeltaProtocol protocol(options);
  CommStats comm;
  ASSERT_TRUE(protocol.Run(*setup.cluster, k, &comm).ok());
  // Per paper: <= L * (k + delta) tuples of St bytes, plus the L-value
  // round-2 broadcast.
  const uint64_t budget_bytes =
      4u * (k + delta) * kKeyValueBytes + 4u * kValueBytes;
  EXPECT_LE(comm.bytes_total(), budget_bytes);
  EXPECT_EQ(comm.rounds(), 3u);
}

TEST(KPlusDeltaTest, EmptyClusterRejected) {
  Cluster cluster(10);
  KPlusDeltaProtocol protocol(KPlusDeltaOptions{});
  CommStats comm;
  EXPECT_FALSE(protocol.Run(cluster, 3, &comm).ok());
}

TEST(CsProtocolTest, DeterministicAcrossRuns) {
  // Same cluster + same seed => bitwise-identical detection (required for
  // reproducible production analytics).
  TestSetup setup = MakeSetup(500, 10, 4, 5,
                              workload::PartitionStrategy::kSkewedSplit, 41);
  CsProtocolOptions options;
  options.m = 150;
  options.seed = 7;
  options.iterations = 14;

  CsOutlierProtocol protocol_a(options);
  CsOutlierProtocol protocol_b(options);
  CommStats comm_a, comm_b;
  auto a = protocol_a.Run(*setup.cluster, 5, &comm_a).MoveValue();
  auto b = protocol_b.Run(*setup.cluster, 5, &comm_b).MoveValue();

  EXPECT_EQ(a.mode, b.mode);
  ASSERT_EQ(a.outliers.size(), b.outliers.size());
  for (size_t i = 0; i < a.outliers.size(); ++i) {
    EXPECT_EQ(a.outliers[i].key_index, b.outliers[i].key_index);
    EXPECT_EQ(a.outliers[i].value, b.outliers[i].value);
  }
  EXPECT_EQ(comm_a.bytes_total(), comm_b.bytes_total());
}

TEST(CsProtocolTest, BitIdenticalAcrossLimitsAndSimdLevels) {
  // The fault-free path now runs through the batched SIMD-dispatched
  // sketching kernel; the detection result must not depend on the thread
  // limit or on which ISA path the dispatcher picked.
  TestSetup setup = MakeSetup(500, 10, 4, 5,
                              workload::PartitionStrategy::kSkewedSplit, 41);
  CsProtocolOptions options;
  options.m = 150;
  options.seed = 7;
  options.iterations = 14;

  auto run = [&] {
    CsOutlierProtocol protocol(options);
    CommStats comm;
    return protocol.Run(*setup.cluster, 5, &comm).MoveValue();
  };

  outlier::OutlierSet reference;
  {
    ScopedParallelismLimit serial(1);
    ScopedSimdLevel portable(simd::Level::kPortable);
    reference = run();
  }
  for (size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
    for (simd::Level level : {simd::Level::kPortable, simd::Level::kAvx2}) {
      ScopedParallelismLimit scoped_limit(limit);
      ScopedSimdLevel scoped_level(level);
      const outlier::OutlierSet got = run();
      EXPECT_EQ(got.mode, reference.mode)
          << "limit=" << limit << " level=" << simd::LevelName(level);
      ASSERT_EQ(got.outliers.size(), reference.outliers.size());
      for (size_t i = 0; i < got.outliers.size(); ++i) {
        EXPECT_EQ(got.outliers[i].key_index, reference.outliers[i].key_index);
        EXPECT_EQ(got.outliers[i].value, reference.outliers[i].value);
      }
    }
  }
}

TEST(CsProtocolTest, LastRecoveryExposed) {
  TestSetup setup = MakeSetup(300, 8, 3, 5,
                              workload::PartitionStrategy::kUniformSplit, 43);
  CsProtocolOptions options;
  options.m = 120;
  options.iterations = 12;
  CsOutlierProtocol protocol(options);
  CommStats comm;
  ASSERT_TRUE(protocol.Run(*setup.cluster, 5, &comm).ok());
  EXPECT_TRUE(protocol.last_recovery().bias_selected);
  EXPECT_GT(protocol.last_recovery().iterations, 0u);
  EXPECT_NEAR(protocol.last_recovery().mode, 5000.0, 1.0);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(CsProtocolTest, FreshProtocolsMatchAFreshMatrixAcrossSeeds) {
  // A fresh protocol per Run takes Φ0 from the process-wide registry. Seeds
  // A, B, A force a hit, a miss that releases A, and a rebuild of A; each
  // answer must equal the one a freshly constructed Φ0 gives, bit for bit.
  TestSetup setup = MakeSetup(500, 10, 4, 5,
                              workload::PartitionStrategy::kSkewedSplit, 47);
  std::vector<const cs::SparseSlice*> slices;
  for (NodeId id : setup.cluster->NodeIds()) {
    slices.push_back(setup.cluster->Slice(id).Value());
  }
  constexpr size_t kM = 150;
  constexpr size_t kK = 5;
  for (const uint64_t seed : {uint64_t{31}, uint64_t{32}, uint64_t{31}}) {
    CsProtocolOptions options;
    options.m = kM;
    options.seed = seed;
    CsOutlierProtocol protocol(options);
    CommStats comm;
    const outlier::OutlierSet got =
        protocol.Run(*setup.cluster, kK, &comm).MoveValue();

    const cs::MeasurementMatrix fresh(kM, setup.cluster->key_space_size(),
                                      seed);
    std::vector<double> y;
    ASSERT_TRUE(cs::Compressor(&fresh).CompressAccumulate(slices, &y).ok());
    cs::BompOptions bomp;
    bomp.max_iterations = cs::IterationBudget(0, kK);
    const cs::BompResult want = cs::RunBomp(fresh, y, bomp).MoveValue();
    const outlier::OutlierSet want_set =
        outlier::KOutliersFromRecovery(want, kK);

    EXPECT_TRUE(SameBits(got.mode, want_set.mode)) << "seed " << seed;
    ASSERT_EQ(got.outliers.size(), want_set.outliers.size());
    for (size_t i = 0; i < got.outliers.size(); ++i) {
      EXPECT_EQ(got.outliers[i].key_index, want_set.outliers[i].key_index);
      EXPECT_TRUE(SameBits(got.outliers[i].value, want_set.outliers[i].value));
      EXPECT_TRUE(SameBits(got.outliers[i].divergence,
                           want_set.outliers[i].divergence));
    }
    const cs::BompResult& last = protocol.last_recovery();
    EXPECT_TRUE(SameBits(last.mode, want.mode));
    EXPECT_EQ(last.bias_selected, want.bias_selected);
    EXPECT_EQ(last.iterations, want.iterations);
    EXPECT_EQ(last.stopped_by_stagnation, want.stopped_by_stagnation);
    EXPECT_TRUE(SameBits(last.final_residual_norm, want.final_residual_norm));
    ASSERT_EQ(last.entries.size(), want.entries.size());
    for (size_t i = 0; i < last.entries.size(); ++i) {
      EXPECT_EQ(last.entries[i].index, want.entries[i].index);
      EXPECT_TRUE(SameBits(last.entries[i].value, want.entries[i].value));
    }
  }
}

TEST(ProtocolNamesTest, Names) {
  EXPECT_EQ(AllTransmitProtocol(AllEncoding::kVectorized).name(),
            "ALL(vector)");
  EXPECT_EQ(AllTransmitProtocol(AllEncoding::kKeyValue).name(), "ALL(kv)");
  EXPECT_EQ(CsOutlierProtocol(CsProtocolOptions{}).name(), "BOMP");
  EXPECT_EQ(KPlusDeltaProtocol(KPlusDeltaOptions{}).name(), "K+delta");
}

}  // namespace
}  // namespace csod::dist
