#include "mapreduce/jobs.h"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "dist/comm.h"
#include "outlier/metrics.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::mr {
namespace {

struct JobSetup {
  std::vector<double> global;
  std::vector<std::vector<ScoreEvent>> splits;
};

JobSetup MakeSetup(size_t n, size_t s, size_t num_nodes,
                   size_t events_per_key, uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  JobSetup setup;
  setup.global = workload::GenerateMajorityDominated(gen).Value();

  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(setup.global, part).Value();
  setup.splits = ExpandSlicesToEvents(slices, events_per_key, seed + 2);
  return setup;
}

TEST(ExpandSlicesTest, EventsSumExactlyToSliceValues) {
  cs::SparseSlice slice;
  slice.indices = {3, 7};
  slice.values = {100.0, -41.5};
  auto splits = ExpandSlicesToEvents({slice}, 5, 9);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].size(), 10u);
  double sum3 = 0.0;
  double sum7 = 0.0;
  for (const ScoreEvent& e : splits[0]) {
    if (e.key == 3) sum3 += e.score;
    if (e.key == 7) sum7 += e.score;
  }
  EXPECT_EQ(sum3, 100.0);  // Grid-exact closure.
  EXPECT_EQ(sum7, -41.5);
}

TEST(ExpandSlicesTest, SingleEventPerKey) {
  cs::SparseSlice slice;
  slice.indices = {1};
  slice.values = {5.0};
  auto splits = ExpandSlicesToEvents({slice}, 1, 1);
  ASSERT_EQ(splits[0].size(), 1u);
  EXPECT_EQ(splits[0][0].score, 5.0);
}

TEST(TraditionalTopKJobTest, MatchesCentralizedTopK) {
  JobSetup setup = MakeSetup(500, 20, 4, 3, 7);
  const size_t k = 5;
  auto result = RunTraditionalTopKJob(setup.splits, k);
  ASSERT_TRUE(result.ok());
  auto truth = outlier::TopK(setup.global, k);
  ASSERT_EQ(result.Value().top.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(result.Value().top[i].key_index, truth[i].key_index);
    EXPECT_EQ(result.Value().top[i].value, truth[i].value);
  }
}

TEST(TraditionalTopKJobTest, ShuffleBytesScaleWithDistinctKeys) {
  JobSetup setup = MakeSetup(500, 20, 4, 1, 7);
  auto result = RunTraditionalTopKJob(setup.splits, 5);
  ASSERT_TRUE(result.ok());
  // Each mapper ships one 96-bit tuple per distinct local key.
  uint64_t expected = 0;
  for (const auto& split : setup.splits) {
    std::set<uint64_t> keys;
    for (const auto& e : split) keys.insert(e.key);
    expected += keys.size() * dist::kKeyValueBytes;
  }
  EXPECT_EQ(result.Value().stats.shuffle_bytes, expected);
}

TEST(CsOutlierJobTest, RecoversOutliersWithSmallShuffle) {
  JobSetup setup = MakeSetup(800, 15, 6, 2, 21);
  CsJobOptions options;
  options.n = 800;
  options.m = 200;
  options.k = 5;
  options.seed = 3;
  options.iterations = 20;
  auto result = RunCsOutlierJob(setup.splits, options);
  ASSERT_TRUE(result.ok());

  auto truth = outlier::ExactKOutliers(setup.global, options.k);
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(truth, result.Value().outliers), 0.0);
  EXPECT_LT(outlier::ErrorOnValue(truth, result.Value().outliers), 1e-5);
  EXPECT_NEAR(result.Value().recovery.mode, 5000.0, 1e-3);

  // Shuffle: M tuples of 8 bytes per map task.
  EXPECT_EQ(result.Value().stats.shuffle_bytes,
            setup.splits.size() * options.m * dist::kMeasurementBytes);

  // And it must beat the traditional job's shuffle volume.
  auto traditional = RunTraditionalTopKJob(setup.splits, options.k);
  ASSERT_TRUE(traditional.ok());
  EXPECT_LT(result.Value().stats.shuffle_bytes,
            traditional.Value().stats.shuffle_bytes);
}

TEST(CsOutlierJobTest, AgreesWithDistProtocol) {
  // The MapReduce pipeline and the dist-layer protocol implement the same
  // math: same seed + same data => same recovered outlier keys.
  JobSetup setup = MakeSetup(600, 10, 4, 1, 33);
  CsJobOptions options;
  options.n = 600;
  options.m = 150;
  options.k = 5;
  options.seed = 17;
  options.iterations = 16;
  auto job_result = RunCsOutlierJob(setup.splits, options);
  ASSERT_TRUE(job_result.ok());

  // Direct recovery on the global vector with the same matrix.
  cs::MeasurementMatrix matrix(options.m, options.n, options.seed);
  auto y = matrix.Multiply(setup.global);
  ASSERT_TRUE(y.ok());
  cs::BompOptions bomp_options;
  bomp_options.max_iterations = options.iterations;
  auto direct = cs::RunBomp(matrix, y.Value(), bomp_options);
  ASSERT_TRUE(direct.ok());
  auto direct_set = outlier::KOutliersFromRecovery(direct.Value(), options.k);

  ASSERT_EQ(job_result.Value().outliers.outliers.size(),
            direct_set.outliers.size());
  for (size_t i = 0; i < direct_set.outliers.size(); ++i) {
    EXPECT_EQ(job_result.Value().outliers.outliers[i].key_index,
              direct_set.outliers[i].key_index);
  }
}

TEST(CsOutlierJobTest, ShuffleIndependentOfKeyCount) {
  // The CS job's shuffle volume depends only on M and the mapper count —
  // not on how many distinct keys the input carries (the scaling property
  // behind Figure 12).
  for (size_t n : {200u, 800u}) {
    workload::MajorityDominatedOptions gen;
    gen.n = n;
    gen.sparsity = 5;
    gen.seed = 3;
    auto global = workload::GenerateMajorityDominated(gen).MoveValue();
    workload::PartitionOptions part;
    part.num_nodes = 4;
    part.seed = 4;
    auto slices = workload::PartitionAdditive(global, part).MoveValue();
    auto splits = ExpandSlicesToEvents(slices, 1, 5);

    CsJobOptions options;
    options.n = n;
    options.m = 64;
    options.k = 3;
    auto result = RunCsOutlierJob(splits, options).MoveValue();
    EXPECT_EQ(result.stats.shuffle_bytes,
              4u * 64 * dist::kMeasurementBytes)
        << "n = " << n;
  }
}

TEST(TraditionalTopKJobTest, CombinerShrinksShuffleNotAnswers) {
  JobSetup setup = MakeSetup(300, 10, 4, 6, 17);
  const size_t k = 5;
  auto combined = RunTraditionalTopKJob(setup.splits, k);
  ASSERT_TRUE(combined.ok());
  // The combined answer is the exact top-k of the global vector...
  const auto truth = outlier::TopK(setup.global, k);
  ASSERT_EQ(combined.Value().top.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(combined.Value().top[i].key_index, truth[i].key_index);
    EXPECT_EQ(combined.Value().top[i].value, truth[i].value);
  }
  // ...and the combiner cuts the shuffle by ~the events-per-key factor.
  EXPECT_GT(combined.Value().stats.pre_combine_shuffle_bytes,
            combined.Value().stats.shuffle_bytes * 3);
}

TEST(TraditionalTopKJobTest, FewerResultsThanKWhenKeySpaceSmall) {
  std::vector<std::vector<ScoreEvent>> splits = {
      {ScoreEvent{0, 5.0}, ScoreEvent{1, 3.0}}};
  auto result = RunTraditionalTopKJob(splits, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.Value().top.size(), 2u);
  EXPECT_EQ(result.Value().top[0].key_index, 0u);
}

TEST(TraditionalTopKJobTest, CombinerAccountsPreAndPostVolume) {
  JobSetup setup = MakeSetup(300, 10, 4, 6, 17);
  auto combined = RunTraditionalTopKJob(setup.splits, 5);
  ASSERT_TRUE(combined.ok());
  // Pre-combine: one 96-bit tuple per raw event.
  uint64_t raw_events = 0;
  for (const auto& split : setup.splits) raw_events += split.size();
  EXPECT_EQ(combined.Value().stats.pre_combine_shuffle_tuples, raw_events);
  EXPECT_EQ(combined.Value().stats.pre_combine_shuffle_bytes,
            raw_events * dist::kKeyValueBytes);
  // Post-combine: one tuple per (map task, distinct key).
  uint64_t distinct = 0;
  for (const auto& split : setup.splits) {
    std::set<uint64_t> keys;
    for (const auto& e : split) keys.insert(e.key);
    distinct += keys.size();
  }
  EXPECT_EQ(combined.Value().stats.shuffle_tuples, distinct);
  EXPECT_EQ(combined.Value().stats.shuffle_bytes,
            distinct * dist::kKeyValueBytes);
}

TEST(CsOutlierJobTest, BitIdenticalAcrossThreadLimits) {
  // The parallel engine must not move a single bit of the CS job's
  // output: outliers, recovered mode, and byte accounting are pinned
  // across parallelism limits against the sequential run.
  JobSetup setup = MakeSetup(500, 12, 6, 3, 29);
  CsJobOptions options;
  options.n = 500;
  options.m = 120;
  options.k = 5;
  options.seed = 11;
  options.iterations = 16;

  const size_t previous_limit = GetParallelismLimit();
  SetParallelismLimit(1);
  auto sequential = RunCsOutlierJob(setup.splits, options);
  ASSERT_TRUE(sequential.ok());
  for (size_t limit : {2u, 8u}) {
    SetParallelismLimit(limit);
    auto parallel = RunCsOutlierJob(setup.splits, options);
    ASSERT_TRUE(parallel.ok());
    const auto& a = sequential.Value();
    const auto& b = parallel.Value();
    ASSERT_EQ(a.outliers.outliers.size(), b.outliers.outliers.size());
    for (size_t i = 0; i < a.outliers.outliers.size(); ++i) {
      EXPECT_EQ(a.outliers.outliers[i].key_index,
                b.outliers.outliers[i].key_index);
      EXPECT_EQ(a.outliers.outliers[i].value, b.outliers.outliers[i].value);
    }
    EXPECT_EQ(a.outliers.mode, b.outliers.mode);
    EXPECT_EQ(a.recovery.mode, b.recovery.mode);
    EXPECT_EQ(a.stats.shuffle_bytes, b.stats.shuffle_bytes);
    EXPECT_EQ(a.stats.shuffle_tuples, b.stats.shuffle_tuples);
    EXPECT_EQ(a.stats.input_bytes, b.stats.input_bytes);
  }
  SetParallelismLimit(previous_limit);
}

TEST(CsOutlierJobTest, InvalidOptionsRejected) {
  CsJobOptions options;
  EXPECT_FALSE(RunCsOutlierJob({}, options).ok());
  options.n = 10;
  EXPECT_FALSE(RunCsOutlierJob({}, options).ok());  // m == 0.
}

TEST(CsOutlierJobTest, OutOfRangeKeyRejected) {
  CsJobOptions options;
  options.n = 4;
  options.m = 2;
  std::vector<std::vector<ScoreEvent>> splits = {{ScoreEvent{9, 1.0}}};
  auto result = RunCsOutlierJob(splits, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace csod::mr
