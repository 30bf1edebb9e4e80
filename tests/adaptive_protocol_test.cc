#include "dist/adaptive_cs_protocol.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cs_protocol.h"
#include "outlier/metrics.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::dist {
namespace {

struct TestCluster {
  std::vector<double> global;
  std::unique_ptr<Cluster> cluster;
  outlier::OutlierSet truth;
};

TestCluster MakeSetup(size_t n, size_t s, size_t k, uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  TestCluster setup;
  setup.global = workload::GenerateMajorityDominated(gen).MoveValue();

  workload::PartitionOptions part;
  part.num_nodes = 6;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(setup.global, part).MoveValue();
  setup.cluster = std::make_unique<Cluster>(n);
  for (auto& slice : slices) {
    EXPECT_TRUE(setup.cluster->AddNode(std::move(slice)).ok());
  }
  setup.truth = outlier::ExactKOutliers(setup.global, k);
  return setup;
}

TEST(AdaptiveProtocolTest, ValidatesOptions) {
  Cluster cluster(10);
  ASSERT_TRUE(cluster.AddNode({}).ok());
  CommStats comm;

  AdaptiveCsOptions bad;
  bad.initial_m = 0;
  EXPECT_FALSE(AdaptiveCsProtocol(bad).Run(cluster, 3, &comm).ok());
  bad.initial_m = 64;
  bad.max_m = 32;
  EXPECT_FALSE(AdaptiveCsProtocol(bad).Run(cluster, 3, &comm).ok());
  bad.max_m = 128;
  EXPECT_FALSE(AdaptiveCsProtocol(bad).Run(cluster, 3, nullptr).ok());
  Cluster empty(10);
  EXPECT_FALSE(AdaptiveCsProtocol(bad).Run(empty, 3, &comm).ok());
}

TEST(AdaptiveProtocolTest, ConvergesToExactAnswer) {
  const size_t k = 5;
  TestCluster setup = MakeSetup(1000, 15, k, 3);

  AdaptiveCsOptions options;
  options.initial_m = 32;
  options.max_m = 1024;
  options.seed = 7;
  options.iterations = 20;  // Past the sparsity: residual criterion fires.
  AdaptiveCsProtocol protocol(options);
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, k, &comm).MoveValue();

  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(setup.truth, result), 0.0);
  ASSERT_FALSE(protocol.rounds().empty());
  EXPECT_TRUE(protocol.rounds().back().accepted);
  // Multiple rounds, geometric M.
  EXPECT_EQ(comm.rounds(), protocol.rounds().size());
}

TEST(AdaptiveProtocolTest, IncrementalAccountingMatchesFinalM) {
  // Total tuples shipped per node equal the final M (prefix rows are
  // never retransmitted), so the adaptive run costs the same bytes as a
  // single-round run at the final M.
  const size_t k = 5;
  TestCluster setup = MakeSetup(800, 10, k, 9);

  AdaptiveCsOptions options;
  options.initial_m = 16;
  options.max_m = 2048;
  options.seed = 11;
  options.iterations = 16;
  AdaptiveCsProtocol protocol(options);
  CommStats comm;
  ASSERT_TRUE(protocol.Run(*setup.cluster, k, &comm).ok());

  const size_t final_m = protocol.rounds().back().m;
  EXPECT_EQ(comm.tuples_total(),
            setup.cluster->num_nodes() * final_m);

  CsProtocolOptions fixed;
  fixed.m = final_m;
  fixed.seed = options.seed;
  CsOutlierProtocol fixed_protocol(fixed);
  CommStats fixed_comm;
  ASSERT_TRUE(fixed_protocol.Run(*setup.cluster, k, &fixed_comm).ok());
  EXPECT_EQ(comm.bytes_total(), fixed_comm.bytes_total());
}

TEST(AdaptiveProtocolTest, CheaperThanWorstCaseFixedM) {
  // On easy data the adaptive run stops far below max_m.
  const size_t k = 3;
  TestCluster setup = MakeSetup(1200, 6, k, 21);

  AdaptiveCsOptions options;
  options.initial_m = 32;
  options.max_m = 1200;
  options.seed = 5;
  options.iterations = 12;
  AdaptiveCsProtocol protocol(options);
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, k, &comm).MoveValue();
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(setup.truth, result), 0.0);
  EXPECT_LT(protocol.rounds().back().m, options.max_m / 2);
}

TEST(AdaptiveProtocolTest, StableTopKCriterion) {
  // With a top-k-sized iteration budget the residual never reaches zero;
  // the stability criterion must terminate the loop instead.
  const size_t k = 3;
  TestCluster setup = MakeSetup(1000, 30, k, 33);

  AdaptiveCsOptions options;
  options.initial_m = 64;
  options.max_m = 1000;
  options.seed = 13;
  options.iterations = 0;  // f(k) — far below s.
  options.accept_on_stable_topk = true;
  AdaptiveCsProtocol protocol(options);
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, k, &comm).MoveValue();
  ASSERT_FALSE(protocol.rounds().empty());
  const AdaptiveRound& last = protocol.rounds().back();
  // Either stability fired before the cap, or we hit the cap; on this
  // easy data stability should fire.
  EXPECT_TRUE(last.accepted);
  EXPECT_TRUE(last.topk_stable);
  // A stable top-k is a stopping rule, not a certificate: with R = 3.5k
  // iterations against s = 30 outliers whose largest divergences lie within
  // 7% of each other, the unrecovered outliers bias the estimates, and the
  // accepted top-3 is the exact one for only about a third of (data, Φ0)
  // seeds of this geometry (it is for every seed once R >= s). What the
  // rule delivers on every seed is that each reported key is a true
  // outlier.
  const outlier::OutlierSet support = outlier::ExactKOutliers(setup.global, 30);
  for (const auto& o : result.outliers) {
    EXPECT_TRUE(std::any_of(
        support.outliers.begin(), support.outliers.end(),
        [&](const outlier::Outlier& t) { return t.key_index == o.key_index; }))
        << "key " << o.key_index << " is not an outlier";
  }
  // And the answer is exactly what stability means: the single-round
  // protocol at the accepted M reports the same ranked keys, and at the
  // previous round's M the same key set.
  ASSERT_GE(protocol.rounds().size(), 2u);
  const auto fixed_keys = [&](size_t m) {
    CsProtocolOptions fixed;
    fixed.m = m;
    fixed.seed = options.seed;
    CommStats fixed_comm;
    const outlier::OutlierSet fixed_result =
        CsOutlierProtocol(fixed).Run(*setup.cluster, k, &fixed_comm).MoveValue();
    std::vector<size_t> keys;
    for (const auto& o : fixed_result.outliers) keys.push_back(o.key_index);
    return keys;
  };
  std::vector<size_t> accepted;
  for (const auto& o : result.outliers) accepted.push_back(o.key_index);
  EXPECT_EQ(fixed_keys(last.m), accepted);
  std::vector<size_t> previous = fixed_keys(protocol.rounds().end()[-2].m);
  std::sort(previous.begin(), previous.end());
  std::sort(accepted.begin(), accepted.end());
  EXPECT_EQ(previous, accepted);
}

TEST(AdaptiveProtocolTest, DegenerateSingleRoundEqualsFixedProtocol) {
  const size_t k = 4;
  TestCluster setup = MakeSetup(600, 8, k, 41);

  AdaptiveCsOptions options;
  options.initial_m = 200;
  options.max_m = 200;  // initial == max: one round.
  options.seed = 17;
  options.iterations = 12;
  AdaptiveCsProtocol adaptive(options);
  CommStats adaptive_comm;
  auto adaptive_result =
      adaptive.Run(*setup.cluster, k, &adaptive_comm).MoveValue();
  EXPECT_EQ(adaptive.rounds().size(), 1u);

  CsProtocolOptions fixed;
  fixed.m = 200;
  fixed.seed = 17;
  fixed.iterations = 12;
  CsOutlierProtocol fixed_protocol(fixed);
  CommStats fixed_comm;
  auto fixed_result =
      fixed_protocol.Run(*setup.cluster, k, &fixed_comm).MoveValue();

  ASSERT_EQ(adaptive_result.outliers.size(), fixed_result.outliers.size());
  for (size_t i = 0; i < fixed_result.outliers.size(); ++i) {
    EXPECT_EQ(adaptive_result.outliers[i].key_index,
              fixed_result.outliers[i].key_index);
  }
  EXPECT_EQ(adaptive_comm.bytes_total(), fixed_comm.bytes_total());
}

TEST(TwoPhaseProtocolTest, ValidatesOptions) {
  Cluster cluster(10);
  ASSERT_TRUE(cluster.AddNode({}).ok());
  CommStats comm;
  AdaptiveCsOptions bad;
  bad.strategy = AdaptiveStrategy::kTwoPhase;
  bad.locate_m = 0;
  EXPECT_FALSE(AdaptiveCsProtocol(bad).Run(cluster, 3, &comm).ok());
  bad.locate_m = 64;
  EXPECT_FALSE(AdaptiveCsProtocol(bad).Run(cluster, 3, nullptr).ok());
  Cluster empty(10);
  EXPECT_FALSE(AdaptiveCsProtocol(bad).Run(empty, 3, &comm).ok());
}

TEST(TwoPhaseProtocolTest, LocateThenRefineRecoversExactAnswer) {
  const size_t k = 5;
  TestCluster setup = MakeSetup(1000, 15, k, 51);

  AdaptiveCsOptions options;
  options.strategy = AdaptiveStrategy::kTwoPhase;
  options.locate_m = 200;
  options.seed = 9;
  options.iterations = 20;  // Past the sparsity: locate sees every outlier.
  AdaptiveCsProtocol protocol(options);
  EXPECT_EQ(protocol.name(), "TwoPhaseCS");
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, k, &comm).MoveValue();

  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(setup.truth, result), 0.0);
  // Refined values are overdetermined least squares on the candidate
  // columns — exact in the noiseless model, not just CS-approximate.
  EXPECT_LT(outlier::ErrorOnValue(setup.truth, result), 1e-6);

  ASSERT_EQ(protocol.rounds().size(), 2u);
  EXPECT_STREQ(protocol.rounds()[0].phase, "locate");
  EXPECT_STREQ(protocol.rounds()[1].phase, "refine");
  EXPECT_TRUE(protocol.rounds()[1].accepted);
  EXPECT_LT(protocol.rounds()[1].relative_residual, 1e-9);

  // Every pass is accounted under its own phase label.
  const auto& by_phase = comm.bytes_by_phase();
  ASSERT_TRUE(by_phase.count("locate-measurements"));
  ASSERT_TRUE(by_phase.count("support-broadcast"));
  ASSERT_TRUE(by_phase.count("refine-measurements"));
  EXPECT_EQ(by_phase.at("locate-measurements"),
            setup.cluster->num_nodes() * options.locate_m *
                kMeasurementBytes);
  EXPECT_EQ(comm.rounds(), 2u);
}

TEST(TwoPhaseProtocolTest, CheaperThanFixedMAtMatchedAccuracy) {
  const size_t k = 5;
  TestCluster setup = MakeSetup(1000, 15, k, 57);

  AdaptiveCsOptions options;
  options.strategy = AdaptiveStrategy::kTwoPhase;
  options.locate_m = 200;
  options.seed = 13;
  options.iterations = 20;
  AdaptiveCsProtocol two_phase(options);
  CommStats two_phase_comm;
  auto two_phase_result =
      two_phase.Run(*setup.cluster, k, &two_phase_comm).MoveValue();
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(setup.truth, two_phase_result), 0.0);

  // The fixed-M protocol needs M comfortably past the sparsity for the
  // same exactness (differential_test pins M >= 10s for its contract; 400
  // is the bench's fixed-M operating point for this workload family).
  CsProtocolOptions fixed;
  fixed.m = 400;
  fixed.seed = 13;
  fixed.iterations = 20;
  CsOutlierProtocol fixed_protocol(fixed);
  CommStats fixed_comm;
  auto fixed_result =
      fixed_protocol.Run(*setup.cluster, k, &fixed_comm).MoveValue();
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(setup.truth, fixed_result), 0.0);

  // The acceptance bar of ISSUE 8: >= 30% fewer measurement bytes.
  EXPECT_LE(two_phase_comm.bytes_total(),
            (fixed_comm.bytes_total() * 7) / 10);
}

TEST(TwoPhaseProtocolTest, DegradedModeExcludesFailedNodes) {
  const size_t k = 4;
  TestCluster setup = MakeSetup(600, 10, k, 61);

  AdaptiveCsOptions options;
  options.strategy = AdaptiveStrategy::kTwoPhase;
  options.locate_m = 160;
  options.seed = 17;
  options.iterations = 14;
  options.faults.crash_nodes = {setup.cluster->NodeIds()[0]};
  AdaptiveCsProtocol protocol(options);
  CommStats comm;
  ASSERT_TRUE(protocol.Run(*setup.cluster, k, &comm).ok());
  EXPECT_FALSE(protocol.last_collection().excluded_nodes.empty());
}

}  // namespace
}  // namespace csod::dist
