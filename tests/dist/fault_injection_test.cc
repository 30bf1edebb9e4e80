// Fault-injection subsystem tests (docs/FAULT_MODEL.md): seeded
// determinism of the injector, channel accounting under faults, the
// coordinator's retry/timeout/backoff loop, and degraded-mode partial-sum
// recovery in the CS protocols.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "dist/adaptive_cs_protocol.h"
#include "dist/cs_protocol.h"
#include "dist/fault.h"
#include "outlier/metrics.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::dist {
namespace {

struct TestSetup {
  std::vector<double> global;
  std::unique_ptr<Cluster> cluster;
  outlier::OutlierSet truth;
};

TestSetup MakeSetup(size_t n, size_t s, size_t num_nodes, size_t k,
                    uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  TestSetup setup;
  setup.global = workload::GenerateMajorityDominated(gen).Value();

  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(setup.global, part).Value();

  setup.cluster = std::make_unique<Cluster>(n);
  for (auto& slice : slices) {
    EXPECT_TRUE(setup.cluster->AddNode(std::move(slice)).ok());
  }
  setup.truth = outlier::ExactKOutliers(setup.global, k);
  return setup;
}

// A small sparse slice used as the *crashed* node in degraded-recovery
// tests: when it is the only excluded node, the partial aggregate is
// exactly the generated global vector — still majority-dominated and
// s-sparse, so BOMP recovery of the degraded answer is exact.
cs::SparseSlice ExtraOutlierSlice() {
  cs::SparseSlice slice;
  slice.indices = {3, 50, 200};
  slice.values = {2500.0, -3100.0, 1800.0};
  return slice;
}

bool SameOutliers(const outlier::OutlierSet& a, const outlier::OutlierSet& b) {
  if (a.mode != b.mode || a.outliers.size() != b.outliers.size()) return false;
  for (size_t i = 0; i < a.outliers.size(); ++i) {
    if (a.outliers[i].key_index != b.outliers[i].key_index ||
        a.outliers[i].value != b.outliers[i].value) {
      return false;
    }
  }
  return true;
}

TEST(FaultInjectorTest, DecisionsAreAPureFunctionOfTheSeed) {
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_rate = 0.3;
  plan.straggler_rate = 0.2;
  plan.duplicate_rate = 0.1;
  plan.crash_rate = 0.05;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  plan.seed = 78;
  const FaultInjector c(plan);

  bool any_difference_from_c = false;
  for (NodeId node = 0; node < 16; ++node) {
    for (uint64_t round = 0; round < 4; ++round) {
      for (uint64_t attempt = 0; attempt < 4; ++attempt) {
        const Delivery da = a.Decide(node, round, attempt);
        const Delivery db = b.Decide(node, round, attempt);
        EXPECT_EQ(da.crashed, db.crashed);
        EXPECT_EQ(da.dropped, db.dropped);
        EXPECT_EQ(da.delay_ticks, db.delay_ticks);
        EXPECT_EQ(da.duplicated, db.duplicated);
        const Delivery dc = c.Decide(node, round, attempt);
        any_difference_from_c |=
            da.crashed != dc.crashed || da.dropped != dc.dropped ||
            da.delay_ticks != dc.delay_ticks || da.duplicated != dc.duplicated;
      }
    }
  }
  EXPECT_TRUE(any_difference_from_c);
}

TEST(FaultInjectorTest, ForcedCrashIsPermanent) {
  FaultPlan plan;
  plan.seed = 5;
  plan.crash_nodes = {3};
  const FaultInjector injector(plan);
  EXPECT_TRUE(injector.NodeCrashed(3));
  EXPECT_FALSE(injector.NodeCrashed(2));
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t attempt = 0; attempt < 5; ++attempt) {
      EXPECT_TRUE(injector.Decide(3, round, attempt).crashed);
      EXPECT_FALSE(injector.Decide(2, round, attempt).crashed);
    }
  }
}

TEST(RetryPolicyTest, TimeoutBacksOffExponentially) {
  RetryPolicy retry;
  retry.timeout_ticks = 4;
  retry.backoff = 2.0;
  EXPECT_EQ(retry.TimeoutForAttempt(0), 4u);
  EXPECT_EQ(retry.TimeoutForAttempt(1), 8u);
  EXPECT_EQ(retry.TimeoutForAttempt(2), 16u);
  EXPECT_EQ(retry.TimeoutForAttempt(3), 32u);
}

TEST(RetryPolicyTest, BackoffBelowOneClampsToFlatTimeouts) {
  // backoff < 1 would make every retry *stricter* than attempt 0; the
  // policy clamps it to 1 (flat), it never rejects or shrinks.
  RetryPolicy retry;
  retry.timeout_ticks = 6;
  retry.backoff = 0.25;
  for (size_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(retry.TimeoutForAttempt(attempt), 6u) << attempt;
  }
  retry.backoff = 1.0;  // Exactly flat is also valid.
  EXPECT_EQ(retry.TimeoutForAttempt(50), 6u);
  retry.backoff = -3.0;  // Nonsense negative backoff clamps the same way.
  EXPECT_EQ(retry.TimeoutForAttempt(7), 6u);
}

TEST(RetryPolicyTest, OverflowSaturatesToWaitForever) {
  RetryPolicy retry;
  retry.timeout_ticks = 1000;
  retry.backoff = 10.0;
  // 1000 * 10^16 = 10^19 > 2^63: saturated, not wrapped.
  EXPECT_EQ(retry.TimeoutForAttempt(16), UINT64_MAX);
  EXPECT_EQ(retry.TimeoutForAttempt(400), UINT64_MAX);  // Stays saturated.
  // The attempt just below the overflow threshold is still exact.
  EXPECT_EQ(retry.TimeoutForAttempt(3), 1000000u);
  // Once saturated, "wait forever" beats any finite delay.
  Delivery slow;
  slow.delay_ticks = UINT64_MAX - 1;
  EXPECT_TRUE(slow.Arrived(retry.TimeoutForAttempt(16)));
}

TEST(RetryPolicyTest, ZeroTimeoutAdmitsOnlyImmediateDeliveries) {
  // timeout_ticks == 0 is valid: the strictest policy, where only
  // zero-delay messages pass — it must not trip division or overflow
  // paths, and backoff multiplies 0 into 0 forever.
  RetryPolicy retry;
  retry.timeout_ticks = 0;
  retry.backoff = 2.0;
  for (size_t attempt = 0; attempt < 70; ++attempt) {
    EXPECT_EQ(retry.TimeoutForAttempt(attempt), 0u) << attempt;
  }
  Delivery on_time;
  EXPECT_TRUE(on_time.Arrived(retry.TimeoutForAttempt(0)));
  Delivery late;
  late.delay_ticks = 1;
  EXPECT_FALSE(late.Arrived(retry.TimeoutForAttempt(5)));
}

TEST(RetryPolicyTest, FractionalBackoffRoundsUpPerAttempt) {
  RetryPolicy retry;
  retry.timeout_ticks = 3;
  retry.backoff = 1.5;
  EXPECT_EQ(retry.TimeoutForAttempt(0), 3u);
  EXPECT_EQ(retry.TimeoutForAttempt(1), 5u);   // ceil(4.5)
  EXPECT_EQ(retry.TimeoutForAttempt(2), 7u);   // ceil(6.75)
  EXPECT_EQ(retry.TimeoutForAttempt(3), 11u);  // ceil(10.125)
}

TEST(DeliveryBoundaryTest, ArrivalAtExactlyTheTimeoutCounts) {
  // The timeout is inclusive: a message delayed by exactly timeout_ticks
  // arrived "within" the coordinator's wait. One tick more misses it.
  Delivery d;
  d.delay_ticks = 6;
  EXPECT_TRUE(d.Arrived(6));
  EXPECT_FALSE(d.Arrived(5));
  d.delay_ticks = 7;
  EXPECT_FALSE(d.Arrived(6));
  // Dropped and crashed messages never arrive, at any timeout.
  Delivery dropped;
  dropped.dropped = true;
  EXPECT_FALSE(dropped.Arrived(UINT64_MAX));
  Delivery crashed;
  crashed.crashed = true;
  EXPECT_FALSE(crashed.Arrived(UINT64_MAX));
}

TEST(DeliveryBoundaryTest, StragglerAtExactTimeoutNeedsNoRetry) {
  // End-to-end version of the boundary: every message straggles by
  // exactly timeout_ticks, so attempt 0 succeeds and no retry bytes or
  // re-requests exist anywhere in the accounting.
  FaultPlan plan;
  plan.seed = 31;
  plan.straggler_rate = 1.0;
  plan.straggler_delay_ticks = 4;
  const FaultInjector injector(plan);
  CommStats comm;
  Channel channel(&comm, &injector);
  channel.BeginRound();
  RetryPolicy retry;
  retry.timeout_ticks = 4;
  CollectionReport report;
  const std::vector<bool> delivered = CollectWithRetry(
      &channel, retry, {0, 1, 2}, "measurements", 10, kMeasurementBytes,
      &report);
  EXPECT_EQ(delivered, std::vector<bool>(3, true));
  EXPECT_EQ(report.retries, 0u);
  EXPECT_TRUE(report.excluded_nodes.empty());
  EXPECT_EQ(channel.fault_stats().delayed, 3u);
  EXPECT_EQ(comm.bytes_by_phase().count("measurements-retry"), 0u);
  EXPECT_EQ(comm.bytes_by_phase().count("retry-request"), 0u);
  EXPECT_EQ(comm.bytes_total(), 3u * 10u * kMeasurementBytes);
}

TEST(DeliveryBoundaryTest, DuplicateDedupPaysBytesOnceDeliversOnce) {
  // Every message is transmitted twice; the coordinator dedups by
  // (node, round, attempt). The wire pays for both copies — same phase,
  // double the bytes — but each node is delivered exactly once and no
  // retry machinery engages.
  FaultPlan plan;
  plan.seed = 77;
  plan.duplicate_rate = 1.0;
  const FaultInjector injector(plan);
  CommStats comm;
  Channel channel(&comm, &injector);
  channel.BeginRound();
  RetryPolicy retry;
  CollectionReport report;
  const std::vector<bool> delivered = CollectWithRetry(
      &channel, retry, {0, 1, 2, 3}, "measurements", 25, kMeasurementBytes,
      &report);
  EXPECT_EQ(delivered, std::vector<bool>(4, true));
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(channel.fault_stats().attempts, 4u);  // Per-attempt, not per-copy.
  EXPECT_EQ(channel.fault_stats().duplicates, 4u);
  // Both copies land in the same phase bucket: 2 × 4 nodes × 25 tuples.
  EXPECT_EQ(comm.bytes_by_phase().at("measurements"),
            2u * 4u * 25u * kMeasurementBytes);
  EXPECT_EQ(comm.tuples_total(), 2u * 4u * 25u);
}

TEST(ChannelFaultTest, NoInjectorMatchesDirectAccounting) {
  CommStats direct;
  direct.BeginRound();
  direct.Account("phase-a", 10, kMeasurementBytes);
  direct.Account("phase-b", 3, kKeyValueBytes);

  CommStats via_channel;
  Channel channel(&via_channel);
  channel.BeginRound();
  const Delivery d = channel.Send(0, "phase-a", 10, kMeasurementBytes);
  channel.Control("phase-b", 3, kKeyValueBytes);

  EXPECT_TRUE(d.Arrived(0));
  EXPECT_FALSE(d.duplicated);
  EXPECT_EQ(via_channel.bytes_total(), direct.bytes_total());
  EXPECT_EQ(via_channel.tuples_total(), direct.tuples_total());
  EXPECT_EQ(via_channel.rounds(), direct.rounds());
  EXPECT_EQ(via_channel.bytes_by_phase(), direct.bytes_by_phase());
}

TEST(ChannelFaultTest, DuplicateCostsTwiceCrashCostsNothing) {
  FaultPlan plan;
  plan.seed = 9;
  plan.duplicate_rate = 1.0;
  plan.crash_nodes = {7};
  const FaultInjector injector(plan);
  CommStats comm;
  Channel channel(&comm, &injector);
  channel.BeginRound();

  const Delivery dup = channel.Send(1, "measurements", 10, kMeasurementBytes);
  EXPECT_TRUE(dup.duplicated);
  EXPECT_TRUE(dup.Arrived(0));
  EXPECT_EQ(comm.bytes_total(), 2u * 10u * kMeasurementBytes);

  const Delivery dead = channel.Send(7, "measurements", 10, kMeasurementBytes);
  EXPECT_TRUE(dead.crashed);
  EXPECT_FALSE(dead.Arrived(1000));
  EXPECT_EQ(comm.bytes_total(), 2u * 10u * kMeasurementBytes);
  EXPECT_EQ(channel.fault_stats().duplicates, 1u);
  EXPECT_EQ(channel.fault_stats().crashed, 1u);
}

TEST(ChannelFaultTest, SendKeysFaultDrawsOnTheCurrentRound) {
  // Regression: Channel::BeginRound once derived its round key from a
  // dead `rounds() == 0` branch, so every Send drew faults as round 0 and
  // multi-round protocols never re-drew. Pin the contract: after the Nth
  // BeginRound (1-based), Send(node, ..., attempt) must decide exactly as
  // FaultInjector::Decide(node, N - 1, attempt).
  FaultPlan plan;
  plan.seed = 21;
  plan.drop_rate = 0.4;
  plan.straggler_rate = 0.3;
  plan.duplicate_rate = 0.2;
  const FaultInjector injector(plan);
  CommStats comm;
  Channel channel(&comm, &injector);

  bool rounds_diverged = false;
  Delivery first_round_draw;
  for (uint64_t n = 1; n <= 6; ++n) {
    channel.BeginRound();
    for (uint64_t attempt = 0; attempt < 3; ++attempt) {
      const Delivery expected = injector.Decide(2, n - 1, attempt);
      const Delivery got =
          channel.Send(2, "measurements", 4, kMeasurementBytes, attempt);
      EXPECT_EQ(got.crashed, expected.crashed) << "round " << n;
      EXPECT_EQ(got.dropped, expected.dropped) << "round " << n;
      EXPECT_EQ(got.delay_ticks, expected.delay_ticks) << "round " << n;
      EXPECT_EQ(got.duplicated, expected.duplicated) << "round " << n;
      if (attempt == 0) {
        if (n == 1) {
          first_round_draw = got;
        } else if (got.dropped != first_round_draw.dropped ||
                   got.delay_ticks != first_round_draw.delay_ticks ||
                   got.duplicated != first_round_draw.duplicated) {
          rounds_diverged = true;
        }
      }
    }
  }
  // With these rates at this seed, later rounds draw differently from
  // round 0 — the observable symptom the dead branch suppressed.
  EXPECT_TRUE(rounds_diverged);
}

TEST(CsProtocolFaultTest, StragglerRetriesThenSucceedsWithRetryPhaseBytes) {
  // Every message straggles by 6 ticks; the first attempt times out at 4,
  // the re-requested attempt waits 8 and succeeds. The answer must be
  // bit-identical to a fault-free run — only the accounting differs.
  const size_t n = 600;
  const size_t s = 12;
  const size_t k = 5;
  const size_t num_nodes = 6;
  TestSetup setup = MakeSetup(n, s, num_nodes, k, 101);

  CsProtocolOptions options;
  options.m = 180;
  options.seed = 13;
  options.iterations = s + 4;

  CsOutlierProtocol clean(options);
  CommStats clean_comm;
  auto clean_result = clean.Run(*setup.cluster, k, &clean_comm);
  ASSERT_TRUE(clean_result.ok());

  options.faults.seed = 42;
  options.faults.straggler_rate = 1.0;
  options.faults.straggler_delay_ticks = 6;
  options.retry.timeout_ticks = 4;
  options.retry.backoff = 2.0;
  options.retry.max_retries = 2;
  CsOutlierProtocol faulty(options);
  CommStats comm;
  auto result = faulty.Run(*setup.cluster, k, &comm);
  ASSERT_TRUE(result.ok());

  EXPECT_TRUE(SameOutliers(clean_result.Value(), result.Value()));
  EXPECT_FALSE(faulty.last_collection().degraded());
  EXPECT_EQ(faulty.last_collection().retries, num_nodes);

  // Retry traffic is separable from first-attempt traffic by phase label.
  const auto& by_phase = comm.bytes_by_phase();
  ASSERT_TRUE(by_phase.count("measurements"));
  ASSERT_TRUE(by_phase.count("measurements-retry"));
  ASSERT_TRUE(by_phase.count("retry-request"));
  EXPECT_EQ(by_phase.at("measurements"),
            num_nodes * options.m * kMeasurementBytes);
  EXPECT_EQ(by_phase.at("measurements-retry"),
            num_nodes * options.m * kMeasurementBytes);
  EXPECT_EQ(by_phase.at("retry-request"), num_nodes * kValueBytes);
  EXPECT_EQ(clean_comm.bytes_by_phase().count("measurements-retry"), 0u);
}

TEST(CsProtocolFaultTest, RetryExhaustedRecoversFromPartialSum) {
  // The ISSUE acceptance scenario: 1 of 16 nodes crashed before sending,
  // retries exhausted — the protocol still answers, reports the excluded
  // node, and its answer is the *exact* answer for the partial aggregate
  // Σ_{alive} x_l (CS linearity).
  const size_t n = 1200;
  const size_t s = 20;
  const size_t k = 5;
  TestSetup setup = MakeSetup(n, s, 15, k, 303);
  const NodeId crashed =
      setup.cluster->AddNode(ExtraOutlierSlice()).Value();
  setup.truth = outlier::ExactKOutliers(setup.cluster->GlobalAggregate(), k);

  CsProtocolOptions options;
  options.m = 320;
  options.seed = 21;
  options.iterations = 2 * s;
  options.faults.seed = 8;
  options.faults.crash_nodes = {crashed};
  options.retry.max_retries = 2;
  CsOutlierProtocol protocol(options);
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, k, &comm);
  ASSERT_TRUE(result.ok());

  const CollectionReport& report = protocol.last_collection();
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.nodes_total, 16u);
  ASSERT_EQ(report.excluded_nodes.size(), 1u);
  EXPECT_EQ(report.excluded_nodes[0], crashed);
  // The crashed node transmitted nothing; 15 nodes paid first-attempt
  // bytes and the coordinator paid 2 futile re-requests.
  EXPECT_EQ(comm.bytes_by_phase().at("measurements"),
            15u * options.m * kMeasurementBytes);
  EXPECT_EQ(comm.bytes_by_phase().at("retry-request"),
            options.retry.max_retries * kValueBytes);

  // Degraded recovery == exact recovery of the partial aggregate.
  const outlier::OutlierSet partial_truth = outlier::ExactKOutliers(
      setup.cluster->GlobalAggregateExcluding(report.excluded_nodes), k);
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(partial_truth, result.Value()), 0.0);
  EXPECT_LT(outlier::ErrorOnValue(partial_truth, result.Value()), 1e-6);

  // Degraded-run accounting against the *full-cluster* truth.
  const outlier::DegradedRunStats stats = outlier::EvaluateDegradedRun(
      setup.truth, result.Value(), report.nodes_total,
      report.excluded_nodes.size(), report.retries);
  EXPECT_EQ(stats.nodes_excluded, 1u);
  EXPECT_NEAR(stats.excluded_fraction(), 1.0 / 16.0, 1e-12);
  EXPECT_GE(stats.quality.recall, 0.0);
  EXPECT_LE(stats.quality.recall, 1.0);
}

TEST(CsProtocolFaultTest, ZeroRatePlanIsBitIdenticalToFaultFreeRun) {
  const size_t k = 5;
  TestSetup setup = MakeSetup(500, 10, 8, k, 505);

  CsProtocolOptions options;
  options.m = 150;
  options.seed = 7;
  options.iterations = 14;
  CsOutlierProtocol plain(options);

  CsProtocolOptions zero = options;
  zero.faults.seed = 12345;  // Seed set, every rate zero: no injector.
  CsOutlierProtocol with_plan(zero);

  CommStats comm_a, comm_b;
  auto a = plain.Run(*setup.cluster, k, &comm_a);
  auto b = with_plan.Run(*setup.cluster, k, &comm_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameOutliers(a.Value(), b.Value()));
  EXPECT_EQ(comm_a.bytes_total(), comm_b.bytes_total());
  EXPECT_EQ(comm_a.bytes_by_phase(), comm_b.bytes_by_phase());
  EXPECT_FALSE(with_plan.last_collection().degraded());
}

TEST(CsProtocolFaultTest, SameFaultSeedSameRunDifferentSeedMayDiffer) {
  const size_t k = 5;
  TestSetup setup = MakeSetup(800, 15, 8, k, 707);

  CsProtocolOptions options;
  options.m = 220;
  options.seed = 3;
  options.iterations = 20;
  options.faults.seed = 99;
  options.faults.drop_rate = 0.45;
  options.retry.max_retries = 1;  // Tight budget: some nodes get excluded.

  CsOutlierProtocol first(options);
  CsOutlierProtocol second(options);
  CommStats comm_a, comm_b;
  auto a = first.Run(*setup.cluster, k, &comm_a);
  auto b = second.Run(*setup.cluster, k, &comm_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameOutliers(a.Value(), b.Value()));
  EXPECT_EQ(comm_a.bytes_total(), comm_b.bytes_total());
  EXPECT_EQ(first.last_collection().excluded_nodes,
            second.last_collection().excluded_nodes);
  EXPECT_EQ(first.last_collection().retries, second.last_collection().retries);
  // The fault history under this seed produced retries (checked so the
  // determinism assertions above are not vacuous).
  EXPECT_GT(first.last_collection().retries, 0u);
}

TEST(CsProtocolFaultTest, AllNodesCrashedIsAnError) {
  TestSetup setup = MakeSetup(300, 6, 3, 5, 111);
  CsProtocolOptions options;
  options.m = 100;
  options.iterations = 10;
  options.faults.crash_nodes = setup.cluster->NodeIds();
  CsOutlierProtocol protocol(options);
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, 5, &comm);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AdaptiveFaultTest, CrashedNodeExcludedOnceAcrossRounds) {
  const size_t k = 5;
  TestSetup setup = MakeSetup(900, 12, 7, k, 606);
  const NodeId crashed =
      setup.cluster->AddNode(ExtraOutlierSlice()).Value();

  AdaptiveCsOptions options;
  options.initial_m = 32;
  options.max_m = 512;
  options.seed = 17;
  options.iterations = 12 + 8;
  options.faults.seed = 4;
  options.faults.crash_nodes = {crashed};
  options.retry.max_retries = 1;
  AdaptiveCsProtocol protocol(options);
  CommStats comm;
  auto result = protocol.Run(*setup.cluster, k, &comm);
  ASSERT_TRUE(result.ok());

  const CollectionReport& report = protocol.last_collection();
  ASSERT_EQ(report.excluded_nodes.size(), 1u);  // Once, not once per round.
  EXPECT_EQ(report.excluded_nodes[0], crashed);
  EXPECT_GT(protocol.rounds().size(), 0u);

  // Degraded adaptive recovery matches the partial-aggregate truth.
  const outlier::OutlierSet partial_truth = outlier::ExactKOutliers(
      setup.cluster->GlobalAggregateExcluding({crashed}), k);
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(partial_truth, result.Value()), 0.0);
}

TEST(AdaptiveFaultTest, ZeroFaultPlanKeepsAccountingIdentical) {
  const size_t k = 5;
  TestSetup setup = MakeSetup(700, 10, 6, k, 808);
  AdaptiveCsOptions options;
  options.initial_m = 32;
  options.max_m = 512;
  options.seed = 11;
  options.iterations = 18;

  AdaptiveCsProtocol plain(options);
  AdaptiveCsOptions zero = options;
  zero.faults.seed = 999;  // Rates all zero: no injector attached.
  AdaptiveCsProtocol with_plan(zero);

  CommStats comm_a, comm_b;
  auto a = plain.Run(*setup.cluster, k, &comm_a);
  auto b = with_plan.Run(*setup.cluster, k, &comm_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameOutliers(a.Value(), b.Value()));
  EXPECT_EQ(comm_a.bytes_total(), comm_b.bytes_total());
  EXPECT_EQ(comm_a.rounds(), comm_b.rounds());
}

TEST(ClusterDegradedTest, GlobalAggregateExcludingSubtractsSlices) {
  Cluster cluster(4);
  cs::SparseSlice a;
  a.indices = {0, 1};
  a.values = {1.0, 2.0};
  cs::SparseSlice b;
  b.indices = {1, 3};
  b.values = {10.0, 20.0};
  const NodeId id_a = cluster.AddNode(std::move(a)).Value();
  const NodeId id_b = cluster.AddNode(std::move(b)).Value();

  const std::vector<double> full = cluster.GlobalAggregate();
  EXPECT_EQ(full, (std::vector<double>{1.0, 12.0, 0.0, 20.0}));
  EXPECT_EQ(cluster.GlobalAggregateExcluding({id_b}),
            (std::vector<double>{1.0, 2.0, 0.0, 0.0}));
  EXPECT_EQ(cluster.GlobalAggregateExcluding({id_a, id_b}),
            (std::vector<double>(4, 0.0)));
  EXPECT_EQ(cluster.GlobalAggregateExcluding({}), full);
}

TEST(MetricsDegradedTest, KeyQualitySeparatesPrecisionFromRecall) {
  auto set_of = [](std::vector<size_t> keys) {
    outlier::OutlierSet s;
    for (size_t key : keys) {
      s.outliers.push_back(outlier::Outlier{key, 1.0, 1.0});
    }
    return s;
  };
  const outlier::OutlierSet truth = set_of({1, 2, 3, 4});

  const outlier::KeySetQuality half = outlier::KeyQuality(truth,
                                                          set_of({1, 2, 5, 6}));
  EXPECT_DOUBLE_EQ(half.precision, 0.5);
  EXPECT_DOUBLE_EQ(half.recall, 0.5);
  EXPECT_DOUBLE_EQ(half.f1, 0.5);

  // A short (degraded) estimate: precise but incomplete.
  const outlier::KeySetQuality short_est =
      outlier::KeyQuality(truth, set_of({1, 2}));
  EXPECT_DOUBLE_EQ(short_est.precision, 1.0);
  EXPECT_DOUBLE_EQ(short_est.recall, 0.5);

  const outlier::KeySetQuality empty = outlier::KeyQuality(truth, set_of({}));
  EXPECT_DOUBLE_EQ(empty.precision, 1.0);
  EXPECT_DOUBLE_EQ(empty.recall, 0.0);
  EXPECT_DOUBLE_EQ(empty.f1, 0.0);
}

TEST(CoreDegradedTest, DetectExcludingMatchesDetectorWithoutTheSource) {
  const size_t n = 500;
  const size_t k = 5;
  TestSetup setup = MakeSetup(n, 10, 3, k, 121);

  core::DetectorOptions options;
  options.n = n;
  options.m = 150;
  options.seed = 31;
  options.iterations = 14;

  auto full = core::DistributedOutlierDetector::Create(options).MoveValue();
  auto partial = core::DistributedOutlierDetector::Create(options).MoveValue();
  std::vector<core::SourceId> ids;
  for (NodeId node : setup.cluster->NodeIds()) {
    const cs::SparseSlice* slice = setup.cluster->Slice(node).Value();
    ids.push_back(full->AddSource(*slice).Value());
    partial->AddSource(*slice).Value();
  }
  ids.push_back(full->AddSource(ExtraOutlierSlice()).Value());

  // Subtracting the excluded sketch from the global measurement and
  // summing only the surviving sketches differ by floating-point rounding,
  // so compare by key set and value tolerance, not bitwise.
  auto degraded = full->DetectExcluding({ids.back()}, k);
  ASSERT_TRUE(degraded.ok());
  auto reference = partial->Detect(k);
  ASSERT_TRUE(reference.ok());
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(reference.Value(), degraded.Value()),
                   0.0);
  EXPECT_LT(outlier::ErrorOnValue(reference.Value(), degraded.Value()), 1e-9);
  EXPECT_NEAR(degraded.Value().mode, reference.Value().mode, 1e-6);

  // Sources stay registered: a later full Detect sees all of them.
  EXPECT_EQ(full->num_sources(), ids.size());
  EXPECT_FALSE(full->DetectExcluding({9999}, k).ok());
  EXPECT_FALSE(full->DetectExcluding(ids, k).ok());  // Nothing left.
  EXPECT_FALSE(full->DetectExcluding({ids[0], ids[0]}, k).ok());  // Dup.
}

}  // namespace
}  // namespace csod::dist
