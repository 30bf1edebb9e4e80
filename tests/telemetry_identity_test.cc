// Telemetry-off bit-identity test (ISSUE 4 satellite): attaching a live
// obs::Telemetry sink must not change a single bit of any protocol's
// answer or its communication accounting — instrumentation observes the
// pipeline, it never participates in it. Verified for every protocol in
// the repo under parallelism limits {1, 2, 8} and forced-portable SIMD
// (the deterministic dispatch floor), so a scheduling or dispatch change
// can't mask a telemetry-induced divergence.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/simd.h"
#include "dist/adaptive_cs_protocol.h"
#include "dist/all_protocol.h"
#include "dist/cs_protocol.h"
#include "dist/kplusdelta_protocol.h"
#include "obs/telemetry.h"
#include "outlier/outlier.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::dist {
namespace {

class ScopedParallelismLimit {
 public:
  explicit ScopedParallelismLimit(size_t limit)
      : previous_(GetParallelismLimit()) {
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

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bitwise comparison: EXPECT_DOUBLE_EQ would hide a ULP-level divergence,
// and "bit-identical with telemetry off" is the actual contract.
void ExpectBitIdentical(const outlier::OutlierSet& with,
                        const outlier::OutlierSet& without) {
  EXPECT_EQ(Bits(with.mode), Bits(without.mode));
  ASSERT_EQ(with.outliers.size(), without.outliers.size());
  for (size_t i = 0; i < with.outliers.size(); ++i) {
    EXPECT_EQ(with.outliers[i].key_index, without.outliers[i].key_index);
    EXPECT_EQ(Bits(with.outliers[i].value), Bits(without.outliers[i].value));
    EXPECT_EQ(Bits(with.outliers[i].divergence),
              Bits(without.outliers[i].divergence));
  }
}

void ExpectSameAccounting(const CommStats& with, const CommStats& without) {
  EXPECT_EQ(with.bytes_total(), without.bytes_total());
  EXPECT_EQ(with.tuples_total(), without.tuples_total());
  EXPECT_EQ(with.rounds(), without.rounds());
  EXPECT_EQ(with.bytes_by_phase(), without.bytes_by_phase());
}

std::unique_ptr<Cluster> MakeCluster(size_t n, size_t s, size_t num_nodes,
                                     workload::PartitionStrategy strategy,
                                     uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  auto global = workload::GenerateMajorityDominated(gen).Value();

  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  part.strategy = strategy;
  part.seed = seed + 1;
  if (strategy == workload::PartitionStrategy::kSkewedSplit) {
    part.cancellation_noise = 2000.0;
  }
  auto slices = workload::PartitionAdditive(global, part).Value();
  auto cluster = std::make_unique<Cluster>(n);
  for (auto& slice : slices) {
    EXPECT_TRUE(cluster->AddNode(std::move(slice)).ok());
  }
  return cluster;
}

// Runs `run` twice — once against a live sink, once against the disabled
// singleton — and checks the results and comm accounting match
// bit-for-bit. Also sanity-checks that the live run actually recorded
// something, so a silently detached sink can't trivially pass.
template <typename RunFn>
void ExpectTelemetryTransparent(RunFn run, bool expect_recording = true) {
  for (size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("parallelism limit " + std::to_string(limit));
    ScopedParallelismLimit parallelism(limit);
    ScopedSimdLevel simd_level(simd::Level::kPortable);

    obs::Telemetry live;
    CommStats comm_with, comm_without;
    const auto with = run(&live, &comm_with);
    const auto without = run(obs::Telemetry::Disabled(), &comm_without);
    ExpectBitIdentical(with, without);
    ExpectSameAccounting(comm_with, comm_without);
    if (expect_recording) {
      EXPECT_NE(live.SnapshotJson(), obs::Telemetry().SnapshotJson())
          << "live sink recorded nothing — instrumentation detached?";
    }
  }
}

TEST(TelemetryIdentityTest, AllProtocolBothEncodings) {
  auto cluster = MakeCluster(500, 15, 6,
                             workload::PartitionStrategy::kSkewedSplit, 31);
  for (auto encoding : {AllEncoding::kVectorized, AllEncoding::kKeyValue}) {
    ExpectTelemetryTransparent(
        [&](obs::Telemetry* telemetry, CommStats* comm) {
          AllTransmitProtocol all(encoding);
          all.set_telemetry(telemetry);
          return all.Run(*cluster, 5, comm).Value();
        });
  }
}

TEST(TelemetryIdentityTest, CsProtocolFaultFreeAndFaulty) {
  auto cluster = MakeCluster(800, 18, 8,
                             workload::PartitionStrategy::kSkewedSplit, 32);
  // Fault-free run (fused CompressAccumulate path).
  ExpectTelemetryTransparent([&](obs::Telemetry* telemetry, CommStats* comm) {
    CsProtocolOptions options;
    options.m = 220;
    options.seed = 77;
    options.iterations = 22;
    CsOutlierProtocol protocol(options);
    protocol.set_telemetry(telemetry);
    return protocol.Run(*cluster, 5, comm).Value();
  });
  // Faulty run (per-node path, retries and degraded aggregation live).
  ExpectTelemetryTransparent([&](obs::Telemetry* telemetry, CommStats* comm) {
    CsProtocolOptions options;
    options.m = 220;
    options.seed = 77;
    options.iterations = 22;
    options.faults.drop_rate = 0.3;
    options.faults.seed = 9;
    options.retry.max_retries = 3;
    CsOutlierProtocol protocol(options);
    protocol.set_telemetry(telemetry);
    return protocol.Run(*cluster, 5, comm).Value();
  });
}

TEST(TelemetryIdentityTest, AdaptiveCsProtocol) {
  auto cluster = MakeCluster(600, 12, 6,
                             workload::PartitionStrategy::kSkewedSplit, 33);
  ExpectTelemetryTransparent([&](obs::Telemetry* telemetry, CommStats* comm) {
    AdaptiveCsOptions options;
    options.initial_m = 32;
    options.max_m = 512;
    options.seed = 21;
    options.iterations = 16;
    AdaptiveCsProtocol protocol(options);
    protocol.set_telemetry(telemetry);
    return protocol.Run(*cluster, 5, comm).Value();
  });
}

TEST(TelemetryIdentityTest, TwoPhaseCsProtocol) {
  auto cluster = MakeCluster(600, 12, 6,
                             workload::PartitionStrategy::kSkewedSplit, 36);
  ExpectTelemetryTransparent([&](obs::Telemetry* telemetry, CommStats* comm) {
    AdaptiveCsOptions options;
    options.strategy = AdaptiveStrategy::kTwoPhase;
    options.locate_m = 180;
    options.seed = 23;
    options.iterations = 16;
    AdaptiveCsProtocol protocol(options);
    protocol.set_telemetry(telemetry);
    return protocol.Run(*cluster, 5, comm).Value();
  });
}

TEST(TelemetryIdentityTest, KPlusDeltaProtocol) {
  auto cluster = MakeCluster(500, 10, 5, workload::PartitionStrategy::kByKey,
                             34);
  ExpectTelemetryTransparent([&](obs::Telemetry* telemetry, CommStats* comm) {
    KPlusDeltaOptions options;
    options.delta = 40;
    options.seed = 11;
    KPlusDeltaProtocol protocol(options);
    protocol.set_telemetry(telemetry);
    return protocol.Run(*cluster, 5, comm).Value();
  });
}

}  // namespace
}  // namespace csod::dist
