// Unit tests for the obs::Telemetry registry: counters, value histograms
// (power-of-two bucketing), trace spans, the disabled sink's no-op
// contract, and the deterministic-JSON snapshot guarantees of DESIGN.md §9.

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/engine.h"
#include "obs/telemetry.h"

namespace csod::obs {
namespace {

TEST(TelemetryTest, CountersAccumulateAndMissingReadsZero) {
  Telemetry t;
  EXPECT_TRUE(t.enabled());
  EXPECT_EQ(t.counter("never.recorded"), 0u);
  t.AddCounter("comm.retries");
  t.AddCounter("comm.retries", 4);
  t.AddCounter("comm.bytes.measurements", 4096);
  EXPECT_EQ(t.counter("comm.retries"), 5u);
  EXPECT_EQ(t.counter("comm.bytes.measurements"), 4096u);
}

TEST(TelemetryTest, ValueStatsTrackCountSumMinMax) {
  Telemetry t;
  t.RecordValue("bomp.iterations", 3.0);
  t.RecordValue("bomp.iterations", 7.0);
  t.RecordValue("bomp.iterations", 5.0);
  const ValueStats stats = t.value("bomp.iterations");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 15.0);
  EXPECT_DOUBLE_EQ(stats.min, 3.0);
  EXPECT_DOUBLE_EQ(stats.max, 7.0);
  // Missing histogram reads as empty.
  EXPECT_EQ(t.value("absent").count, 0u);
}

TEST(TelemetryTest, BucketsUsePowerOfTwoMagnitudes) {
  Telemetry t;
  // Bucket key e satisfies 2^(e-1) <= v < 2^e for positive v.
  t.RecordValue("h", 1.0);   // 2^0 <= 1 < 2^1   -> bucket 1
  t.RecordValue("h", 1.5);   // 2^0 <= 1.5 < 2^1 -> bucket 1
  t.RecordValue("h", 4.0);   // 2^2 <= 4 < 2^3   -> bucket 3
  t.RecordValue("h", 0.25);  // 2^-3 <= .25 < 2^-2 -> bucket -1
  t.RecordValue("h", 0.0);
  t.RecordValue("h", -8.0);
  const ValueStats stats = t.value("h");
  ASSERT_EQ(stats.buckets.size(), 5u);
  EXPECT_EQ(stats.buckets.at(1), 2u);
  EXPECT_EQ(stats.buckets.at(3), 1u);
  EXPECT_EQ(stats.buckets.at(-1), 1u);
  EXPECT_EQ(stats.buckets.at(ValueStats::kZeroBucket), 1u);
  EXPECT_EQ(stats.buckets.at(ValueStats::kNegativeBucket), 1u);
}

TEST(TelemetryTest, NonFiniteValuesDroppedAndTallied) {
  Telemetry t;
  t.RecordValue("omp.residual_norm", 1.0);
  t.RecordValue("omp.residual_norm", std::nan(""));
  t.RecordValue("omp.residual_norm",
                std::numeric_limits<double>::infinity());
  t.RecordValue("omp.residual_norm",
                -std::numeric_limits<double>::infinity());
  const ValueStats stats = t.value("omp.residual_norm");
  EXPECT_EQ(stats.count, 1u);  // Only the finite recording landed.
  EXPECT_DOUBLE_EQ(stats.sum, 1.0);
  EXPECT_EQ(t.counter("obs.nonfinite_dropped"), 3u);
}

TEST(TelemetryTest, TraceSpanRecordsOnDestruction) {
  Telemetry t;
  EXPECT_EQ(t.span("bomp.recover").count, 0u);
  {
    TraceSpan span(&t, "bomp.recover");
    EXPECT_EQ(t.span("bomp.recover").count, 0u);  // Not yet closed.
  }
  const SpanStats stats = t.span("bomp.recover");
  EXPECT_EQ(stats.count, 1u);
  EXPECT_GE(stats.total_seconds, 0.0);
  EXPECT_LE(stats.min_seconds, stats.max_seconds);
}

TEST(TelemetryTest, DisabledSinkIsANoOp) {
  Telemetry* off = Telemetry::Disabled();
  ASSERT_NE(off, nullptr);
  EXPECT_FALSE(off->enabled());
  off->AddCounter("comm.retries", 100);
  off->RecordValue("bomp.iterations", 5.0);
  off->RecordSpan("bomp.recover", 1.0);
  { TraceSpan span(off, "bomp.recover"); }
  { TraceSpan span(nullptr, "bomp.recover"); }  // Null is also safe.
  EXPECT_EQ(off->counter("comm.retries"), 0u);
  EXPECT_EQ(off->value("bomp.iterations").count, 0u);
  EXPECT_EQ(off->span("bomp.recover").count, 0u);
  // Same singleton on every call.
  EXPECT_EQ(off, Telemetry::Disabled());
}

TEST(TelemetryTest, ResetClearsEverything) {
  Telemetry t;
  t.AddCounter("c", 3);
  t.RecordValue("v", 2.0);
  t.RecordSpan("s", 0.5);
  t.Reset();
  EXPECT_EQ(t.counter("c"), 0u);
  EXPECT_EQ(t.value("v").count, 0u);
  EXPECT_EQ(t.span("s").count, 0u);
  EXPECT_EQ(t.SnapshotJson(), Telemetry().SnapshotJson());
}

TEST(TelemetryTest, DeterministicSnapshotIsByteStable) {
  // Two registries fed the same recording sequence — in a different
  // interleaving order across names — must snapshot byte-identically:
  // maps sort the keys and the per-name aggregates are order-free.
  Telemetry a;
  a.AddCounter("comm.rounds");
  a.AddCounter("comm.bytes.measurements", 800);
  a.RecordValue("bomp.iterations", 24.0);
  a.RecordValue("bomp.final_residual_norm", 1.25e-9);
  a.RecordSpan("protocol.cs", 0.010);

  Telemetry b;
  b.RecordSpan("protocol.cs", 0.999);  // Duration differs — omitted.
  b.RecordValue("bomp.final_residual_norm", 1.25e-9);
  b.AddCounter("comm.bytes.measurements", 800);
  b.RecordValue("bomp.iterations", 24.0);
  b.AddCounter("comm.rounds");

  EXPECT_EQ(a.SnapshotJson(), b.SnapshotJson());
  // Wall-clock durations make the non-deterministic snapshots differ.
  EXPECT_NE(a.SnapshotJson(/*deterministic=*/false),
            b.SnapshotJson(/*deterministic=*/false));
}

TEST(TelemetryTest, DeterministicSnapshotOmitsDurations) {
  Telemetry t;
  t.RecordSpan("protocol.cs", 0.125);
  const std::string deterministic = t.SnapshotJson(/*deterministic=*/true);
  EXPECT_EQ(deterministic.find("seconds"), std::string::npos);
  EXPECT_NE(deterministic.find("\"protocol.cs\": {\"count\": 1}"),
            std::string::npos);
  const std::string timed = t.SnapshotJson(/*deterministic=*/false);
  EXPECT_NE(timed.find("total_seconds"), std::string::npos);
}

TEST(TelemetryTest, SnapshotKeysAreSorted) {
  Telemetry t;
  t.AddCounter("zebra");
  t.AddCounter("alpha");
  t.AddCounter("mid");
  const std::string json = t.SnapshotJson();
  const size_t alpha = json.find("\"alpha\"");
  const size_t mid = json.find("\"mid\"");
  const size_t zebra = json.find("\"zebra\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zebra, std::string::npos);
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zebra);
  EXPECT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
}

TEST(TelemetryTest, SnapshotEscapesExoticNames) {
  Telemetry t;
  t.AddCounter("weird\"name\\with\nnoise");
  const std::string json = t.SnapshotJson();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnoise"), std::string::npos);
}

TEST(TelemetryTest, ConcurrentRecordingIsLossless) {
  Telemetry t;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      for (int j = 0; j < kPerThread; ++j) {
        t.AddCounter("contended");
        t.RecordValue("contended.values", 2.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(t.counter("contended"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const ValueStats stats = t.value("contended.values");
  EXPECT_EQ(stats.count, static_cast<uint64_t>(kThreads) * kPerThread);
  // All recorded values equal, so the float sum is order-independent too.
  EXPECT_DOUBLE_EQ(stats.sum, 2.0 * kThreads * kPerThread);
}

TEST(TelemetryTest, MapReduceShuffleTimingHistograms) {
  // The engine records per-task shuffle timings into value histograms:
  // one mr.shuffle.build_ms sample per map task (combine + radix
  // partition), one mr.shuffle.merge_ms sample per reduce task (group
  // build). Recorded serially after each parallel phase, so the sample
  // counts are exact, not racy.
  Telemetry t;
  mr::Job<int, uint64_t, double, double> job;
  job.map_fn = [](const std::vector<int>& split,
                  mr::Emitter<uint64_t, double>* out) {
    for (int v : split) out->Emit(static_cast<uint64_t>(v % 5), 1.0);
  };
  job.reduce_fn = [](mr::ReduceGroups<uint64_t, double>& groups,
                     std::vector<double>* out) {
    for (size_t g = 0; g < groups.size(); ++g) {
      out->push_back(static_cast<double>(groups.values(g).size()));
    }
  };
  job.tuple_bytes = 12;
  job.num_reduce_tasks = 3;
  job.telemetry = &t;
  auto result = mr::RunJob({{1, 2, 3}, {4, 5}, {6}, {7, 8}}, job);
  ASSERT_TRUE(result.ok());

  const ValueStats build = t.value("mr.shuffle.build_ms");
  EXPECT_EQ(build.count, 4u);  // One sample per map task.
  EXPECT_GE(build.min, 0.0);
  const ValueStats merge = t.value("mr.shuffle.merge_ms");
  EXPECT_EQ(merge.count, 3u);  // One sample per reduce task.
  EXPECT_GE(merge.min, 0.0);

  // A disabled sink records nothing — the zero-overhead contract extends
  // to the shuffle histograms.
  Telemetry* off = Telemetry::Disabled();
  job.telemetry = off;
  ASSERT_TRUE(mr::RunJob({{1, 2, 3}}, job).ok());
  EXPECT_EQ(off->value("mr.shuffle.build_ms").count, 0u);
}

}  // namespace
}  // namespace csod::obs
