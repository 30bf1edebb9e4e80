#include "mapreduce/engine.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/telemetry.h"

namespace csod::mr {
namespace {

// A word-count-style job: inputs are ints, key = value % 3, reduce sums.
Job<int, int, int, std::pair<int, int>> ModuloCountJob() {
  Job<int, int, int, std::pair<int, int>> job;
  job.map_fn = [](const std::vector<int>& split, Emitter<int, int>* out) {
    for (int v : split) out->Emit(v % 3, 1);
  };
  job.reduce_fn = [](ReduceGroups<int, int>& groups,
                     std::vector<std::pair<int, int>>* out) {
    for (size_t g = 0; g < groups.size(); ++g) {
      int total = 0;
      for (int v : groups.values(g)) total += v;
      out->emplace_back(groups.key(g), total);
    }
  };
  job.tuple_bytes = 12;
  return job;
}

TEST(EngineTest, CountsCorrectly) {
  auto job = ModuloCountJob();
  const std::vector<std::vector<int>> splits = {{0, 1, 2, 3}, {4, 5, 6}};
  auto result = RunJob(splits, job);
  ASSERT_TRUE(result.ok());
  // 0,3,6 -> key 0 (3); 1,4 -> key 1 (2); 2,5 -> key 2 (2).
  std::map<int, int> counts;
  for (auto& [k, c] : result.Value().output) counts[k] = c;
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
}

TEST(EngineTest, StatsAccounting) {
  auto job = ModuloCountJob();
  const std::vector<std::vector<int>> splits = {{0, 1, 2, 3}, {4, 5, 6}};
  auto result = RunJob(splits, job);
  ASSERT_TRUE(result.ok());
  const JobStats& stats = result.Value().stats;
  EXPECT_EQ(stats.num_map_tasks, 2u);
  EXPECT_EQ(stats.num_reduce_tasks, 1u);
  EXPECT_EQ(stats.input_bytes, 7u * kInputRecordBytes);
  EXPECT_EQ(stats.shuffle_tuples, 7u);  // One pair per record.
  EXPECT_EQ(stats.shuffle_bytes, 7u * 12);
  // No combiner: pre-combine volume equals shipped volume.
  EXPECT_EQ(stats.pre_combine_shuffle_tuples, stats.shuffle_tuples);
  EXPECT_EQ(stats.pre_combine_shuffle_bytes, stats.shuffle_bytes);
  EXPECT_EQ(stats.output_records, 3u);
  EXPECT_GE(stats.map_compute_sec, 0.0);
  EXPECT_GE(stats.reduce_compute_sec, 0.0);
  EXPECT_GE(stats.shuffle_build_sec, 0.0);
  // Per-task max never exceeds the per-task sum.
  EXPECT_LE(stats.map_compute_max_sec, stats.map_compute_sec + 1e-12);
  EXPECT_LE(stats.reduce_compute_max_sec, stats.reduce_compute_sec + 1e-12);
  EXPECT_GE(stats.map_wall_sec, 0.0);
  EXPECT_GE(stats.shuffle_wall_sec, 0.0);
  EXPECT_GE(stats.reduce_wall_sec, 0.0);
}

TEST(EngineTest, TaskReduceSeesWholePartition) {
  Job<int, int, int, int> job;
  job.map_fn = [](const std::vector<int>& split, Emitter<int, int>* out) {
    for (int v : split) out->Emit(v, v);
  };
  job.reduce_fn = [](ReduceGroups<int, int>& groups, std::vector<int>* out) {
    out->push_back(static_cast<int>(groups.size()));
  };
  job.tuple_bytes = 8;
  auto result = RunJob({{1, 2, 3}, {3, 4}}, job);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.Value().output.size(), 1u);
  EXPECT_EQ(result.Value().output[0], 4);  // Keys 1..4.
}

TEST(EngineTest, MultipleReduceTasksPartitionKeys) {
  Job<int, int, int, std::pair<int, int>> job = ModuloCountJob();
  job.num_reduce_tasks = 3;
  const std::vector<std::vector<int>> splits = {{0, 1, 2, 3, 4, 5}};
  auto result = RunJob(splits, job);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.Value().stats.num_reduce_tasks, 3u);
  EXPECT_EQ(result.Value().output.size(), 3u);
}

TEST(EngineTest, ConfigValidation) {
  Job<int, int, int, int> job;
  const std::vector<std::vector<int>> one_split = {{1}};
  job.reduce_fn = [](ReduceGroups<int, int>&, std::vector<int>*) {};
  job.tuple_bytes = 4;
  EXPECT_FALSE(RunJob(one_split, job).ok());  // no map_fn
  job.map_fn = [](const std::vector<int>&, Emitter<int, int>*) {};
  job.reduce_fn = nullptr;
  EXPECT_FALSE(RunJob(one_split, job).ok());  // no reduce_fn
  job.reduce_fn = [](ReduceGroups<int, int>&, std::vector<int>*) {};
  job.tuple_bytes = 0;
  EXPECT_FALSE(RunJob(one_split, job).ok());  // no tuple size
  job.tuple_bytes = 4;
  job.num_reduce_tasks = 0;
  EXPECT_FALSE(RunJob(one_split, job).ok());
  job.num_reduce_tasks = 1;
  EXPECT_TRUE(RunJob(one_split, job).ok());
}

TEST(EngineTest, EmptySplitsProduceNothing) {
  auto job = ModuloCountJob();
  auto result = RunJob(std::vector<std::vector<int>>{}, job);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.Value().output.empty());
  EXPECT_EQ(result.Value().stats.num_map_tasks, 0u);
}

// --- Default partitioner: the fixed splitmix64 mixer. ---

TEST(DefaultPartitionTest, PinnedUint64Assignments) {
  // SplitMix64 of the key value, pinned byte-for-byte: a platform or
  // standard-library change that reassigned reduce tasks (std::hash is
  // identity for integers on libstdc++, something else elsewhere) fails
  // here. Values computed from the SplitMix64 reference constants.
  static_assert(sizeof(size_t) == 8, "partition pinning assumes 64-bit");
  EXPECT_EQ(DefaultPartition<uint64_t>(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(2), 0x975835de1c9756ceULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(7), 0x63cbe1e459320dd7ULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(1000), 0x3c1eba8b4dccc148ULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(123456789), 0x223c74d93deb7679ULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(0xdeadbeefULL),
            0x4adfb90f68c9eb9bULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(uint64_t{1} << 63),
            0x481ec0a212a9f3dbULL);
  EXPECT_EQ(DefaultPartition<uint64_t>(~uint64_t{0}), 0xe4d971771b652c20ULL);
  // The reduce-task assignments the engine derives from them.
  EXPECT_EQ(DefaultPartition<uint64_t>(0) % 8, 7u);
  EXPECT_EQ(DefaultPartition<uint64_t>(1) % 8, 1u);
  EXPECT_EQ(DefaultPartition<uint64_t>(2) % 8, 6u);
  EXPECT_EQ(DefaultPartition<uint64_t>(1000) % 3, 1u);
  EXPECT_EQ(DefaultPartition<uint64_t>(123456789) % 3, 2u);
  // Narrow integral key types agree with their widened value.
  EXPECT_EQ(DefaultPartition<uint32_t>(42), DefaultPartition<uint64_t>(42));
  EXPECT_EQ(DefaultPartition<int>(1000), DefaultPartition<uint64_t>(1000));
}

TEST(DefaultPartitionTest, UnskewsStructuredIntegerKeys) {
  // Keys that are all multiples of 8 under 8 reduce tasks: identity
  // hashing sends every key to task 0; the mixer uses every task.
  std::array<size_t, 8> counts{};
  for (uint64_t i = 0; i < 64; ++i) {
    counts[DefaultPartition<uint64_t>(8 * i) % 8]++;
  }
  size_t used = 0;
  for (size_t c : counts) {
    if (c > 0) ++used;
    EXPECT_LE(c, 24u) << "one reduce task absorbed most structured keys";
  }
  EXPECT_GE(used, 6u);
}

TEST(EngineTest, DefaultPartitionerDrivesTaskAssignment) {
  // Engine-level pin: with structured uint64 keys and 8 reduce tasks the
  // output order (tasks in order, keys sorted within a task) must match
  // the assignment DefaultPartition predicts.
  Job<uint64_t, uint64_t, int, uint64_t> job;
  job.map_fn = [](const std::vector<uint64_t>& split,
                  Emitter<uint64_t, int>* out) {
    for (uint64_t v : split) out->Emit(v, 1);
  };
  job.reduce_fn = [](ReduceGroups<uint64_t, int>& groups,
                     std::vector<uint64_t>* out) {
    for (size_t g = 0; g < groups.size(); ++g) out->push_back(groups.key(g));
  };
  job.tuple_bytes = 12;
  job.num_reduce_tasks = 8;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 32; ++i) keys.push_back(8 * i);
  auto result = RunJob({keys}, job);
  ASSERT_TRUE(result.ok());

  std::vector<uint64_t> expected;
  for (size_t task = 0; task < 8; ++task) {
    std::vector<uint64_t> in_task;
    for (uint64_t key : keys) {
      if (DefaultPartition<uint64_t>(key) % 8 == task) in_task.push_back(key);
    }
    std::sort(in_task.begin(), in_task.end());
    expected.insert(expected.end(), in_task.begin(), in_task.end());
  }
  EXPECT_EQ(result.Value().output, expected);
}

TEST(EngineTest, DeterministicReduceOrder) {
  // Keys inside a reduce task are processed in sorted order.
  Job<int, int, int, int> job;
  job.map_fn = [](const std::vector<int>& split, Emitter<int, int>* out) {
    for (int v : split) out->Emit(v, v);
  };
  job.reduce_fn = [](ReduceGroups<int, int>& groups, std::vector<int>* out) {
    for (size_t g = 0; g < groups.size(); ++g) out->push_back(groups.key(g));
  };
  job.tuple_bytes = 8;
  auto result = RunJob({{5, 3, 9, 1}}, job);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.Value().output, (std::vector<int>{1, 3, 5, 9}));
}

// --- Determinism suite: the parallel executor's output must be invariant
// across reduce-task counts, thread limits, and combiner
// on/off (exactly — the values below are integer-valued doubles, so even
// float accumulation is order-exact). ---

// Sum-per-key job over uint64 keys with structured collisions.
Job<uint64_t, uint64_t, double, std::pair<uint64_t, double>> SumJob() {
  Job<uint64_t, uint64_t, double, std::pair<uint64_t, double>> job;
  job.map_fn = [](const std::vector<uint64_t>& split,
                  Emitter<uint64_t, double>* out) {
    for (uint64_t v : split) {
      out->Emit(v % 17, static_cast<double>(v % 7 + 1));
    }
  };
  job.reduce_fn = [](ReduceGroups<uint64_t, double>& groups,
                     std::vector<std::pair<uint64_t, double>>* out) {
    for (size_t g = 0; g < groups.size(); ++g) {
      double sum = 0.0;
      for (double v : groups.values(g)) sum += v;
      out->emplace_back(groups.key(g), sum);
    }
  };
  job.tuple_bytes = 12;
  return job;
}

std::vector<std::vector<uint64_t>> SumJobSplits() {
  std::vector<std::vector<uint64_t>> splits(6);
  for (uint64_t v = 0; v < 600; ++v) splits[v % 6].push_back(v * 37 + 11);
  return splits;
}

std::vector<std::pair<uint64_t, double>> SortedByKey(
    std::vector<std::pair<uint64_t, double>> output) {
  std::sort(output.begin(), output.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return output;
}

TEST(EngineDeterminismTest, OutputInvariantAcrossReduceTaskCounts) {
  const auto splits = SumJobSplits();
  auto job = SumJob();
  job.num_reduce_tasks = 1;
  auto reference = RunJob(splits, job);
  ASSERT_TRUE(reference.ok());
  for (size_t tasks : {3u, 8u}) {
    job.num_reduce_tasks = tasks;
    auto result = RunJob(splits, job);
    ASSERT_TRUE(result.ok());
    // Same keys, bit-identical sums — only the concatenation order moves.
    EXPECT_EQ(SortedByKey(result.Value().output),
              SortedByKey(reference.Value().output))
        << "num_reduce_tasks = " << tasks;
    EXPECT_EQ(result.Value().stats.shuffle_bytes,
              reference.Value().stats.shuffle_bytes);
  }
}

TEST(EngineDeterminismTest, BitIdenticalAcrossThreadLimits) {
  const auto splits = SumJobSplits();
  auto job = SumJob();
  job.num_reduce_tasks = 4;
  const size_t previous_limit = GetParallelismLimit();
  SetParallelismLimit(1);
  auto sequential = RunJob(splits, job);
  ASSERT_TRUE(sequential.ok());
  for (size_t limit : {2u, 8u}) {
    SetParallelismLimit(limit);
    auto parallel = RunJob(splits, job);
    ASSERT_TRUE(parallel.ok());
    // Raw output vector — order included — must be byte-identical.
    EXPECT_EQ(parallel.Value().output, sequential.Value().output)
        << "limit = " << limit;
    EXPECT_EQ(parallel.Value().stats.shuffle_bytes,
              sequential.Value().stats.shuffle_bytes);
    EXPECT_EQ(parallel.Value().stats.shuffle_tuples,
              sequential.Value().stats.shuffle_tuples);
  }
  SetParallelismLimit(previous_limit);
}

TEST(EngineDeterminismTest, CombinerOnVsOffValueEquality) {
  const auto splits = SumJobSplits();
  auto without = SumJob();
  without.num_reduce_tasks = 3;
  auto raw = RunJob(splits, without);
  ASSERT_TRUE(raw.ok());

  auto with = SumJob();
  with.num_reduce_tasks = 3;
  with.combine_fn = [](const uint64_t&, Span<double> values) {
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum;
  };
  auto combined = RunJob(splits, with);
  ASSERT_TRUE(combined.ok());

  // Integer-valued scores: combining per map task first changes the
  // grouping of the sum but not its value.
  EXPECT_EQ(SortedByKey(combined.Value().output),
            SortedByKey(raw.Value().output));

  // Byte accounting: pre-combine volume matches the uncombined job; the
  // wire carries at most one tuple per (map task, key) after combining.
  const JobStats& c = combined.Value().stats;
  const JobStats& r = raw.Value().stats;
  EXPECT_EQ(c.pre_combine_shuffle_tuples, r.shuffle_tuples);
  EXPECT_EQ(c.pre_combine_shuffle_bytes, r.shuffle_bytes);
  EXPECT_LT(c.shuffle_tuples, c.pre_combine_shuffle_tuples);
  EXPECT_LT(c.shuffle_bytes, c.pre_combine_shuffle_bytes);
  EXPECT_LE(c.shuffle_tuples, uint64_t{6} * 17);  // tasks * distinct keys
}

TEST(EngineTest, TelemetrySpansAndCounters) {
  obs::Telemetry telemetry;
  auto job = ModuloCountJob();
  job.telemetry = &telemetry;
  auto result = RunJob({{0, 1, 2, 3}, {4, 5, 6}}, job);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(telemetry.span("mr.map").count, 1u);
  EXPECT_EQ(telemetry.span("mr.shuffle").count, 1u);
  EXPECT_EQ(telemetry.span("mr.reduce").count, 1u);
  EXPECT_EQ(telemetry.counter("mr.map_tasks"), 2u);
  EXPECT_EQ(telemetry.counter("mr.reduce_tasks"), 1u);
  EXPECT_EQ(telemetry.counter("mr.shuffle_tuples"), 7u);
  EXPECT_EQ(telemetry.counter("mr.shuffle_bytes"), 7u * 12);
  EXPECT_EQ(telemetry.counter("mr.shuffle_tuples_precombine"), 7u);
  EXPECT_EQ(telemetry.counter("mr.output_records"), 3u);
  // Per-task shuffle timing histograms: one build sample per map task,
  // one merge sample per reduce task.
  EXPECT_EQ(telemetry.value("mr.shuffle.build_ms").count, 2u);
  EXPECT_EQ(telemetry.value("mr.shuffle.merge_ms").count, 1u);
  EXPECT_GE(telemetry.value("mr.shuffle.build_ms").min, 0.0);
}

}  // namespace
}  // namespace csod::mr
