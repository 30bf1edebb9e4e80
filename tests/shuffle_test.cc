#include "mapreduce/shuffle.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/parallel.h"
#include "common/random.h"
#include "mapreduce/engine.h"

namespace csod::mr {
namespace {

// --- Arena: page-boundary and alignment edge cases. ---

TEST(ArenaTest, BumpAllocationWithinOnePage) {
  Arena arena(/*page_bytes=*/1024);
  void* a = arena.Allocate(100, 8);
  void* b = arena.Allocate(100, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.page_count(), 1u);
  EXPECT_EQ(arena.allocated_bytes(), 200u);
}

TEST(ArenaTest, AllocationCrossingPageBoundaryOpensNewPage) {
  Arena arena(/*page_bytes=*/256);
  arena.Allocate(200, 8);  // Leaves 56 bytes in page 1.
  void* b = arena.Allocate(100, 8);  // Does not fit: page 2.
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.page_count(), 2u);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedPage) {
  Arena arena(/*page_bytes=*/128);
  void* big = arena.Allocate(4096, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.page_count(), 1u);
  // The next small allocation must not stomp the oversized block.
  void* small = arena.Allocate(16, 8);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(arena.page_count(), 2u);
}

TEST(ArenaTest, AlignmentIsRespected) {
  Arena arena(/*page_bytes=*/1024);
  arena.Allocate(1, 1);  // Misalign the bump pointer.
  for (size_t alignment : {2u, 4u, 8u, 16u}) {
    void* p = arena.Allocate(8, alignment);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignment, 0u)
        << "alignment = " << alignment;
  }
}

TEST(ArenaTest, ZeroByteAllocationsAreDistinct) {
  Arena arena;
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  EXPECT_NE(a, b);  // Each zero-byte request still gets a unique address.
}

// --- ColumnChunks: chunk boundaries, stability, non-trivial types. ---

TEST(ColumnChunksTest, AppendAcrossTinyChunks) {
  Arena arena;
  ColumnChunks<int> col(&arena, /*chunk_elems=*/3);
  for (int i = 0; i < 10; ++i) col.Append(i);
  EXPECT_EQ(col.size(), 10u);
  EXPECT_EQ(col.chunk_count(), 4u);  // 3 + 3 + 3 + 1.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(col[static_cast<size_t>(i)], i);
  EXPECT_EQ(col.chunk_size(0), 3u);
  EXPECT_EQ(col.chunk_size(3), 1u);
}

TEST(ColumnChunksTest, ElementsNeverMoveAcrossGrowth) {
  // Unlike std::vector, a pointer taken before later appends stays valid:
  // full chunks are left in place.
  Arena arena;
  ColumnChunks<int> col(&arena, /*chunk_elems=*/4);
  col.Append(41);
  const int* first = &col[0];
  for (int i = 0; i < 100; ++i) col.Append(i);
  EXPECT_EQ(first, &col[0]);
  EXPECT_EQ(*first, 41);
}

TEST(ColumnChunksTest, ForEachChunkWalksAppendOrder) {
  Arena arena;
  ColumnChunks<int> col(&arena, /*chunk_elems=*/4);
  for (int i = 0; i < 11; ++i) col.Append(i);
  std::vector<int> seen;
  std::vector<size_t> chunk_sizes;
  col.ForEachChunk([&](const int* data, size_t count) {
    chunk_sizes.push_back(count);
    seen.insert(seen.end(), data, data + count);
  });
  EXPECT_EQ(chunk_sizes, (std::vector<size_t>{4, 4, 3}));
  std::vector<int> expected(11);
  for (int i = 0; i < 11; ++i) expected[static_cast<size_t>(i)] = i;
  EXPECT_EQ(seen, expected);
}

TEST(ColumnChunksTest, NonTrivialTypeIsDestroyed) {
  // Strings long enough to heap-allocate: ASan/LSan flags the leak if the
  // column's destructor failed to run element destructors.
  Arena arena;
  {
    ColumnChunks<std::string> col(&arena, /*chunk_elems=*/2);
    for (int i = 0; i < 7; ++i) {
      col.Append("a rather long string that defeats SSO " +
                 std::to_string(i));
    }
    EXPECT_EQ(col.size(), 7u);
    EXPECT_EQ(col[6],
              "a rather long string that defeats SSO 6");
  }
}

TEST(ColumnChunksTest, MoveTransfersOwnership) {
  Arena arena;
  ColumnChunks<std::string> a(&arena, /*chunk_elems=*/2);
  a.Append("only one heap-allocated destructor run for this string");
  ColumnChunks<std::string> b(std::move(a));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): pinned empty.
}

// --- KeyInterner: dense first-appearance ordinals, growth. ---

TEST(KeyInternerTest, FirstAppearanceOrdinals) {
  KeyInterner<uint64_t> interner(/*expected_keys=*/4);
  EXPECT_EQ(interner.Intern(100), 0u);
  EXPECT_EQ(interner.Intern(7), 1u);
  EXPECT_EQ(interner.Intern(100), 0u);  // Repeat hits the same ordinal.
  EXPECT_EQ(interner.Intern(42), 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.keys(), (std::vector<uint64_t>{100, 7, 42}));
}

TEST(KeyInternerTest, GrowthPreservesOrdinals) {
  KeyInterner<uint64_t> interner(/*expected_keys=*/2);  // Forces Grow().
  const size_t n = 10000;
  for (uint64_t k = 0; k < n; ++k) {
    EXPECT_EQ(interner.Intern(k * 977 + 13), static_cast<uint32_t>(k));
  }
  for (uint64_t k = 0; k < n; ++k) {  // Re-intern: same ordinals.
    EXPECT_EQ(interner.Intern(k * 977 + 13), static_cast<uint32_t>(k));
  }
  EXPECT_EQ(interner.size(), n);
}

// --- ReduceGroups: grouping, value order, key order. ---

template <typename K, typename V>
auto RunsOver(std::vector<K>& keys, std::vector<V>& values) {
  return [&](auto&& fn) {
    if (!keys.empty()) fn(keys.data(), values.data(), keys.size());
  };
}

TEST(ReduceGroupsTest, GroupsValuesInAppendOrder) {
  std::vector<uint64_t> keys = {5, 2, 5, 9, 2, 5};
  std::vector<int> values = {10, 20, 11, 30, 21, 12};
  auto groups = ReduceGroups<uint64_t, int>::Build(
      keys.size(), /*sorted_keys=*/true, RunsOver(keys, values));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.total_values(), 6u);
  // Sorted key iteration; values keep append order within each group.
  EXPECT_EQ(groups.key(0), 2u);
  EXPECT_EQ(std::vector<int>(groups.values(0).begin(), groups.values(0).end()),
            (std::vector<int>{20, 21}));
  EXPECT_EQ(groups.key(1), 5u);
  EXPECT_EQ(std::vector<int>(groups.values(1).begin(), groups.values(1).end()),
            (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(groups.key(2), 9u);
  EXPECT_EQ(groups.values(2).size(), 1u);
}

TEST(ReduceGroupsTest, UnsortedIterationIsFirstAppearance) {
  std::vector<uint64_t> keys = {9, 2, 9, 5};
  std::vector<int> values = {1, 2, 3, 4};
  auto groups = ReduceGroups<uint64_t, int>::Build(
      keys.size(), /*sorted_keys=*/false, RunsOver(keys, values));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.key(0), 9u);
  EXPECT_EQ(groups.key(1), 2u);
  EXPECT_EQ(groups.key(2), 5u);
}

TEST(ReduceGroupsTest, EmptyBuild) {
  auto groups = ReduceGroups<uint64_t, int>::Build(
      0, /*sorted_keys=*/true, [](auto&&) {});
  EXPECT_TRUE(groups.empty());
  EXPECT_EQ(groups.total_values(), 0u);
}

TEST(ReduceGroupsTest, MultipleRunsConcatenateInRunOrder) {
  // Two runs emulating two map tasks shipping the same key: group order
  // is (run order, position within run) — the shuffle contract.
  std::vector<uint64_t> keys1 = {7, 8}, keys2 = {8, 7};
  std::vector<int> values1 = {1, 2}, values2 = {3, 4};
  auto groups = ReduceGroups<uint64_t, int>::Build(
      4, /*sorted_keys=*/true, [&](auto&& fn) {
        fn(keys1.data(), values1.data(), keys1.size());
        fn(keys2.data(), values2.data(), keys2.size());
      });
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.key(0), 7u);
  EXPECT_EQ(std::vector<int>(groups.values(0).begin(), groups.values(0).end()),
            (std::vector<int>{1, 4}));
  EXPECT_EQ(std::vector<int>(groups.values(1).begin(), groups.values(1).end()),
            (std::vector<int>{2, 3}));
}

// --- ScatterPartitions: exactness, stability, empty partitions. ---

TEST(ScatterPartitionsTest, StableAndExact) {
  Arena arena;
  std::vector<uint64_t> keys = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> values = {0, 10, 20, 30, 40, 50, 60, 70};
  std::vector<ColumnChunks<uint64_t>> key_store;
  std::vector<ColumnChunks<int>> value_store;
  std::vector<PartitionBlock<uint64_t, int>> blocks;
  ScatterPartitions<uint64_t, int>(
      keys.size(), /*num_parts=*/3, &arena,
      [](const uint64_t& k) { return static_cast<size_t>(k); },
      RunsOver(keys, values), &key_store, &value_store, &blocks);
  ASSERT_EQ(blocks.size(), 3u);
  // key % 3: partition 0 <- {0,3,6}, 1 <- {1,4,7}, 2 <- {2,5}.
  EXPECT_EQ(blocks[0].count, 3u);
  EXPECT_EQ(blocks[1].count, 3u);
  EXPECT_EQ(blocks[2].count, 2u);
  ASSERT_EQ(blocks[0].runs.size(), 1u);  // Exact-size: one contiguous run.
  const TupleRun<uint64_t, int>& run = blocks[0].runs[0];
  EXPECT_EQ(std::vector<uint64_t>(run.keys, run.keys + run.count),
            (std::vector<uint64_t>{0, 3, 6}));  // Emit order preserved.
  EXPECT_EQ(std::vector<int>(run.values, run.values + run.count),
            (std::vector<int>{0, 30, 60}));
}

TEST(ScatterPartitionsTest, EmptyPartitionsAreValid) {
  Arena arena;
  std::vector<uint64_t> keys = {4, 4, 4};
  std::vector<int> values = {1, 2, 3};
  std::vector<ColumnChunks<uint64_t>> key_store;
  std::vector<ColumnChunks<int>> value_store;
  std::vector<PartitionBlock<uint64_t, int>> blocks;
  ScatterPartitions<uint64_t, int>(
      keys.size(), /*num_parts=*/8, &arena,
      [](const uint64_t& k) { return static_cast<size_t>(k); },
      RunsOver(keys, values), &key_store, &value_store, &blocks);
  ASSERT_EQ(blocks.size(), 8u);
  for (size_t p = 0; p < 8; ++p) {
    if (p == 4) {
      EXPECT_EQ(blocks[p].count, 3u);
    } else {
      EXPECT_EQ(blocks[p].count, 0u);
      EXPECT_TRUE(blocks[p].runs.empty());
    }
  }
}

// --- Engine stress: high-cardinality, skewed, duplicate-heavy inputs,
// pinned bit-identity across thread limits x reduce tasks x combiner. ---

// ~120k distinct keys over ~400k tuples with a deliberately nasty shape:
// a mega-hot key (~10% of all tuples), a hot set of 16 keys (~30%), and a
// long uniform tail. Values are small integers (exact in double), so any
// reordering of a float fold would still be value-visible via comparison
// with the sequential reference.
struct ScoreEventLike {
  uint64_t key;
  double score;
};

std::vector<std::vector<ScoreEventLike>> StressSplits() {
  const size_t kSplits = 7;
  const size_t kTuplesPerSplit = 60000;
  std::vector<std::vector<ScoreEventLike>> splits(kSplits);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t s = 0; s < kSplits; ++s) {
    splits[s].reserve(kTuplesPerSplit);
    for (size_t i = 0; i < kTuplesPerSplit; ++i) {
      state = SplitMix64(state);
      const uint64_t r = state;
      uint64_t key;
      if (r % 10 == 0) {
        key = 0xfeedULL;  // Mega-hot key.
      } else if (r % 10 < 4) {
        key = 1000000 + (r >> 8) % 16;  // Hot set.
      } else {
        key = (r >> 16) % 200000;  // Long tail, ~120k distinct seen.
      }
      const double score = static_cast<double>(r % 13) - 6.0;
      splits[s].push_back(ScoreEventLike{key, score});
    }
  }
  return splits;
}

Job<ScoreEventLike, uint64_t, double, std::pair<uint64_t, double>> StressJob(
    bool combine) {
  Job<ScoreEventLike, uint64_t, double, std::pair<uint64_t, double>> job;
  job.map_fn = [](const std::vector<ScoreEventLike>& split,
                  Emitter<uint64_t, double>* out) {
    for (const ScoreEventLike& e : split) out->Emit(e.key, e.score);
  };
  job.reduce_fn = [](ReduceGroups<uint64_t, double>& groups,
                     std::vector<std::pair<uint64_t, double>>* out) {
    for (size_t g = 0; g < groups.size(); ++g) {
      double sum = 0.0;
      for (double v : groups.values(g)) sum += v;
      out->emplace_back(groups.key(g), sum);
    }
  };
  if (combine) {
    job.combine_fn = [](const uint64_t&, Span<double> values) {
      double sum = 0.0;
      for (double v : values) sum += v;
      return sum;
    };
  }
  job.tuple_bytes = 12;
  return job;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t DigestOutput(
    const std::vector<std::pair<uint64_t, double>>& output) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [key, sum] : output) {
    h = Fnv1a(&key, sizeof(key), h);
    h = Fnv1a(&sum, sizeof(sum), h);
  }
  return h;
}

TEST(EngineStressTest, HighCardinalityBitIdentityMatrix) {
  const auto splits = StressSplits();
  const size_t previous_limit = GetParallelismLimit();

  // Value-level reference: per-key exact sums in split/emit order,
  // computed with no engine at all.
  std::map<uint64_t, double> expected;
  for (const auto& split : splits) {
    for (const ScoreEventLike& e : split) expected[e.key] += e.score;
  }
  ASSERT_GT(expected.size(), 100000u) << "stress input lost its cardinality";

  for (const bool combine : {false, true}) {
    for (const size_t tasks : {size_t{1}, size_t{3}, size_t{8}}) {
      auto job = StressJob(combine);
      job.num_reduce_tasks = tasks;

      SetParallelismLimit(1);
      auto reference = RunJob(splits, job);
      ASSERT_TRUE(reference.ok());
      const uint64_t reference_digest = DigestOutput(reference.Value().output);

      // The sequential engine's grouping must match the map reference
      // exactly (integer-valued doubles: no rounding slack needed).
      ASSERT_EQ(reference.Value().output.size(), expected.size());
      for (const auto& [key, sum] : reference.Value().output) {
        auto it = expected.find(key);
        ASSERT_NE(it, expected.end()) << "unknown key " << key;
        ASSERT_EQ(sum, it->second) << "key " << key;
      }

      for (const size_t limit : {size_t{2}, size_t{8}}) {
        SetParallelismLimit(limit);
        auto parallel = RunJob(splits, job);
        ASSERT_TRUE(parallel.ok());
        EXPECT_EQ(DigestOutput(parallel.Value().output), reference_digest)
            << "combine=" << combine << " tasks=" << tasks
            << " limit=" << limit;
        EXPECT_EQ(parallel.Value().stats.shuffle_bytes,
                  reference.Value().stats.shuffle_bytes);
        EXPECT_EQ(parallel.Value().stats.shuffle_tuples,
                  reference.Value().stats.shuffle_tuples);
      }
    }
  }
  SetParallelismLimit(previous_limit);
}

TEST(EngineStressTest, SingleKeyAllValuesPreservesEmitOrder) {
  // Every tuple shares one key: the reduce span must present all values
  // in (map task order, emit order) — the strictest stability case.
  Job<int, uint64_t, double, double> job;
  job.map_fn = [](const std::vector<int>& split,
                  Emitter<uint64_t, double>* out) {
    for (int v : split) out->Emit(77, static_cast<double>(v));
  };
  std::vector<double> seen;
  job.reduce_fn = [&seen](ReduceGroups<uint64_t, double>& groups,
                          std::vector<double>*) {
    ASSERT_EQ(groups.size(), 1u);
    for (double v : groups.values(0)) seen.push_back(v);
  };
  job.tuple_bytes = 12;
  const std::vector<std::vector<int>> splits = {{1, 2, 3}, {4, 5}, {6}};
  const size_t previous_limit = GetParallelismLimit();
  for (const size_t limit : {size_t{1}, size_t{8}}) {
    SetParallelismLimit(limit);
    seen.clear();
    auto result = RunJob(splits, job);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(seen, (std::vector<double>{1, 2, 3, 4, 5, 6}))
        << "limit = " << limit;
  }
  SetParallelismLimit(previous_limit);
}

TEST(EngineStressTest, EmptyPartitionsReachReducers) {
  // Six keys over 8 reduce tasks leave some tasks with no key: their
  // reducers run on empty groups and must neither crash nor emit.
  const std::vector<int> keys = {1, 2, 3, 4, 5, 6};
  std::array<bool, 8> task_has_key{};
  for (int key : keys) {
    task_has_key[DefaultPartition(static_cast<uint64_t>(key)) % 8] = true;
  }
  const size_t empty_tasks = static_cast<size_t>(
      std::count(task_has_key.begin(), task_has_key.end(), false));
  ASSERT_GT(empty_tasks, 0u);

  Job<int, uint64_t, double, std::pair<uint64_t, double>> job;
  job.map_fn = [](const std::vector<int>& split,
                  Emitter<uint64_t, double>* out) {
    for (int v : split) {
      out->Emit(static_cast<uint64_t>(v), 1.0);
    }
  };
  std::atomic<size_t> empty_reduces{0};
  job.reduce_fn = [&empty_reduces](
                      ReduceGroups<uint64_t, double>& groups,
                      std::vector<std::pair<uint64_t, double>>* out) {
    if (groups.empty()) ++empty_reduces;
    for (size_t g = 0; g < groups.size(); ++g) {
      out->emplace_back(groups.key(g),
                        static_cast<double>(groups.values(g).size()));
    }
  };
  job.tuple_bytes = 12;
  job.num_reduce_tasks = 8;
  auto result = RunJob({keys}, job);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.Value().output.size(), 6u);
  EXPECT_EQ(result.Value().stats.num_reduce_tasks, 8u);
  EXPECT_EQ(empty_reduces.load(), empty_tasks);
}

// Arena chunk-boundary integration: an emitter with default chunking that
// crosses many chunk boundaries still round-trips every tuple (the
// 400k-tuple matrix above crosses ~100 boundaries per task already; this
// pins the exact boundary arithmetic with a prime tuple count).
TEST(EngineStressTest, ChunkBoundaryRoundTrip) {
  Arena arena;
  Emitter<uint64_t, double> emitter(&arena, /*chunk_elems=*/7);
  const size_t n = 7 * 13 + 5;  // Partial final chunk.
  for (size_t i = 0; i < n; ++i) {
    emitter.Emit(i, static_cast<double>(i) * 0.5);
  }
  EXPECT_EQ(emitter.size(), n);
  EXPECT_EQ(emitter.keys().chunk_count(), 14u);
  size_t i = 0;
  ColumnRuns(emitter.keys(), emitter.values())(
      [&](const uint64_t* keys, double* values, size_t count) {
        for (size_t j = 0; j < count; ++j, ++i) {
          ASSERT_EQ(keys[j], i);
          ASSERT_EQ(values[j], static_cast<double>(i) * 0.5);
        }
      });
  EXPECT_EQ(i, n);
}

}  // namespace
}  // namespace csod::mr
