#ifndef CSOD_MAPREDUCE_SHUFFLE_H_
#define CSOD_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "obs/telemetry.h"

namespace csod::mr {

/// \brief Borrowed contiguous view over `count` elements (the engine's
/// group views are spans over the shuffle's value column — no per-group
/// container is materialized).
template <typename T>
struct Span {
  T* data = nullptr;
  size_t count = 0;

  T* begin() const { return data; }
  T* end() const { return data + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  T& operator[](size_t i) const { return data[i]; }
};

/// One contiguous run of shuffle tuples: parallel key/value arrays
/// (struct-of-arrays). Keys are read-only; values may be moved out by the
/// consumer (group build).
template <typename K, typename V>
struct TupleRun {
  const K* keys = nullptr;
  V* values = nullptr;
  size_t count = 0;
};

/// One map task's tuples bound for one reduce task: runs in emit order
/// (several chunk runs for the zero-copy single-partition case, one
/// exact-size run after a radix scatter).
template <typename K, typename V>
struct PartitionBlock {
  std::vector<TupleRun<K, V>> runs;
  size_t count = 0;
};

/// Smallest power of two >= v (and >= 1).
size_t RoundUpPow2(size_t v);

/// Records per-task shuffle timings (seconds) into the value histogram
/// `name`, in fixed task order, scaled to milliseconds. One call per
/// phase, after the parallel loop, so the histogram is recorded serially.
void RecordShuffleTimings(obs::Telemetry* telemetry, const char* name,
                          const std::vector<double>& seconds);

/// \brief The engine's one key hash: SplitMix64 of the key's value. It
/// assigns keys to reduce tasks (`% num_reduce_tasks`) and places them in
/// the KeyInterner's table.
///
/// `std::hash<K>` is *identity* for integers on libstdc++, so hashing a
/// structured key set (say, multiples of 8) through `% num_reduce_tasks`
/// would produce skewed, structured partitions — and a different
/// assignment on every standard library, violating the cross-platform
/// determinism contract (DESIGN.md §10). The mixer is a pure function of
/// the key's value, byte-identical on every platform.
template <typename K>
size_t DefaultPartition(const K& key) {
  static_assert(std::is_integral_v<K>, "MapReduce keys are integers");
  return static_cast<size_t>(SplitMix64(static_cast<uint64_t>(key)));
}

/// \brief Open-addressing key -> dense-ordinal interner.
///
/// Ordinals are assigned in first-appearance order, so the mapping is a
/// pure function of the key sequence — scheduling-independent as long as
/// the caller walks tuples in a fixed order. Linear probing over a
/// power-of-two table; one flat `uint32_t` slot array plus the dense key
/// vector replaces the per-key `std::map` node allocations of the old
/// shuffle.
template <typename K>
class KeyInterner {
 public:
  explicit KeyInterner(size_t expected_keys) {
    capacity_ = RoundUpPow2(std::max<size_t>(16, expected_keys * 2));
    slots_.assign(capacity_, kEmpty);
  }

  /// Ordinal of `key`; interns a copy on first sight.
  uint32_t Intern(const K& key) {
    if ((keys_.size() + 1) * 2 > capacity_) Grow();
    const size_t mask = capacity_ - 1;
    size_t i = DefaultPartition(key) & mask;
    while (true) {
      const uint32_t slot = slots_[i];
      if (slot == kEmpty) {
        const uint32_t ordinal = static_cast<uint32_t>(keys_.size());
        slots_[i] = ordinal;
        keys_.push_back(key);
        return ordinal;
      }
      if (keys_[slot] == key) return slot;
      i = (i + 1) & mask;
    }
  }

  size_t size() const { return keys_.size(); }
  /// Interned keys, indexed by ordinal.
  std::vector<K>& keys() { return keys_; }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  void Grow() {
    capacity_ *= 2;
    slots_.assign(capacity_, kEmpty);
    const size_t mask = capacity_ - 1;
    for (uint32_t ordinal = 0; ordinal < keys_.size(); ++ordinal) {
      size_t i = DefaultPartition(keys_[ordinal]) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = ordinal;
    }
  }

  size_t capacity_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<K> keys_;
};

/// \brief Key-grouped view over a stream of tuple runs: each group's
/// values are one contiguous span of the single value column.
///
/// Built in two passes over the runs (walked in the caller's fixed
/// order): intern every key to an ordinal and count group sizes, then
/// stable-scatter the values — moved, never copied — through per-group
/// cursors. Within a group, values therefore keep exact append order
/// (map-task order, emit order within a task): every downstream
/// floating-point fold sees the same operand order as the sequential
/// engine, which is the bit-identity-by-construction argument.
///
/// Iteration order over groups: sorted by key when built with
/// `sorted_keys` (the reduce contract, matching the old `std::map`), or
/// first-appearance order (the in-mapper combiner, where order does not
/// reach the output).
///
/// Requirements: K an integer type; V movable and default-constructible.
template <typename K, typename V>
class ReduceGroups {
 public:
  ReduceGroups() = default;
  ReduceGroups(ReduceGroups&&) noexcept = default;
  ReduceGroups& operator=(ReduceGroups&&) noexcept = default;

  /// `for_each_run(fn)` must invoke `fn(const K* keys, V* values,
  /// size_t count)` once per run, in a deterministic order, and must be
  /// repeatable (it is called twice). `total_tuples` is the exact tuple
  /// count across all runs.
  template <typename ForEachRun>
  static ReduceGroups Build(size_t total_tuples, bool sorted_keys,
                            ForEachRun&& for_each_run) {
    ReduceGroups out;
    if (total_tuples == 0) return out;

    // Pass 1: key column -> ordinals + group sizes.
    std::vector<uint32_t> ordinals;
    ordinals.reserve(total_tuples);
    KeyInterner<K> interner(total_tuples / 4 + 8);
    for_each_run([&](const K* keys, V*, size_t count) {
      for (size_t i = 0; i < count; ++i) {
        ordinals.push_back(interner.Intern(keys[i]));
      }
    });
    const size_t groups = interner.size();
    out.offsets_.assign(groups + 1, 0);
    for (uint32_t o : ordinals) ++out.offsets_[o + 1];
    for (size_t g = 1; g <= groups; ++g) {
      out.offsets_[g] += out.offsets_[g - 1];
    }

    // Pass 2: stable scatter of the value column (cursor per group).
    std::vector<size_t> cursor(out.offsets_.begin(), out.offsets_.end() - 1);
    out.values_.resize(total_tuples);
    size_t t = 0;
    for_each_run([&](const K*, V* values, size_t count) {
      for (size_t i = 0; i < count; ++i) {
        out.values_[cursor[ordinals[t++]]++] = std::move(values[i]);
      }
    });

    out.keys_ = std::move(interner.keys());
    if (sorted_keys) {
      out.order_.resize(groups);
      std::iota(out.order_.begin(), out.order_.end(), 0u);
      std::sort(out.order_.begin(), out.order_.end(),
                [&](uint32_t a, uint32_t b) {
                  return out.keys_[a] < out.keys_[b];
                });
    }
    return out;
  }

  /// Number of distinct keys.
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  /// Total tuples across all groups.
  size_t total_values() const { return values_.size(); }

  /// Key of group `g` in iteration order (see class comment).
  const K& key(size_t g) const { return keys_[Ordinal(g)]; }
  /// Values of group `g`: a contiguous, mutable span over the value
  /// column (stable append order).
  Span<V> values(size_t g) {
    const uint32_t o = Ordinal(g);
    return Span<V>{values_.data() + offsets_[o],
                   offsets_[o + 1] - offsets_[o]};
  }

 private:
  uint32_t Ordinal(size_t g) const {
    return order_.empty() ? static_cast<uint32_t>(g) : order_[g];
  }

  std::vector<K> keys_;        // by ordinal (first-appearance order)
  std::vector<V> values_;      // all values, grouped by ordinal
  std::vector<size_t> offsets_;  // [ordinal] -> begin index; size()+1 long
  std::vector<uint32_t> order_;  // iteration order -> ordinal; empty = id
};

/// Invokes `fn(const K* keys, V* values, size_t count)` per chunk of the
/// two columns, zipped. The columns must have been appended in lockstep
/// (the Emitter guarantees this), so chunk boundaries coincide.
template <typename K, typename V>
auto ColumnRuns(ColumnChunks<K>& keys, ColumnChunks<V>& values) {
  return [&keys, &values](auto&& fn) {
    for (size_t c = 0; c < keys.chunk_count(); ++c) {
      const size_t count = keys.chunk_size(c);
      if (count > 0) fn(keys.chunk_data(c), values.chunk_data(c), count);
    }
  };
}

/// A PartitionBlock viewing the two columns in place (the zero-copy
/// single-reduce-task path: no partition function call, no scatter, no
/// copy — the reduce side walks the map task's chunks directly).
template <typename K, typename V>
PartitionBlock<K, V> BlockOverColumns(ColumnChunks<K>& keys,
                                      ColumnChunks<V>& values) {
  PartitionBlock<K, V> block;
  block.runs.reserve(keys.chunk_count());
  for (size_t c = 0; c < keys.chunk_count(); ++c) {
    const size_t count = keys.chunk_size(c);
    if (count > 0) {
      block.runs.push_back(
          TupleRun<K, V>{keys.chunk_data(c), values.chunk_data(c), count});
    }
  }
  block.count = keys.size();
  return block;
}

/// \brief Radix-partitions a tuple stream into per-reduce-task columns.
///
/// The partition function is applied exactly once per tuple, in a first
/// pass over the key column that records each tuple's reduce task and the
/// per-task histogram; the second pass scatters keys (copied) and values
/// (moved) into exact-size arena-backed per-partition columns through
/// monotone per-partition cursors — stable, so within-partition order is
/// emit order. `part_fn` is a template parameter, so the engine's
/// `DefaultPartition` and the streaming ingest path's shard hash are
/// inlined into the loop (no `std::function` dispatch per tuple).
template <typename K, typename V, typename PartFn, typename ForEachRun>
void ScatterPartitions(size_t total_tuples, size_t num_parts, Arena* arena,
                       const PartFn& part_fn, ForEachRun&& for_each_run,
                       std::vector<ColumnChunks<K>>* key_store,
                       std::vector<ColumnChunks<V>>* value_store,
                       std::vector<PartitionBlock<K, V>>* blocks) {
  // Pass 1: partition ids + histogram (arena scratch, freed with the
  // task).
  uint32_t* part_of = arena->AllocateArray<uint32_t>(total_tuples);
  std::vector<size_t> counts(num_parts, 0);
  size_t t = 0;
  for_each_run([&](const K* keys, V*, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const uint32_t p =
          static_cast<uint32_t>(part_fn(keys[i]) % num_parts);
      part_of[t++] = p;
      ++counts[p];
    }
  });

  // Exact-size destinations: one contiguous chunk per non-empty
  // partition.
  key_store->reserve(num_parts);
  value_store->reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    key_store->emplace_back(arena, std::max<size_t>(counts[p], 1));
    value_store->emplace_back(arena, std::max<size_t>(counts[p], 1));
  }

  // Pass 2: stable scatter.
  t = 0;
  for_each_run([&](const K* keys, V* values, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const uint32_t p = part_of[t++];
      (*key_store)[p].Append(keys[i]);
      (*value_store)[p].Append(std::move(values[i]));
    }
  });

  blocks->resize(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    (*blocks)[p] = BlockOverColumns((*key_store)[p], (*value_store)[p]);
  }
}

}  // namespace csod::mr

#endif  // CSOD_MAPREDUCE_SHUFFLE_H_
