#ifndef CSOD_MAPREDUCE_ENGINE_H_
#define CSOD_MAPREDUCE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/shuffle.h"
#include "obs/telemetry.h"
#include "sim/buggify.h"

namespace csod::mr {

/// \brief Collects (key, value) pairs emitted by a map task into columnar
/// (struct-of-arrays) arena-backed buffers.
///
/// `Emit` is two pointer-bump appends — one into the key column, one into
/// the value column. There is no per-tuple allocation (chunks are carved
/// from the task's arena every kDefaultChunkElems tuples), no `std::pair`
/// materialization, and no byte accounting in the loop: shuffle bytes are
/// tuples × Job::tuple_bytes, one multiply after `map_fn` returns.
template <typename K, typename V>
class Emitter {
 public:
  /// `arena` must outlive the emitter. `chunk_elems` overrides the column
  /// chunk granularity (tests use tiny chunks to exercise boundaries).
  explicit Emitter(Arena* arena,
                   size_t chunk_elems = ColumnChunks<K>::kDefaultChunkElems)
      : keys_(arena, chunk_elems), values_(arena, chunk_elems) {}

  /// Emits one intermediate pair.
  void Emit(K key, V value) {
    keys_.Append(std::move(key));
    values_.Append(std::move(value));
  }

  /// Tuples emitted so far.
  size_t size() const { return keys_.size(); }

  /// The columns (engine internals and tests).
  ColumnChunks<K>& keys() { return keys_; }
  ColumnChunks<V>& values() { return values_; }

 private:
  ColumnChunks<K> keys_;
  ColumnChunks<V> values_;
};

/// \brief Declarative description of a MapReduce job over the in-process
/// engine.
///
/// `Input` is one input record; `K`/`V` the intermediate pair; `Out` one
/// final output record. The map function runs once per split (task level,
/// so in-mapper combining — the paper's "partial aggregation for each key"
/// — is expressible either inside `map_fn` or declaratively via
/// `combine_fn`). The reducer sees a whole reduce task's grouped view: a
/// key-local reduce is a loop over its groups, and a reducer that is not
/// key-local (CS recovery over the complete measurement vector) reads
/// them all.
///
/// Type requirements: `K` must be an integer type (keys are partitioned
/// and interned by `DefaultPartition`); `V` must be movable and
/// default-constructible. Group views hand reducers `Span<V>` windows
/// over the shuffle's value column — no per-key container exists.
///
/// Thread safety: the engine runs map tasks concurrently, and reduce tasks
/// concurrently, under the global parallelism limit
/// (common/parallel.h). `map_fn`, `combine_fn` and `reduce_fn` must
/// therefore be safe to invoke concurrently for *distinct* tasks (pure
/// functions of their arguments, or functions whose shared captures are
/// read-only). A reducer that mutates shared captured state is safe only
/// with `num_reduce_tasks == 1` (a single task runs on the calling
/// thread).
template <typename Input, typename K, typename V, typename Out>
struct Job {
  /// Map task body: consumes one split, emits intermediate pairs.
  std::function<void(const std::vector<Input>&, Emitter<K, V>*)> map_fn;

  /// Reduce task body: the full grouped view of one reduce task
  /// (iteration order = sorted keys; each group's span is a stable-ordered
  /// window over the shuffle's value column — map-task order, emit order
  /// within a task — mutable so reducers may move values out).
  std::function<void(ReduceGroups<K, V>&, std::vector<Out>*)> reduce_fn;

  /// Optional in-mapper combiner (the paper's "partial aggregation for
  /// each key"): folds one map task's values for one key — in emit order —
  /// into a single value shipped through the shuffle. When set, the engine
  /// accounts shuffle volume both before the combiner
  /// (`JobStats::pre_combine_shuffle_{bytes,tuples}`, what an
  /// uncombined job would have shipped) and after it
  /// (`JobStats::shuffle_{bytes,tuples}`, what actually crosses the wire).
  std::function<V(const K&, Span<V>)> combine_fn;

  /// On-wire size of one intermediate pair in bytes (dist::kKeyValueBytes,
  /// dist::kMeasurementBytes); must be > 0. Shuffle bytes are
  /// tuples × tuple_bytes.
  uint64_t tuple_bytes = 0;

  /// Number of reduce tasks (keys are spread across them by
  /// `DefaultPartition(key) % num_reduce_tasks`).
  size_t num_reduce_tasks = 1;

  /// Telemetry sink: `mr.{map,shuffle,reduce}` spans, shuffle volume
  /// counters, and `mr.shuffle.{build,merge}_ms` per-task timing
  /// histograms. Null or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// On-disk size of one input record (input IO accounting): one 16-byte
/// ScoreEvent (mapreduce/jobs.h).
inline constexpr uint64_t kInputRecordBytes = 16;

/// Result of a job run: the concatenated reducer outputs plus measured
/// stats (feed them to a ClusterCostModel for simulated timings).
template <typename Out>
struct JobResult {
  std::vector<Out> output;
  JobStats stats;
};

namespace internal {

/// One map task's post-map state: the arena that owns every buffer, the
/// emitter columns, optional combined tuples, and the per-reduce-task
/// partition blocks the reduce side merges from.
template <typename K, typename V>
struct MapTaskState {
  std::unique_ptr<Arena> arena;
  std::unique_ptr<Emitter<K, V>> emitter;
  // Combined (one tuple per distinct key) when the job has a combiner.
  std::vector<K> combined_keys;
  std::vector<V> combined_values;
  // Scatter destinations (num_reduce_tasks > 1).
  std::vector<ColumnChunks<K>> part_keys;
  std::vector<ColumnChunks<V>> part_values;
  // Views consumed by the shuffle merge, one per reduce task.
  std::vector<PartitionBlock<K, V>> blocks;

  double map_sec = 0.0;    // map_fn body only
  double build_sec = 0.0;  // combine + radix partition
  uint64_t input_bytes = 0;
  uint64_t pre_bytes = 0;
  uint64_t pre_tuples = 0;
  uint64_t post_bytes = 0;
  uint64_t post_tuples = 0;
};

/// Builds one map task's partition blocks from the tuples it will ship
/// (the emitter columns, or the combined tuples): zero-copy column views
/// for a single reduce task, a radix scatter by DefaultPartition
/// otherwise.
template <typename K, typename V, typename ForEachRun>
void BuildPartitionBlocks(MapTaskState<K, V>* t, size_t num_reduce_tasks,
                          size_t total_tuples, ForEachRun&& for_each_run,
                          std::vector<TupleRun<K, V>>&& single_part_runs) {
  if (num_reduce_tasks == 1) {
    t->blocks.resize(1);
    t->blocks[0].runs = std::move(single_part_runs);
    t->blocks[0].count = total_tuples;
    return;
  }
  ScatterPartitions<K, V>(
      total_tuples, num_reduce_tasks, t->arena.get(),
      [](const K& key) { return DefaultPartition(key); }, for_each_run,
      &t->part_keys, &t->part_values, &t->blocks);
}

}  // namespace internal

/// \brief Executes a Job over the given input splits (one map task per
/// split), with an exact byte-accounted columnar shuffle.
///
/// Execution is parallel on the persistent-pool substrate, in three
/// phases, each a deterministic task-parallel loop (ParallelForEach):
///  1. *Map*: every map task runs concurrently with a task-local arena.
///     `map_fn` emits into columnar key/value chunks (no per-tuple
///     allocation); `map_compute_sec` times only the `map_fn` body.
///     Combining (hash-grouping over interned key ordinals, folded in
///     emit order), the radix partition pass (DefaultPartition applied
///     once per tuple), and byte accounting are charged to
///     `shuffle_build_sec`.
///  2. *Shuffle build*: per-reduce-task groups are built from the map
///     tasks' partition blocks, walked in fixed split order — so the
///     value order inside every key group (and therefore every downstream
///     float sum) is identical to a sequential engine's at any thread
///     count. Grouping is a two-pass intern + stable scatter into one
///     contiguous value column per reduce task; no per-key node
///     allocations, and values are moved, never copied.
///  3. *Reduce*: reduce tasks run concurrently over their ReduceGroups
///     (sorted key order, spans over the value column) into task-local
///     output vectors, concatenated in task order.
/// Output is bit-identical at any parallelism limit.
template <typename Input, typename K, typename V, typename Out>
Result<JobResult<Out>> RunJob(const std::vector<std::vector<Input>>& splits,
                              const Job<Input, K, V, Out>& job) {
  if (!job.map_fn) {
    return Status::InvalidArgument("RunJob: map_fn is required");
  }
  if (!job.reduce_fn) {
    return Status::InvalidArgument("RunJob: reduce_fn is required");
  }
  if (job.tuple_bytes == 0) {
    return Status::InvalidArgument("RunJob: tuple_bytes must be > 0");
  }
  if (job.num_reduce_tasks == 0) {
    return Status::InvalidArgument("RunJob: num_reduce_tasks must be > 0");
  }

  JobResult<Out> result;
  JobStats& stats = result.stats;
  stats.num_map_tasks = splits.size();
  stats.num_reduce_tasks = job.num_reduce_tasks;

  // --- Map phase (executed for real, timed per task). ---
  // Each task owns its arena, buffers, and stat slots, so the parallel
  // loop writes disjoint state only.
  using TaskState = internal::MapTaskState<K, V>;
  std::vector<TaskState> tasks(splits.size());
  Stopwatch map_wall;
  {
    obs::TraceSpan span(job.telemetry, "mr.map");
    ParallelForEach(splits.size(), [&](size_t s) {
      TaskState& t = tasks[s];
      t.arena = std::make_unique<Arena>();
      // Buggify: partition-buffer pressure — tiny column chunks force
      // every chunk-boundary path in the radix scatter and shuffle merge.
      // Pure layout change: emitted tuples, byte accounting, and output
      // are bit-identical either way.
      const size_t chunk_elems =
          CSOD_BUGGIFY_AT("mr.emitter.tiny_chunks", s)
              ? 3
              : ColumnChunks<K>::kDefaultChunkElems;
      t.emitter = std::make_unique<Emitter<K, V>>(t.arena.get(), chunk_elems);
      // Buggify: task re-execution — this map task already ran once on a
      // worker that then died. The dead attempt's emits land in a scratch
      // arena and are discarded whole; only the surviving attempt is
      // accounted, so stats and output cannot move.
      if (CSOD_BUGGIFY_AT("mr.map.reexecute", s)) {
        Arena scratch_arena;
        Emitter<K, V> scratch(&scratch_arena);
        job.map_fn(splits[s], &scratch);
      }
      Stopwatch map_watch;
      job.map_fn(splits[s], t.emitter.get());
      // The map stopwatch stops *before* combining/partitioning: grouping
      // cost belongs to shuffle_build_sec, not map_compute_sec (else the
      // cost model scales shuffle work by compute_scale).
      t.map_sec = map_watch.ElapsedSeconds();
      t.input_bytes =
          static_cast<uint64_t>(splits[s].size()) * kInputRecordBytes;

      Stopwatch build_watch;
      const size_t emitted = t.emitter->size();
      auto emit_runs = ColumnRuns(t.emitter->keys(), t.emitter->values());
      t.pre_tuples = emitted;
      t.pre_bytes = static_cast<uint64_t>(emitted) * job.tuple_bytes;

      // The tuples this task ships: the raw emits, or — with a combiner —
      // one hash-grouped, emit-order-folded tuple per distinct key.
      if (job.combine_fn) {
        auto groups = ReduceGroups<K, V>::Build(emitted,
                                                /*sorted_keys=*/false,
                                                emit_runs);
        t.combined_keys.reserve(groups.size());
        t.combined_values.reserve(groups.size());
        for (size_t g = 0; g < groups.size(); ++g) {
          t.combined_keys.push_back(groups.key(g));
          t.combined_values.push_back(
              job.combine_fn(groups.key(g), groups.values(g)));
        }
        auto combined_runs = [&](auto&& fn) {
          if (!t.combined_keys.empty()) {
            fn(t.combined_keys.data(), t.combined_values.data(),
               t.combined_keys.size());
          }
        };
        t.post_tuples = t.combined_keys.size();
        t.post_bytes = t.post_tuples * job.tuple_bytes;
        std::vector<TupleRun<K, V>> run;
        if (!t.combined_keys.empty()) {
          run.push_back(TupleRun<K, V>{t.combined_keys.data(),
                                       t.combined_values.data(),
                                       t.combined_keys.size()});
        }
        internal::BuildPartitionBlocks(&t, job.num_reduce_tasks,
                                       t.post_tuples, combined_runs,
                                       std::move(run));
      } else {
        t.post_bytes = t.pre_bytes;
        t.post_tuples = t.pre_tuples;
        internal::BuildPartitionBlocks(
            &t, job.num_reduce_tasks, emitted, emit_runs,
            BlockOverColumns(t.emitter->keys(), t.emitter->values()).runs);
      }
      t.build_sec = build_watch.ElapsedSeconds();
    });
  }
  stats.map_wall_sec = map_wall.ElapsedSeconds();
  for (const TaskState& t : tasks) {  // Serial, fixed-order accumulation.
    stats.input_bytes += t.input_bytes;
    stats.pre_combine_shuffle_bytes += t.pre_bytes;
    stats.pre_combine_shuffle_tuples += t.pre_tuples;
    stats.shuffle_bytes += t.post_bytes;
    stats.shuffle_tuples += t.post_tuples;
    stats.map_compute_sec += t.map_sec;
    stats.map_compute_max_sec = std::max(stats.map_compute_max_sec, t.map_sec);
    stats.shuffle_build_sec += t.build_sec;
  }

  // --- Shuffle build: merge the map tasks' partition blocks into one
  // grouped view per reduce task. Blocks are walked in fixed split order,
  // so every key group's value order is scheduling-independent; the merge
  // moves values straight into the reduce task's value column. ---
  std::vector<ReduceGroups<K, V>> groups(job.num_reduce_tasks);
  std::vector<double> merge_sec(job.num_reduce_tasks, 0.0);
  Stopwatch shuffle_wall;
  {
    obs::TraceSpan span(job.telemetry, "mr.shuffle");
    ParallelForEach(job.num_reduce_tasks, [&](size_t task) {
      Stopwatch merge_watch;
      size_t total = 0;
      for (TaskState& t : tasks) total += t.blocks[task].count;
      groups[task] = ReduceGroups<K, V>::Build(
          total, /*sorted_keys=*/true, [&](auto&& fn) {
            for (TaskState& t : tasks) {
              for (TupleRun<K, V>& run : t.blocks[task].runs) {
                fn(run.keys, run.values, run.count);
              }
            }
          });
      merge_sec[task] = merge_watch.ElapsedSeconds();
    });
  }
  stats.shuffle_wall_sec = shuffle_wall.ElapsedSeconds();
  for (double sec : merge_sec) stats.shuffle_build_sec += sec;

  // --- Reduce phase (executed for real, timed per task). ---
  std::vector<std::vector<Out>> outputs(job.num_reduce_tasks);
  std::vector<double> reduce_sec(job.num_reduce_tasks, 0.0);
  Stopwatch reduce_wall;
  {
    obs::TraceSpan span(job.telemetry, "mr.reduce");
    ParallelForEach(job.num_reduce_tasks, [&](size_t task) {
      Stopwatch reduce_watch;
      job.reduce_fn(groups[task], &outputs[task]);
      reduce_sec[task] = reduce_watch.ElapsedSeconds();
    });
  }
  stats.reduce_wall_sec = reduce_wall.ElapsedSeconds();
  for (double sec : reduce_sec) {
    stats.reduce_compute_sec += sec;
    stats.reduce_compute_max_sec = std::max(stats.reduce_compute_max_sec, sec);
  }
  for (std::vector<Out>& task_output : outputs) {  // Fixed task order.
    for (Out& out : task_output) result.output.push_back(std::move(out));
  }
  stats.output_records = result.output.size();

  if (job.telemetry != nullptr && job.telemetry->enabled()) {
    job.telemetry->AddCounter("mr.map_tasks", stats.num_map_tasks);
    job.telemetry->AddCounter("mr.reduce_tasks", stats.num_reduce_tasks);
    job.telemetry->AddCounter("mr.shuffle_bytes", stats.shuffle_bytes);
    job.telemetry->AddCounter("mr.shuffle_tuples", stats.shuffle_tuples);
    job.telemetry->AddCounter("mr.shuffle_bytes_precombine",
                              stats.pre_combine_shuffle_bytes);
    job.telemetry->AddCounter("mr.shuffle_tuples_precombine",
                              stats.pre_combine_shuffle_tuples);
    job.telemetry->AddCounter("mr.output_records", stats.output_records);
    std::vector<double> build_sec;
    build_sec.reserve(tasks.size());
    for (const TaskState& t : tasks) build_sec.push_back(t.build_sec);
    RecordShuffleTimings(job.telemetry, "mr.shuffle.build_ms", build_sec);
    RecordShuffleTimings(job.telemetry, "mr.shuffle.merge_ms", merge_sec);
  }
  return result;
}

}  // namespace csod::mr

#endif  // CSOD_MAPREDUCE_ENGINE_H_
