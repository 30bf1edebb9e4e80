// MapReduce engine benchmark: the parallel shuffle-aware executor vs the
// same engine pinned to one thread, on the fig10/11 big-input workload.
//
// For every parallelism limit in --threads-list the bench runs
//   (a) the traditional top-k job (raw-event mappers + the engine's
//       in-mapper combiner — the map phase the ISSUE parallelizes), and
//   (b) the CS outlier job (batched compression + BOMP recovery),
// recording the engine's measured per-phase wall clock
// (JobStats::{map,shuffle,reduce}_wall_sec, best of --trials) and an
// FNV-1a digest over every output bit: traditional top-k keys/values, CS
// outlier keys/values, recovered mode, and the exact shuffle byte counts.
//
// The digest must be identical at every thread limit (the engine's
// bit-determinism contract); `scripts/run_bench.sh bench_mapreduce` runs
// the whole bench twice and compares the digest/bit_identical lines of the
// two JSON files.
//
// Speedups are wall-clock on *this* machine: on a multi-core box the map
// phase at 8 threads should sit >= 3x over the 1-thread engine; on a
// 1-core container the speedup degenerates to ~1x while the digests still
// pin determinism.
//
// Gates (one `gate ...` line each; exit 1 if any fails): bit_identical,
// and min_map_wall_speedup (8 threads vs 1), a core-count-aware threshold
// that catches a parallel executor running over a serial data path:
// >= 1.5x on >= 8 cores, >= 1.1x on 2-7 cores, and on a single
// core, where real scaling is impossible, a contention guard of >= 0.7x
// (a lock or allocator serialization in the emit path drags it lower).
//
// The default (non-quick) config is sized so the 1-thread traditional map
// phase is >= 500 ms: long enough that scheduling jitter is noise and a
// data-path regression (per-tuple allocation, std::function dispatch)
// moves the number by whole milliseconds, not fractions.
//
// Flags: --n --m --splits --events-per-key --k --seed --trials
//        --threads-list --out --quick

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "mapreduce/jobs.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace {

using namespace csod;
using bench::Fnv1a;

struct LimitResult {
  size_t threads = 0;
  double trad_map_ms = 0.0;
  double trad_shuffle_ms = 0.0;
  double trad_reduce_ms = 0.0;
  double cs_map_ms = 0.0;
  double cs_total_ms = 0.0;
  uint64_t digest = 0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const bool quick = flags.GetBool("quick", false);
  const size_t n = static_cast<size_t>(flags.GetInt("n", quick ? 5000 : 20000));
  const size_t m = static_cast<size_t>(flags.GetInt("m", quick ? 100 : 200));
  const size_t num_splits =
      static_cast<size_t>(flags.GetInt("splits", 8));
  const size_t events_per_key = static_cast<size_t>(
      flags.GetInt("events-per-key", quick ? 5 : 150));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const size_t trials =
      static_cast<size_t>(flags.GetInt("trials", quick ? 2 : 3));
  const std::vector<int64_t> threads_list = flags.GetIntList(
      "threads-list", std::vector<int64_t>{1, 2, 8});
  const std::string out_path = flags.GetString("out", "BENCH_mapreduce.json");

  bench::Banner("MapReduce engine",
                "parallel map/shuffle/reduce executor vs the 1-thread engine");

  // The fig10/11 big-input shape: power-law global vector, uniform
  // additive split, several raw events per (split, key).
  workload::PowerLawOptions gen;
  gen.n = n;
  gen.alpha = 1.5;
  gen.seed = seed;
  auto global = workload::GeneratePowerLaw(gen).MoveValue();
  workload::PartitionOptions part;
  part.num_nodes = num_splits;
  part.strategy = workload::PartitionStrategy::kUniformSplit;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(global, part).MoveValue();
  const auto splits = mr::ExpandSlicesToEvents(slices, events_per_key,
                                               seed + 2);
  size_t events = 0;
  for (const auto& split : splits) events += split.size();
  std::printf("N = %zu, %zu map splits, %.2f M raw events, M = %zu, "
              "k = %zu, trials = %zu\n\n",
              n, splits.size(), static_cast<double>(events) / 1e6, m, k,
              trials);

  mr::CsJobOptions cs_options;
  cs_options.n = n;
  cs_options.m = m;
  cs_options.k = k;
  cs_options.seed = 77;

  const size_t previous_limit = GetParallelismLimit();
  std::vector<LimitResult> results;
  for (int64_t threads64 : threads_list) {
    const size_t threads = static_cast<size_t>(threads64);
    SetParallelismLimit(threads);
    LimitResult res;
    res.threads = threads;

    mr::TopKJobResult trad;
    mr::CsJobResult cs;
    double best_trad_map = 1e300, best_trad_shuffle = 1e300,
           best_trad_reduce = 1e300, best_cs_map = 1e300,
           best_cs_total = 1e300;
    for (size_t t = 0; t < trials; ++t) {
      trad = mr::RunTraditionalTopKJob(splits, k).MoveValue();
      best_trad_map = std::min(best_trad_map, trad.stats.map_wall_sec * 1e3);
      best_trad_shuffle =
          std::min(best_trad_shuffle, trad.stats.shuffle_wall_sec * 1e3);
      best_trad_reduce =
          std::min(best_trad_reduce, trad.stats.reduce_wall_sec * 1e3);
      Stopwatch cs_watch;
      cs = mr::RunCsOutlierJob(splits, cs_options).MoveValue();
      best_cs_total = std::min(best_cs_total, cs_watch.ElapsedMillis());
      best_cs_map = std::min(best_cs_map, cs.stats.map_wall_sec * 1e3);
    }
    res.trad_map_ms = best_trad_map;
    res.trad_shuffle_ms = best_trad_shuffle;
    res.trad_reduce_ms = best_trad_reduce;
    res.cs_map_ms = best_cs_map;
    res.cs_total_ms = best_cs_total;

    // Digest every output bit plus the exact byte accounting.
    Fnv1a digest;
    for (const auto& o : trad.top) {
      digest.AddU64(o.key_index);
      digest.AddDouble(o.value);
    }
    digest.AddU64(trad.stats.shuffle_bytes);
    digest.AddU64(trad.stats.shuffle_tuples);
    digest.AddU64(trad.stats.pre_combine_shuffle_bytes);
    for (const auto& o : cs.outliers.outliers) {
      digest.AddU64(o.key_index);
      digest.AddDouble(o.value);
    }
    digest.AddDouble(cs.outliers.mode);
    digest.AddDouble(cs.recovery.mode);
    digest.AddU64(cs.stats.shuffle_bytes);
    res.digest = digest.hash();
    results.push_back(res);

    std::printf("threads %2zu | trad map %9.2f ms shuffle %7.2f ms reduce "
                "%7.2f ms | cs map %7.2f ms total %9.2f ms | digest "
                "0x%016" PRIx64 "\n",
                threads, res.trad_map_ms, res.trad_shuffle_ms,
                res.trad_reduce_ms, res.cs_map_ms, res.cs_total_ms,
                res.digest);
  }
  SetParallelismLimit(previous_limit);

  bool bit_identical = true;
  for (const LimitResult& r : results) {
    bit_identical = bit_identical && r.digest == results.front().digest;
  }
  const LimitResult& seq = results.front();
  const LimitResult& widest = results.back();
  const double map_speedup =
      seq.trad_map_ms / std::max(widest.trad_map_ms, 1e-9);
  const double map_shuffle_speedup =
      (seq.trad_map_ms + seq.trad_shuffle_ms) /
      std::max(widest.trad_map_ms + widest.trad_shuffle_ms, 1e-9);
  std::printf("\nmap-phase wall speedup (%zu vs %zu threads): %.2fx "
              "(map+shuffle: %.2fx), outputs bit-identical across limits: "
              "%s\n",
              widest.threads, seq.threads, map_speedup, map_shuffle_speedup,
              bit_identical ? "yes" : "NO");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"mapreduce\",\n");
  std::fprintf(out, "  \"host\": %s,\n", bench::HostJson().c_str());
  std::fprintf(out,
               "  \"config\": {\"n\": %zu, \"m\": %zu, \"splits\": %zu, "
               "\"events_per_key\": %zu, \"k\": %zu, \"seed\": %llu, "
               "\"trials\": %zu},\n",
               n, m, num_splits, events_per_key, k,
               static_cast<unsigned long long>(seed), trials);
  std::fprintf(out, "  \"limits\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const LimitResult& r = results[i];
    std::fprintf(
        out,
        "    {\"threads\": %zu,\n"
        "     \"trad_map_wall_ms\": %.3f, \"trad_shuffle_wall_ms\": %.3f,\n"
        "     \"trad_reduce_wall_ms\": %.3f,\n"
        "     \"cs_map_wall_ms\": %.3f, \"cs_total_wall_ms\": %.3f,\n"
        "     \"output_digest\": \"0x%016" PRIx64 "\"}%s\n",
        r.threads, r.trad_map_ms, r.trad_shuffle_ms, r.trad_reduce_ms,
        r.cs_map_ms, r.cs_total_ms, r.digest,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"map_wall_speedup\": %.3f,\n", map_speedup);
  std::fprintf(out, "  \"map_shuffle_wall_speedup\": %.3f,\n",
               map_shuffle_speedup);
  std::fprintf(out, "  \"bit_identical\": %s\n}\n",
               bit_identical ? "true" : "false");
  std::fclose(out);
  std::printf("Wrote %s\n", out_path.c_str());

  bench::Gates gates;
  gates.Holds("bit_identical", bit_identical);
  gates.AtLeast("min_map_wall_speedup", map_speedup,
                bench::ByCoreTier(1.5, 1.1, 0.7));
  return gates.exit_code();
}
