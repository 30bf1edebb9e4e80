// Streaming detection service benchmark (BENCH_streaming.json): the
// always-on src/serve data path — sharded batch ingestion, epoch advance,
// snapshot publication, and concurrent snapshot queries.
//
// Three phases:
//
//  (a) Determinism: the same synthetic stream is ingested at every
//      parallelism limit in --threads-list and digested with FNV-1a over
//      the published window measurement bits plus every query answer
//      (top-k keys/values, k-outlier keys/values/mode). The digests must
//      be identical across limits AND equal to a WindowedOutlierDetector
//      reference fed the same per-(batch, shard) slices in shard order —
//      the StreamingDetector determinism contract, checked bit for bit.
//      The binary exits nonzero on any mismatch.
//
//  (b) Throughput: the full stream is replayed at the widest limit while
//      --query-threads analyst threads continuously ask top-k queries
//      against published snapshots. Reports sustained key-updates/sec and
//      the maximum snapshot age any query observed, which the bounded-
//      staleness contract caps at 1 epoch (reading the epoch counter
//      before grabbing the snapshot makes the racy measurement safe).
//
//  (c) Telemetry overhead: the ingest+advance loop timed with a live
//      obs::Telemetry sink vs a null sink (best of --trials each).
//
// Gates (one `gate ...` line each; exit 1 if any fails): bit_identical;
// staleness_bound_held; min_updates_per_sec, core-count aware (>= 100k/s
// on >= 8 cores, >= 50k/s on 2-7, >= 25k/s on 1); and
// max_telemetry_overhead_pct (<= 2%).
//
// Flags: --n --m --window --shards --epochs --batch --events-per-epoch
//        --k --seed --trials --threads-list --query-threads --out --quick

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/windowed_detector.h"
#include "cs/compressor.h"
#include "obs/telemetry.h"
#include "serve/streaming_detector.h"

namespace {

using namespace csod;
using bench::Fnv1a;

struct StreamConfig {
  size_t n = 0;
  size_t m = 0;
  size_t window = 0;
  size_t shards = 0;
  size_t epochs = 0;
  size_t batch = 0;
  size_t events_per_epoch = 0;
  size_t k = 0;
  uint64_t seed = 0;
};

// Deterministic synthetic stream: uniform keys with baseline deltas plus
// one planted hot key spiking at the head of every batch. The generator is
// restarted (same seed) for every replay so each phase ingests the exact
// same batches.
class StreamGen {
 public:
  explicit StreamGen(const StreamConfig& config)
      : config_(config),
        rng_(static_cast<std::minstd_rand::result_type>(
            config.seed ? config.seed : 1)) {}

  // Fills keys/deltas with the next batch (at most config.batch events,
  // bounded by what is left in the epoch). Returns the batch size.
  size_t NextBatch(size_t remaining_in_epoch, std::vector<size_t>* keys,
                   std::vector<double>* deltas) {
    const size_t count = std::min(config_.batch, remaining_in_epoch);
    keys->resize(count);
    deltas->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*keys)[i] = static_cast<size_t>(rng_()) % config_.n;
      (*deltas)[i] = 100.0 * (0.5 + static_cast<double>(rng_() % 1000) / 1e3);
    }
    (*keys)[0] = config_.n / 3;
    (*deltas)[0] = 5.0e5;
    return count;
  }

 private:
  StreamConfig config_;
  std::minstd_rand rng_;
};

Result<std::unique_ptr<serve::StreamingDetector>> MakeDetector(
    const StreamConfig& config, obs::Telemetry* telemetry) {
  serve::StreamingDetectorOptions options;
  options.n = config.n;
  options.m = config.m;
  options.seed = config.seed + 7;
  options.window_epochs = config.window;
  options.num_shards = config.shards;
  options.telemetry = telemetry;
  return serve::StreamingDetector::Create(options);
}

// Replays the whole stream into `detector`. Returns ingest+advance wall ms.
Result<double> Replay(const StreamConfig& config,
                      serve::StreamingDetector* detector) {
  StreamGen gen(config);
  std::vector<size_t> keys;
  std::vector<double> deltas;
  Stopwatch watch;
  detector->AdvanceEpoch();  // Open epoch 0.
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    size_t remaining = config.events_per_epoch;
    while (remaining > 0) {
      const size_t count = gen.NextBatch(remaining, &keys, &deltas);
      CSOD_RETURN_NOT_OK(
          detector->IngestBatch(keys.data(), deltas.data(), count));
      remaining -= count;
    }
    detector->AdvanceEpoch();
  }
  return watch.ElapsedMillis();
}

// Digest of every observable output: the published window measurement bits
// plus both query answers.
Result<uint64_t> DigestOutputs(const StreamConfig& config,
                               const serve::StreamingDetector& detector) {
  Fnv1a digest;
  auto snapshot = detector.Snapshot();
  if (!snapshot) return Status::Internal("no snapshot published");
  for (double v : snapshot->y) digest.AddDouble(v);
  digest.AddU64(snapshot->last_epoch);
  digest.AddU64(static_cast<uint64_t>(snapshot->epochs_covered));
  CSOD_ASSIGN_OR_RETURN(auto top, detector.QueryTopK(config.k));
  for (const auto& o : top) {
    digest.AddU64(o.key_index);
    digest.AddDouble(o.value);
  }
  CSOD_ASSIGN_OR_RETURN(auto outliers, detector.QueryOutliers(config.k));
  digest.AddDouble(outliers.mode);
  for (const auto& o : outliers.outliers) {
    digest.AddU64(o.key_index);
    digest.AddDouble(o.value);
    digest.AddDouble(o.divergence);
  }
  return digest.hash();
}

// The reference: a WindowedOutlierDetector (ring one deeper than the
// window, like the service's own) fed the same per-(batch, shard) slices
// in shard order. Returns the FNV digest of its closed-window measurement.
Result<uint64_t> ReferenceDigest(const StreamConfig& config) {
  core::WindowedDetectorOptions options;
  options.n = config.n;
  options.m = config.m;
  options.seed = config.seed + 7;
  options.window_epochs = config.window + 1;
  CSOD_ASSIGN_OR_RETURN(auto window,
                        core::WindowedOutlierDetector::Create(options));

  StreamGen gen(config);
  std::vector<size_t> keys;
  std::vector<double> deltas;
  std::vector<cs::SparseSlice> shard_slices(config.shards);
  window->AdvanceEpoch();
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    size_t remaining = config.events_per_epoch;
    while (remaining > 0) {
      const size_t count = gen.NextBatch(remaining, &keys, &deltas);
      for (auto& slice : shard_slices) {
        slice.indices.clear();
        slice.values.clear();
      }
      for (size_t i = 0; i < count; ++i) {
        const uint32_t shard =
            serve::StreamingDetector::ShardOfKey(keys[i], config.shards);
        shard_slices[shard].indices.push_back(keys[i]);
        shard_slices[shard].values.push_back(deltas[i]);
      }
      for (const auto& slice : shard_slices) {
        CSOD_RETURN_NOT_OK(window->Ingest(slice));
      }
      remaining -= count;
    }
    window->AdvanceEpoch();
  }
  CSOD_ASSIGN_OR_RETURN(auto y, window->ClosedWindowMeasurement());
  Fnv1a digest;
  for (double v : y) digest.AddDouble(v);
  return digest.hash();
}

// Digest of just the snapshot measurement bits (comparable to the
// reference digest above).
uint64_t SnapshotDigest(const serve::SketchSnapshot& snapshot) {
  Fnv1a digest;
  for (double v : snapshot.y) digest.AddDouble(v);
  return digest.hash();
}

void Die(const Status& status) {
  std::fprintf(stderr, "bench_streaming: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const bool quick = flags.GetBool("quick", false);
  StreamConfig config;
  config.n =
      static_cast<size_t>(flags.GetInt("n", quick ? 5000 : 50000));
  config.m = static_cast<size_t>(flags.GetInt("m", quick ? 128 : 256));
  config.window = static_cast<size_t>(flags.GetInt("window", 4));
  config.shards = static_cast<size_t>(flags.GetInt("shards", 8));
  config.epochs = static_cast<size_t>(flags.GetInt("epochs", 8));
  config.batch = static_cast<size_t>(flags.GetInt("batch", 2048));
  config.events_per_epoch = static_cast<size_t>(
      flags.GetInt("events-per-epoch", quick ? 20000 : 250000));
  config.k = static_cast<size_t>(flags.GetInt("k", 5));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const size_t trials =
      static_cast<size_t>(flags.GetInt("trials", quick ? 2 : 3));
  const std::vector<int64_t> threads_list =
      flags.GetIntList("threads-list", std::vector<int64_t>{1, 2, 8});
  const size_t query_threads =
      static_cast<size_t>(flags.GetInt("query-threads", 2));
  const std::string out_path = flags.GetString("out", "BENCH_streaming.json");

  bench::Banner("Streaming service",
                "sharded ingest + snapshot queries (src/serve)");
  const uint64_t total_events =
      static_cast<uint64_t>(config.epochs) * config.events_per_epoch;
  std::printf("N = %zu, M = %zu, window = %zu, %zu shards, %zu epochs x %zu "
              "events (%.2f M updates), batch %zu, k = %zu\n\n",
              config.n, config.m, config.window, config.shards, config.epochs,
              config.events_per_epoch, static_cast<double>(total_events) / 1e6,
              config.batch, config.k);

  const size_t previous_limit = GetParallelismLimit();

  // ---- (a) Determinism across parallelism limits, vs the reference. ----
  struct LimitResult {
    size_t threads = 0;
    double ingest_ms = 0.0;
    uint64_t digest = 0;
    uint64_t snapshot_digest = 0;
  };
  std::vector<LimitResult> limits;
  for (int64_t threads64 : threads_list) {
    LimitResult res;
    res.threads = static_cast<size_t>(threads64);
    SetParallelismLimit(res.threads);
    auto detector = MakeDetector(config, nullptr);
    if (!detector.ok()) Die(detector.status());
    auto wall = Replay(config, detector.Value().get());
    if (!wall.ok()) Die(wall.status());
    res.ingest_ms = wall.Value();
    auto digest = DigestOutputs(config, *detector.Value());
    if (!digest.ok()) Die(digest.status());
    res.digest = digest.Value();
    res.snapshot_digest = SnapshotDigest(*detector.Value()->Snapshot());
    limits.push_back(res);
    std::printf("threads %2zu | ingest %9.2f ms (%9.0f updates/s) | digest "
                "0x%016" PRIx64 "\n",
                res.threads, res.ingest_ms,
                1e3 * static_cast<double>(total_events) /
                    std::max(res.ingest_ms, 1e-9),
                res.digest);
  }
  SetParallelismLimit(previous_limit);

  auto reference = ReferenceDigest(config);
  if (!reference.ok()) Die(reference.status());
  bool bit_identical = true;
  for (const LimitResult& r : limits) {
    bit_identical = bit_identical && r.digest == limits.front().digest &&
                    r.snapshot_digest == reference.Value();
  }
  std::printf("\nreference window digest 0x%016" PRIx64
              ", outputs bit-identical across limits and vs the windowed "
              "reference: %s\n\n",
              reference.Value(), bit_identical ? "yes" : "NO");

  // ---- (b) Throughput at the widest limit with concurrent analysts. ----
  const size_t widest =
      static_cast<size_t>(*std::max_element(threads_list.begin(),
                                            threads_list.end()));
  SetParallelismLimit(widest);
  double best_ingest_ms = 1e300;
  uint64_t queries_answered = 0;
  uint64_t max_staleness = 0;
  bool staleness_ok = true;
  for (size_t trial = 0; trial < trials; ++trial) {
    auto detector = MakeDetector(config, nullptr);
    if (!detector.ok()) Die(detector.status());
    serve::StreamingDetector* raw = detector.Value().get();
    std::atomic<bool> done{false};
    std::atomic<uint64_t> answered{0};
    std::atomic<uint64_t> worst_age{0};
    std::vector<std::thread> analysts;
    for (size_t q = 0; q < query_threads; ++q) {
      analysts.emplace_back([&, raw] {
        while (!done.load(std::memory_order_relaxed)) {
          // Read the epoch counter BEFORE grabbing the snapshot: the
          // snapshot is then at least as new as the counter implies, so
          // the computed age never overstates the true staleness.
          const uint64_t epoch = raw->current_epoch();
          auto snapshot = raw->Snapshot();
          if (snapshot && raw->QueryTopK(config.k).ok()) {
            answered.fetch_add(1, std::memory_order_relaxed);
            const uint64_t age = epoch > snapshot->last_epoch
                                     ? epoch - snapshot->last_epoch
                                     : 0;
            uint64_t seen = worst_age.load(std::memory_order_relaxed);
            while (age > seen &&
                   !worst_age.compare_exchange_weak(
                       seen, age, std::memory_order_relaxed)) {
            }
          }
        }
      });
    }
    auto wall = Replay(config, raw);
    done.store(true, std::memory_order_relaxed);
    for (auto& t : analysts) t.join();
    if (!wall.ok()) Die(wall.status());
    best_ingest_ms = std::min(best_ingest_ms, wall.Value());
    queries_answered += answered.load(std::memory_order_relaxed);
    max_staleness = std::max(max_staleness,
                             worst_age.load(std::memory_order_relaxed));
  }
  SetParallelismLimit(previous_limit);
  staleness_ok = max_staleness <= 1;
  const double updates_per_sec = 1e3 * static_cast<double>(total_events) /
                                 std::max(best_ingest_ms, 1e-9);
  std::printf("throughput (%zu threads, %zu analysts): %.0f updates/s, "
              "%llu queries answered, max snapshot age %llu epoch(s) "
              "(bound: 1)\n\n",
              widest, query_threads, updates_per_sec,
              static_cast<unsigned long long>(queries_answered),
              static_cast<unsigned long long>(max_staleness));

  // ---- (c) Telemetry overhead: live sink vs null sink. ----
  double plain_ms = 1e300;
  double telemetry_ms = 1e300;
  for (size_t trial = 0; trial < trials; ++trial) {
    {
      auto detector = MakeDetector(config, nullptr);
      if (!detector.ok()) Die(detector.status());
      auto wall = Replay(config, detector.Value().get());
      if (!wall.ok()) Die(wall.status());
      plain_ms = std::min(plain_ms, wall.Value());
    }
    {
      obs::Telemetry telemetry;
      auto detector = MakeDetector(config, &telemetry);
      if (!detector.ok()) Die(detector.status());
      auto wall = Replay(config, detector.Value().get());
      if (!wall.ok()) Die(wall.status());
      telemetry_ms = std::min(telemetry_ms, wall.Value());
    }
  }
  const double overhead_pct =
      100.0 * (telemetry_ms - plain_ms) / std::max(plain_ms, 1e-9);
  std::printf("telemetry overhead: %.2f ms with sink vs %.2f ms without "
              "(%.2f%%)\n",
              telemetry_ms, plain_ms, overhead_pct);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"streaming\",\n");
  std::fprintf(out, "  \"host\": %s,\n", bench::HostJson().c_str());
  std::fprintf(out,
               "  \"config\": {\"n\": %zu, \"m\": %zu, \"window\": %zu, "
               "\"shards\": %zu, \"epochs\": %zu, \"events_per_epoch\": %zu, "
               "\"batch\": %zu, \"k\": %zu, \"seed\": %llu, \"trials\": %zu, "
               "\"query_threads\": %zu},\n",
               config.n, config.m, config.window, config.shards, config.epochs,
               config.events_per_epoch, config.batch, config.k,
               static_cast<unsigned long long>(config.seed), trials,
               query_threads);
  std::fprintf(out, "  \"limits\": [\n");
  for (size_t i = 0; i < limits.size(); ++i) {
    const LimitResult& r = limits[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"ingest_wall_ms\": %.3f,\n"
                 "     \"output_digest\": \"0x%016" PRIx64 "\"}%s\n",
                 r.threads, r.ingest_ms, r.digest,
                 i + 1 < limits.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"reference_window_digest\": \"0x%016" PRIx64 "\",\n",
               reference.Value());
  std::fprintf(out, "  \"bit_identical\": %s,\n",
               bit_identical ? "true" : "false");
  std::fprintf(out,
               "  \"throughput\": {\"threads\": %zu, \"updates_per_sec\": "
               "%.0f, \"queries_answered\": %llu,\n"
               "                 \"max_snapshot_age_epochs\": %llu, "
               "\"staleness_bound_held\": %s},\n",
               widest, updates_per_sec,
               static_cast<unsigned long long>(queries_answered),
               static_cast<unsigned long long>(max_staleness),
               staleness_ok ? "true" : "false");
  std::fprintf(out,
               "  \"telemetry\": {\"plain_wall_ms\": %.3f, "
               "\"telemetry_wall_ms\": %.3f, \"overhead_pct\": %.3f}\n}\n",
               plain_ms, telemetry_ms, overhead_pct);
  std::fclose(out);
  std::printf("Wrote %s\n", out_path.c_str());

  bench::Gates gates;
  gates.Holds("bit_identical", bit_identical);
  gates.Holds("staleness_bound_held", staleness_ok);
  gates.AtLeast("min_updates_per_sec", updates_per_sec,
                bench::ByCoreTier(100000, 50000, 25000));
  gates.AtMost("max_telemetry_overhead_pct", overhead_pct, 2.0);
  return gates.exit_code();
}
