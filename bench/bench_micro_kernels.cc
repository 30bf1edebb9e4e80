// google-benchmark micro kernels for the hot paths of the CS pipeline:
// column generation, compression, correlation (cached vs implicit), QR
// append, and end-to-end OMP/BOMP recovery. These quantify the design
// decisions called out in DESIGN.md (dense cache vs regeneration) and the
// GPU-offload opportunity the paper leaves as future work.

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "cs/bomp.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"
#include "dist/wire_format.h"
#include "la/incremental_qr.h"
#include "sim/buggify.h"
#include "sketch/count_sketch.h"
#include "workload/generators.h"

namespace {

using namespace csod;

void BM_CounterGaussian(benchmark::State& state) {
  CounterGaussian gen(42);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.At(i++));
  }
}
BENCHMARK(BM_CounterGaussian);

void BM_ColumnGeneration(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  cs::MeasurementMatrix matrix(m, 1024, 7, /*cache_budget_bytes=*/0);
  std::vector<double> col(m);
  size_t j = 0;
  for (auto _ : state) {
    matrix.FillColumn(j++ % 1024, col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ColumnGeneration)->Arg(64)->Arg(256)->Arg(1024);

void BM_CompressSparseSlice(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t nnz = static_cast<size_t>(state.range(1));
  cs::MeasurementMatrix matrix(m, 100000, 3, /*cache_budget_bytes=*/0);
  cs::SparseSlice slice;
  Rng rng(5);
  for (size_t i = 0; i < nnz; ++i) {
    slice.indices.push_back(rng.NextBounded(100000));
    slice.values.push_back(rng.NextGaussian());
  }
  for (auto _ : state) {
    auto y = matrix.MultiplySparse(slice.indices, slice.values);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * m * nnz);
}
BENCHMARK(BM_CompressSparseSlice)->Args({100, 1000})->Args({400, 1000});

// The serve sketch: framed batches of 2,048 uniform keys over N = 50k,
// scattered over 8 shard slices and folded by MultiplySparseBatch on the
// cached M = 256 matrix (25.6 MB). Successive iterations take successive
// batches of a 64-batch cycle, so as in a live ingest stream the columns a
// batch reads were not all read by the batch before it. Its cpu_time is the
// whole process's, pool workers included.
void BM_MultiplySparseBatchScattered(benchmark::State& state) {
  constexpr size_t kM = 256;
  constexpr size_t kN = 50000;
  constexpr size_t kSlices = 8;
  constexpr size_t kKeys = 2048;
  constexpr size_t kBatches = 64;
  cs::MeasurementMatrix matrix(kM, kN, 7);
  std::vector<std::vector<cs::SparseSlice>> batches(
      kBatches, std::vector<cs::SparseSlice>(kSlices));
  std::vector<std::vector<cs::SparseVectorView>> views(kBatches);
  Rng rng(11);
  for (size_t b = 0; b < kBatches; ++b) {
    for (size_t i = 0; i < kKeys; ++i) {
      const size_t key = rng.NextBounded(kN);
      cs::SparseSlice& slice = batches[b][SplitMix64(key) % kSlices];
      slice.indices.push_back(key);
      slice.values.push_back(1.0 + static_cast<double>(rng.NextBounded(8)));
    }
    for (const cs::SparseSlice& slice : batches[b]) {
      views[b].push_back(cs::SparseVectorView{
          slice.indices.data(), slice.values.data(), slice.nnz()});
    }
  }
  std::vector<double> sum;
  size_t b = 0;
  for (auto _ : state) {
    matrix.MultiplySparseBatch(views[b], &sum).Check();
    benchmark::DoNotOptimize(sum.data());
    benchmark::ClobberMemory();
    b = (b + 1) % kBatches;
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_MultiplySparseBatchScattered)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CorrelateCached(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  cs::MeasurementMatrix matrix(m, n, 9);
  std::vector<double> r(m);
  Rng rng(2);
  for (double& v : r) v = rng.NextGaussian();
  for (auto _ : state) {
    auto c = matrix.CorrelateAll(r);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_CorrelateCached)->Args({200, 10000})->Args({400, 20000});

void BM_CorrelateImplicit(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  cs::MeasurementMatrix matrix(m, n, 9, /*cache_budget_bytes=*/0);
  std::vector<double> r(m);
  Rng rng(2);
  for (double& v : r) v = rng.NextGaussian();
  for (auto _ : state) {
    auto c = matrix.CorrelateAll(r);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_CorrelateImplicit)->Args({200, 10000});

void BM_QrAppendColumn(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::vector<double>> columns;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> col(m);
    for (double& v : col) v = rng.NextGaussian();
    columns.push_back(std::move(col));
  }
  for (auto _ : state) {
    la::IncrementalQr qr(m);
    for (const auto& col : columns) {
      benchmark::DoNotOptimize(qr.AppendColumn(col));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QrAppendColumn)->Arg(256)->Arg(1024);

void BM_BompRecovery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t s = static_cast<size_t>(state.range(1));
  const size_t m = static_cast<size_t>(state.range(2));

  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = 13;
  auto x = workload::GenerateMajorityDominated(gen).MoveValue();
  cs::MeasurementMatrix matrix(m, n, 21);
  auto y = matrix.Multiply(x).MoveValue();

  cs::BompOptions options;
  options.max_iterations = s + 2;
  for (auto _ : state) {
    auto result = cs::RunBomp(matrix, y, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BompRecovery)
    ->Args({1000, 10, 100})
    ->Args({1000, 50, 400})
    ->Args({10000, 50, 400})
    ->Args({100000, 50, 512})  // Paper scale; the acceptance target.
    ->Unit(benchmark::kMillisecond);

// The seed's ParallelFor: spawn + join fresh std::threads on every call.
// Kept here as the baseline BM_SpawnJoinOverhead so the pool's dispatch win
// is measurable against it in the same binary.
void SpawnJoinParallelFor(size_t count, size_t min_chunk,
                          const std::function<void(size_t, size_t)>& body) {
  const size_t limit = GetParallelismLimit();
  const size_t chunks =
      std::min(limit, std::max<size_t>(1, count / std::max<size_t>(1, min_chunk)));
  if (chunks <= 1 || count == 0) {
    if (count > 0) body(0, count);
    return;
  }
  const size_t chunk_size = (count + chunks - 1) / chunks;
  std::vector<std::thread> threads;
  threads.reserve(chunks - 1);
  for (size_t c = 1; c < chunks; ++c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(count, begin + chunk_size);
    if (begin < end) threads.emplace_back(body, begin, end);
  }
  body(0, std::min(count, chunk_size));
  for (auto& t : threads) t.join();
}

void BM_ParallelForOverhead(benchmark::State& state) {
  // Dispatch cost of the persistent pool: trivial body, small range. The
  // pool parks workers between calls, so steady state is one notify_all
  // plus the chunk bookkeeping.
  SetParallelismLimit(4);
  for (auto _ : state) {
    ParallelFor(4096, 1, [](size_t begin, size_t end) {
      benchmark::DoNotOptimize(begin + end);
    });
  }
  state.counters["workers"] =
      static_cast<double>(ThreadPool::Global().worker_count());
  SetParallelismLimit(std::max<size_t>(1, std::thread::hardware_concurrency()));
}
BENCHMARK(BM_ParallelForOverhead);

void BM_SpawnJoinOverhead(benchmark::State& state) {
  // What the seed paid per ParallelFor call: thread creation + join.
  SetParallelismLimit(4);
  for (auto _ : state) {
    SpawnJoinParallelFor(4096, 1, [](size_t begin, size_t end) {
      benchmark::DoNotOptimize(begin + end);
    });
  }
  SetParallelismLimit(std::max<size_t>(1, std::thread::hardware_concurrency()));
}
BENCHMARK(BM_SpawnJoinOverhead);

// The screen-then-confirm OMP statement-4 kernel, selecting `count`
// columns, on an M x N matrix (state.range(0), state.range(1)), cached
// unless `cache_budget_bytes` is 0. The kernel runs on the pool, so these
// rows count the process's CPU time, every worker included, and report
// wall time as the real time.
void RunCorrelateTop(benchmark::State& state, size_t count,
                     size_t cache_budget_bytes =
                         cs::MeasurementMatrix::kDefaultCacheBudgetBytes) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  cs::MeasurementMatrix matrix(m, n, 9, cache_budget_bytes);
  std::vector<double> r(m);
  Rng rng(2);
  for (double& v : r) v = rng.NextGaussian();
  std::vector<bool> mask(n, false);
  for (size_t j = 0; j < n; j += 997) mask[j] = true;
  for (auto _ : state) {
    auto top = matrix.CorrelateTop(r, count, &mask);
    benchmark::DoNotOptimize(top);
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}

void BM_CorrelateArgmax(benchmark::State& state) {
  // The S = 1 call at paper scale, M=512, N=100k (51.2 MB of int8
  // entries, inside the default 512 MB budget), at the serve geometry,
  // M=256, N=50k (12.8 MB), and at the batch-detect geometry, M=600,
  // N=10.4k (6.2 MB).
  RunCorrelateTop(state, 1);
}
BENCHMARK(BM_CorrelateArgmax)
    ->Args({512, 100000})
    ->Args({256, 50000})
    ->Args({600, 10400})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CorrelateTop2(benchmark::State& state) {
  // The pass OMP runs (cs::kAtomsPerPass = 2) at the serve and
  // batch-detect geometries.
  RunCorrelateTop(state, cs::kAtomsPerPass);
}
BENCHMARK(BM_CorrelateTop2)
    ->Args({256, 50000})
    ->Args({600, 10400})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// BM_CorrelateTop2 and BM_MultiplySparseBatchScattered again at each SIMD
// level, named <row>/<level>/...: the screen and the int8 Axpy family are
// the kernels with an AVX-512 form, so these rows compare their paths in
// one binary. A level the host lacks runs the best one it has, which the
// row's label names.
void RunAtLevel(benchmark::State& state, simd::Level level,
                void (*body)(benchmark::State&)) {
  const simd::Level previous = simd::SetLevelForTesting(level);
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
  body(state);
  simd::SetLevelForTesting(previous);
}

[[maybe_unused]] const bool kPerLevelRows = [] {
  for (simd::Level level : simd::kAllLevels) {
    const std::string suffix = std::string("/") + simd::LevelName(level);
    benchmark::RegisterBenchmark(("BM_CorrelateTop2" + suffix).c_str(),
                                 RunAtLevel, level, BM_CorrelateTop2)
        ->Args({256, 50000})
        ->Args({600, 10400})
        ->MeasureProcessCPUTime()
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_MultiplySparseBatchScattered" + suffix).c_str(), RunAtLevel,
        level, BM_MultiplySparseBatchScattered)
        ->MeasureProcessCPUTime()
        ->Unit(benchmark::kMicrosecond);
  }
  return true;
}();

void BM_CorrelateTop2Implicit(benchmark::State& state) {
  // The same pass on an implicit Φ0 (cache budget 0): each 64-column block
  // is generated into a scratch before it is screened.
  RunCorrelateTop(state, cs::kAtomsPerPass, /*cache_budget_bytes=*/0);
}
BENCHMARK(BM_CorrelateTop2Implicit)
    ->Args({256, 50000})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CorrelateAllPlusScan(benchmark::State& state) {
  // The unfused shape of the same work: materialize the N-vector of
  // correlations, then rescan it for the masked argmax.
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  cs::MeasurementMatrix matrix(m, n, 9);
  std::vector<double> r(m);
  Rng rng(2);
  for (double& v : r) v = rng.NextGaussian();
  std::vector<bool> mask(n, false);
  for (size_t j = 0; j < n; j += 997) mask[j] = true;
  for (auto _ : state) {
    auto c = matrix.CorrelateAll(r).MoveValue();
    size_t best = n;
    double best_abs = -1.0;
    for (size_t j = 0; j < n; ++j) {
      if (mask[j]) continue;
      const double a = std::fabs(c[j]);
      if (a > best_abs) {
        best_abs = a;
        best = j;
      }
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_CorrelateAllPlusScan)
    ->Args({512, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_CorrelateScalarPlusScan(benchmark::State& state) {
  // Seed-equivalent baseline: one scalar accumulator per column over an
  // identical column-major cache, then the argmax rescan. This is the
  // kernel shape the register-blocked CorrelateArgmax replaces.
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  cs::MeasurementMatrix matrix(m, n, 9, /*cache_budget_bytes=*/0);
  std::vector<double> cache(m * n);
  for (size_t j = 0; j < n; ++j) matrix.FillColumn(j, cache.data() + j * m);
  std::vector<double> r(m);
  Rng rng(2);
  for (double& v : r) v = rng.NextGaussian();
  std::vector<bool> mask(n, false);
  for (size_t j = 0; j < n; j += 997) mask[j] = true;
  std::vector<double> c(n);
  for (auto _ : state) {
    for (size_t j = 0; j < n; ++j) {
      const double* col = cache.data() + j * m;
      double acc = 0.0;
      for (size_t i = 0; i < m; ++i) acc += col[i] * r[i];
      c[j] = acc;
    }
    size_t best = n;
    double best_abs = -1.0;
    for (size_t j = 0; j < n; ++j) {
      if (mask[j]) continue;
      const double a = std::fabs(c[j]);
      if (a > best_abs) {
        best_abs = a;
        best = j;
      }
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_CorrelateScalarPlusScan)
    ->Args({512, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_CountSketchUpdate(benchmark::State& state) {
  auto sketch = sketch::CountSketch::Create(1024, 5, 3).MoveValue();
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Update(key++, 1.5);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchUpdate);

// The envelope checksum over one ingest frame of the ledger's serve
// geometry (2,048 updates: 24,627 checksummed bytes).
void BM_FrameChecksum(benchmark::State& state) {
  std::string bytes(24627, '\0');
  Rng rng(3);
  for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::FrameChecksum(bytes));
  }
  state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_FrameChecksum)->Unit(benchmark::kMicrosecond);

void BM_MeasurementAggregation(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> measurements(64,
                                                std::vector<double>(m, 1.0));
  for (auto _ : state) {
    auto y = cs::Compressor::AggregateMeasurements(measurements);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * 64 * m);
}
BENCHMARK(BM_MeasurementAggregation)->Arg(400)->Arg(2000);

// Disabled Buggify sites live in release hot paths (comm sends, map
// tasks, ingest batches — DESIGN.md §15), so their cost must be one
// relaxed load and a never-taken branch. Measured here against an empty
// loop so a regression (say, a mutex sneaking into the fast path) shows
// up as a multiple, not a few lost nanoseconds.
void BM_BuggifyDisabledSite(benchmark::State& state) {
  sim::BuggifyDisable();
  uint64_t fired = 0;
  for (auto _ : state) {
    if (CSOD_BUGGIFY("bench.disabled_site")) ++fired;
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_BuggifyDisabledSite);

void BM_BuggifyEnabledSite(benchmark::State& state) {
  sim::BuggifyOptions options;
  options.activation_probability = 1.0;
  options.fire_probability = 0.25;
  sim::BuggifyEnable(options);
  uint64_t fired = 0;
  for (auto _ : state) {
    if (CSOD_BUGGIFY("bench.enabled_site")) ++fired;
    benchmark::DoNotOptimize(fired);
  }
  sim::BuggifyDisable();
}
BENCHMARK(BM_BuggifyEnabledSite);

}  // namespace

BENCHMARK_MAIN();
