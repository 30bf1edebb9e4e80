#ifndef CSOD_MAPREDUCE_JOBS_H_
#define CSOD_MAPREDUCE_JOBS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/compressor.h"
#include "mapreduce/cost_model.h"
#include "obs/telemetry.h"
#include "outlier/outlier.h"

namespace csod::mr {

/// One raw log record as seen by a mapper: a key (global-dictionary index)
/// and a score contribution. Thousands of these aggregate into one key's
/// value — the "partial aggregation" the paper's mappers perform.
struct ScoreEvent {
  uint64_t key = 0;
  double score = 0.0;
};

/// Expands additive slices into raw event splits: each (key, value) entry
/// becomes `events_per_key` ScoreEvents whose scores sum to the value
/// exactly. This gives map tasks realistic aggregation work.
std::vector<std::vector<ScoreEvent>> ExpandSlicesToEvents(
    const std::vector<cs::SparseSlice>& slices, size_t events_per_key,
    uint64_t seed);

/// Result of the traditional (shuffle-everything) top-k job.
struct TopKJobResult {
  std::vector<outlier::Outlier> top;  ///< value-ranked, size <= k.
  JobStats stats;
};

/// \brief Baseline job of Section 6.2: mappers partially aggregate (via
/// the engine's `combine_fn` hook) and ship every (key, partial sum) pair
/// (96-bit tuples); one reducer merges, sorts, and outputs the top-k.
/// Shuffle volume grows with the number of distinct keys. The stats carry
/// both pre- and post-combine shuffle volume
/// (JobStats::pre_combine_shuffle_*). `telemetry` receives the engine's
/// `mr.*` spans and counters; null is free.
Result<TopKJobResult> RunTraditionalTopKJob(
    const std::vector<std::vector<ScoreEvent>>& splits, size_t k,
    obs::Telemetry* telemetry = nullptr);

/// Configuration of the CS-based MapReduce job (Algorithms 3 and 4).
struct CsJobOptions {
  size_t n = 0;           ///< Global key-list length N.
  size_t m = 0;           ///< Measurement size M.
  size_t k = 5;           ///< Outliers requested.
  uint64_t seed = 1;      ///< Consensus seed for Φ0.
  size_t iterations = 0;  ///< R; 0 = the paper's f(k).
  /// Dense-cache budget for the *reducer-side* matrix (mappers always use
  /// the implicit column-regenerated form — they only need O(nnz·M) work).
  size_t cache_budget_bytes = cs::MeasurementMatrix::kDefaultCacheBudgetBytes;
  /// Telemetry sink ("job.cs" span, per-mapper "job.*" rollups; forwarded
  /// to the compressor and BOMP). Null or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Result of the CS-based job.
struct CsJobResult {
  outlier::OutlierSet outliers;
  cs::BompResult recovery;
  JobStats stats;
};

/// \brief CS-Mapper / CS-Reducer job (Section 5): mappers partially
/// aggregate, vectorize against the global key list, compress with the
/// seeded Φ0, and ship M 64-bit measurements each; the single reducer sums
/// the measurement vectors and recovers outliers and mode with BOMP.
Result<CsJobResult> RunCsOutlierJob(
    const std::vector<std::vector<ScoreEvent>>& splits,
    const CsJobOptions& options);

}  // namespace csod::mr

#endif  // CSOD_MAPREDUCE_JOBS_H_
