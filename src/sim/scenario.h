#ifndef CSOD_SIM_SCENARIO_H_
#define CSOD_SIM_SCENARIO_H_

#include <cstdint>
#include <string>

#include "dist/fault.h"
#include "sim/buggify.h"

namespace csod::sim {

/// What a generated scenario exercises. The CS-family kinds run a
/// distributed protocol over a partitioned majority-dominated workload
/// under a derived fault plan; kKPlusDelta runs the perfect-network
/// baseline under Buggify traffic perturbations only; kMapReduce and
/// kServe drive the engine and the streaming service.
enum class ScenarioKind {
  kCs,
  kAdaptiveGrow,
  kTwoPhase,
  kKPlusDelta,
  kMapReduce,
  kServe,
};

const char* ScenarioKindName(ScenarioKind kind);

/// One fully derived simulation scenario. Every field below is a pure
/// function of `seed` (ScenarioFromSeed), which is what makes the one-line
/// replay recipe sufficient: re-deriving from the seed reconstructs the
/// identical workload, fault plan, and Buggify schedule.
struct Scenario {
  uint64_t seed = 0;
  ScenarioKind kind = ScenarioKind::kCs;

  // Problem shape (CS-family and baseline kinds).
  size_t n = 0;          ///< Key space.
  size_t sparsity = 0;   ///< Planted outliers s.
  size_t num_nodes = 0;  ///< Cluster size L (excludes the canary node).
  size_t k = 0;          ///< Queried outliers.
  size_t m = 0;          ///< Measurement rows (CS-family kinds).
  /// kSkewedSplit cancellation noise (CS-family kinds; the k5 regime).
  double cancellation_noise = 0.0;
  /// When true, the cluster gains one extra "canary" node holding a few
  /// outlier-sized keys and the fault plan force-crashes it — the sparse
  /// exclusion whose THEORY.md §6 envelope the runner checks exactly.
  bool canary_crash = false;

  size_t thread_limit = 1;  ///< Parallelism limit the scenario runs under.

  // Data-plane faults (CS-family kinds only; all-zero elsewhere).
  dist::FaultPlan faults;
  dist::RetryPolicy retry;

  // Buggify schedule.
  bool buggify = false;
  BuggifyOptions buggify_options;

  // kServe shape.
  size_t window_epochs = 0;
  size_t epochs = 0;
  size_t num_shards = 0;
  size_t batches_per_epoch = 0;
  size_t events_per_batch = 0;

  // kMapReduce shape.
  size_t num_splits = 0;
  size_t records_per_split = 0;
  size_t num_reduce_tasks = 0;
  bool use_combiner = false;
};

/// Derives the full scenario from one seed. Pure and stable: the same
/// seed always yields the same scenario (the replay contract of
/// docs/FAULT_MODEL.md §7).
Scenario ScenarioFromSeed(uint64_t seed);

/// One-line human-readable form of the scenario — the second half of the
/// `(seed, scenario)` replay recipe failing runs print.
std::string ScenarioToString(const Scenario& scenario);

}  // namespace csod::sim

#endif  // CSOD_SIM_SCENARIO_H_
