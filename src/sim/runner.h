#ifndef CSOD_SIM_RUNNER_H_
#define CSOD_SIM_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace csod::sim {

/// Outcome of one scenario: a deterministic digest over everything the
/// run produced (answers, byte accounting, fault/Buggify event counts)
/// plus any invariant violations found. `digest` is the value the
/// double-run and cross-thread-limit comparisons diff.
struct ScenarioOutcome {
  uint64_t digest = 0;
  std::vector<std::string> violations;
  std::string summary;  ///< One-line per-scenario result.

  bool ok() const { return violations.empty(); }
};

/// Runs one scenario and checks its invariants:
///  - telemetry `comm.bytes.*` == CommStats, per phase and in total;
///  - fault-free (no exclusion) CS-family answers are exact;
///  - a degraded cs run is bit-identical to a clean run over the
///    surviving sub-cluster, and a sparse (canary) exclusion obeys the
///    THEORY.md §6 precision/recall envelope;
///  - the K+δ baseline under Buggify traffic perturbations returns the
///    byte-for-byte unperturbed answer with >= the unperturbed bytes;
///  - MapReduce output under Buggify re-execution / buffer pressure is
///    bit-identical to the unperturbed run;
///  - serve snapshot staleness <= 1 epoch, and every generated event is
///    folded exactly once across torn-frame retries;
///  - the whole outcome digest is identical when re-executed at a
///    different parallelism limit.
/// The caller owns Buggify state transitions only through this function:
/// it enables/disables around the run per the scenario.
ScenarioOutcome RunScenario(const Scenario& scenario);

/// Sweep configuration (the sim driver and `csod sim` front ends).
struct SweepOptions {
  uint64_t seed0 = 1;      ///< First scenario seed; scenarios use seed0+i.
  size_t scenarios = 200;  ///< Number of scenarios to run.
  bool verbose = false;    ///< Per-scenario summary lines in the report.
};

/// Result of a sweep: per-kind counts, failures (each carrying its
/// one-line replay recipe), and the combined digest over all outcomes —
/// the value scripts/run_simulation.sh diffs across two runs.
struct SweepResult {
  size_t ran = 0;
  size_t failed = 0;
  uint64_t combined_digest = 0;
  std::vector<std::string> failures;
  std::string report;

  bool ok() const { return failed == 0; }
};

SweepResult RunSweep(const SweepOptions& options);

/// Replays one seed (the recipe printed by a failing run) and returns its
/// outcome; `out_scenario_line` (optional) receives the scenario string.
ScenarioOutcome ReplaySeed(uint64_t seed, std::string* out_scenario_line);

}  // namespace csod::sim

#endif  // CSOD_SIM_RUNNER_H_
