#ifndef CSOD_DIST_ADAPTIVE_CS_PROTOCOL_H_
#define CSOD_DIST_ADAPTIVE_CS_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "dist/fault.h"
#include "dist/protocol.h"

namespace csod::dist {

/// How the adaptive protocol spends its measurement budget.
enum class AdaptiveStrategy {
  /// Grow M geometrically until the recovery certifies itself (the
  /// original behavior; incremental rows, log(M/M₀) rounds).
  kGrowM,
  /// Li & Haupt-style two-phase sense-then-refine (PAPERS.md): a coarse
  /// pass with M₁ ≪ M *locates* candidate outlier columns, the
  /// coordinator broadcasts that candidate support S, and a second pass
  /// senses only the |S| restricted columns with M₂ = |S| + margin rows —
  /// the refine solve is then an overdetermined least squares, exact in
  /// the noiseless model. Total bytes per node are (M₁ + M₂)·S_M plus
  /// |S| broadcast key ids, well below a fixed-M run at matched
  /// precision/recall (docs/THEORY.md §8 gives the budget bound;
  /// bench/bench_recovery measures it on the Fig 7 workload).
  kTwoPhase,
};

/// Configuration of the adaptive CS protocol.
struct AdaptiveCsOptions {
  /// First-round measurement size.
  size_t initial_m = 64;
  /// Hard cap; the protocol reports its best effort when it is reached.
  size_t max_m = 4096;
  /// Multiplicative growth per round (must be > 1).
  double growth = 2.0;
  /// Consensus seed.
  uint64_t seed = 1;
  /// BOMP iteration budget per attempt; 0 = the paper's f(k).
  size_t iterations = 0;
  /// Accept the recovery when the relative residual drops below this
  /// (an exact recovery of sparse-like data leaves ~0 residual; requires
  /// `iterations` past the data's sparsity to fire).
  double acceptance_residual = 1e-6;
  /// Also accept when the detected top-k key set is identical in two
  /// consecutive rounds — the practical criterion when the iteration
  /// budget R = f(k) targets only the top-k, not full support recovery.
  bool accept_on_stable_topk = true;
  /// Fault plan applied to every round's incremental-row transmissions
  /// (default: perfect network, bit-identical to the pre-fault protocol).
  FaultPlan faults;
  /// Coordinator retry/timeout policy per round.
  RetryPolicy retry;
  /// When true (default), a node that exhausts the retry budget in some
  /// round is excluded from that round on — its measurement prefix can no
  /// longer be extended — and recovery proceeds from the partial sum of
  /// the surviving nodes. When false such a run fails instead.
  bool allow_degraded = true;

  /// Budget strategy; the knobs below apply to kTwoPhase only.
  AdaptiveStrategy strategy = AdaptiveStrategy::kGrowM;
  /// Coarse-pass measurement size M₁. Locating the top-k among the
  /// candidates is much easier than recovering exact values, so M₁ can
  /// sit well below the fixed-M budget the one-shot protocol needs.
  size_t locate_m = 256;
  /// Candidate support size |S| = support_factor · k (clamped to what the
  /// locate recovery actually produced). Over-selecting buys locate
  /// recall: a true outlier merely has to *appear* in S, not rank top-k.
  size_t support_factor = 4;
  /// Refine-pass rows M₂ = |S| + refine_margin (refine_m overrides when
  /// nonzero). M₂ > |S| makes the restricted system overdetermined, so
  /// the refine values are least-squares exact rather than CS estimates.
  size_t refine_margin = 16;
  size_t refine_m = 0;
};

/// Diagnostics of one adaptive round.
struct AdaptiveRound {
  size_t m = 0;
  double relative_residual = 0.0;
  /// Detected top-k matched the previous round's.
  bool topk_stable = false;
  bool accepted = false;
  /// "grow" for the geometric strategy; "locate" / "refine" for the
  /// two-phase strategy's passes.
  const char* phase = "grow";
};

/// \brief Adaptive-measurement extension of the paper's protocol: pick M
/// without knowing the data's sparsity.
///
/// The fixed-M protocol needs M = O(s^a log N), but s is workload
/// dependent (the paper reads 300/650/610 off Figure 9 after the fact).
/// This variant starts small and grows M geometrically until the BOMP
/// residual certifies the recovery. The key trick is the measurement
/// matrix's *row-prefix property*: entry (i, j) is a pure function of
/// (seed, j, i), so when M grows from M1 to M2 every node only computes
/// and transmits the `M2 - M1` new rows (the already-shipped prefix is
/// rescaled by sqrt(M1/M2) locally at the aggregator — no retransmission).
/// Total communication is therefore O(M_final) tuples per node, at the
/// price of log(M_final / M_initial) rounds; the paper's single-round
/// protocol is the degenerate case initial_m == max_m.
class AdaptiveCsProtocol final : public OutlierProtocol {
 public:
  explicit AdaptiveCsProtocol(AdaptiveCsOptions options)
      : options_(options) {}

  Result<outlier::OutlierSet> Run(const Cluster& cluster, size_t k,
                                  CommStats* comm) override;
  std::string name() const override {
    return options_.strategy == AdaptiveStrategy::kTwoPhase ? "TwoPhaseCS"
                                                            : "AdaptiveBOMP";
  }

  /// Per-round diagnostics of the last Run().
  const std::vector<AdaptiveRound>& rounds() const { return rounds_; }
  /// Recovery of the accepted (or final best-effort) round.
  const cs::BompResult& last_recovery() const { return last_recovery_; }
  /// Fault-tolerance outcome of the last Run(); excluded nodes accumulate
  /// across rounds (a failed node cannot rejoin — see AdaptiveCsOptions).
  const CollectionReport& last_collection() const { return last_collection_; }

 private:
  Result<outlier::OutlierSet> RunGrow(const Cluster& cluster, size_t k,
                                      CommStats* comm);
  Result<outlier::OutlierSet> RunTwoPhase(const Cluster& cluster, size_t k,
                                          CommStats* comm);

  AdaptiveCsOptions options_;
  std::vector<AdaptiveRound> rounds_;
  cs::BompResult last_recovery_;
  CollectionReport last_collection_;
};

}  // namespace csod::dist

#endif  // CSOD_DIST_ADAPTIVE_CS_PROTOCOL_H_
