#include "dist/adaptive_cs_protocol.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/random.h"
#include "cs/compressor.h"
#include "cs/solver.h"
#include "la/incremental_qr.h"
#include "la/vector_ops.h"
#include "sim/buggify.h"

namespace csod::dist {

Result<outlier::OutlierSet> AdaptiveCsProtocol::Run(const Cluster& cluster,
                                                    size_t k,
                                                    CommStats* comm) {
  if (comm == nullptr) {
    return Status::InvalidArgument(
        "AdaptiveCsProtocol: comm must not be null");
  }
  if (options_.strategy == AdaptiveStrategy::kTwoPhase) {
    return RunTwoPhase(cluster, k, comm);
  }
  return RunGrow(cluster, k, comm);
}

Result<outlier::OutlierSet> AdaptiveCsProtocol::RunGrow(const Cluster& cluster,
                                                        size_t k,
                                                        CommStats* comm) {
  if (options_.initial_m == 0 || options_.max_m < options_.initial_m) {
    return Status::InvalidArgument(
        "AdaptiveCsProtocol: need 0 < initial_m <= max_m");
  }
  if (options_.growth <= 1.0) {
    return Status::InvalidArgument("AdaptiveCsProtocol: growth must be > 1");
  }
  if (cluster.num_nodes() == 0) {
    return Status::FailedPrecondition("AdaptiveCsProtocol: empty cluster");
  }

  obs::TraceSpan run_span(telemetry_, "protocol.adaptive");
  rounds_.clear();
  last_recovery_ = cs::BompResult{};
  const size_t n = cluster.key_space_size();
  const size_t iterations = cs::IterationBudget(options_.iterations, k);

  const FaultInjector injector(options_.faults);
  Channel channel(comm, options_.faults.any() ? &injector : nullptr,
                  telemetry_);
  std::vector<NodeId> alive = cluster.NodeIds();
  last_collection_ = CollectionReport{};
  last_collection_.nodes_total = alive.size();

  size_t prev_m = 0;
  size_t m = std::min(options_.initial_m, options_.max_m);
  std::vector<size_t> previous_topk;
  while (true) {
    channel.BeginRound();
    // Every node transmits only the new measurement rows [prev_m, m); the
    // previously shipped prefix is rescaled at the aggregator (row-prefix
    // property — see the class comment). In the simulator we recompute the
    // full compression per round for simplicity; the *accounting* charges
    // exactly the incremental rows, which is what the real system ships.
    // A node that fails this round (after retries) drops out for good: its
    // already-shipped prefix cannot be extended to the new M, so its whole
    // contribution leaves the aggregate (docs/FAULT_MODEL.md).
    std::vector<bool> round_delivered = CollectWithRetry(
        &channel, options_.retry, alive, "adaptive-measurements", m - prev_m,
        kMeasurementBytes, &last_collection_);
    // Buggify: a torn round — the node shipped its incremental rows but
    // dies before the round commits, so its *entire* prefix (not just the
    // new rows) leaves the aggregate, exactly like a retry exhaustion.
    // At least one node survives every round.
    if (sim::BuggifyEnabled()) {
      size_t round_alive = 0;
      for (size_t i = 0; i < alive.size(); ++i) {
        if (round_delivered[i]) ++round_alive;
      }
      for (size_t i = 0; i < alive.size() && round_alive > 1; ++i) {
        if (!round_delivered[i]) continue;
        if (CSOD_BUGGIFY_AT("protocol.adaptive.torn_round",
                            HashCombine(m, alive[i]))) {
          round_delivered[i] = false;
          last_collection_.excluded_nodes.push_back(alive[i]);
          --round_alive;
        }
      }
    }
    std::vector<NodeId> still_alive;
    still_alive.reserve(alive.size());
    for (size_t i = 0; i < alive.size(); ++i) {
      if (round_delivered[i]) still_alive.push_back(alive[i]);
    }
    alive = std::move(still_alive);
    if (last_collection_.degraded() && !options_.allow_degraded) {
      return Status::FailedPrecondition(
          "AdaptiveCsProtocol: " +
          std::to_string(last_collection_.excluded_nodes.size()) +
          " node(s) unreachable after retries and degraded mode is "
          "disabled");
    }
    if (alive.empty()) {
      return Status::FailedPrecondition(
          "AdaptiveCsProtocol: every node failed — no measurements to "
          "aggregate");
    }

    const std::shared_ptr<const cs::MeasurementMatrix> matrix =
        cs::SharedMatrix(m, n, options_.seed);
    cs::Compressor compressor(matrix.get());
    compressor.set_telemetry(telemetry_);
    // Fused compress-and-accumulate over the surviving nodes' slices
    // (`alive` is non-empty, checked above).
    std::vector<const cs::SparseSlice*> slices;
    slices.reserve(alive.size());
    for (NodeId id : alive) {
      CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice, cluster.Slice(id));
      slices.push_back(slice);
    }
    std::vector<double> y;
    CSOD_RETURN_NOT_OK(compressor.CompressAccumulate(slices, &y));

    cs::BompOptions bomp_options;
    bomp_options.max_iterations = iterations;
    bomp_options.telemetry = telemetry_;
    CSOD_ASSIGN_OR_RETURN(last_recovery_,
                          cs::RunBomp(*matrix, y, bomp_options));

    const outlier::OutlierSet detected =
        outlier::KOutliersFromRecovery(last_recovery_, k);
    std::vector<size_t> topk_keys;
    topk_keys.reserve(detected.outliers.size());
    for (const auto& o : detected.outliers) topk_keys.push_back(o.key_index);
    std::sort(topk_keys.begin(), topk_keys.end());

    const double y_norm = la::Norm2(y);
    AdaptiveRound round;
    round.m = m;
    round.relative_residual =
        y_norm == 0.0 ? 0.0 : last_recovery_.final_residual_norm / y_norm;
    round.topk_stable =
        !rounds_.empty() && topk_keys == previous_topk && !topk_keys.empty();
    // The residual only certifies the recovery when the system is
    // genuinely under-determined: as R approaches m, OMP can explain
    // *any* y (R selected atoms span most of R^m) without identifying
    // the true support. Require at least half the measurement dimensions
    // to be unexplained degrees of freedom — then a near-zero residual
    // is a real certificate.
    const bool residual_meaningful = m >= 2 * iterations;
    round.accepted =
        (residual_meaningful &&
         round.relative_residual <= options_.acceptance_residual) ||
        (options_.accept_on_stable_topk && round.topk_stable);
    rounds_.push_back(round);
    previous_topk = std::move(topk_keys);

    if (round.accepted || m >= options_.max_m) break;
    prev_m = m;
    m = std::min(options_.max_m,
                 std::max(m + 1, static_cast<size_t>(
                                     std::ceil(m * options_.growth))));
  }

  return outlier::KOutliersFromRecovery(last_recovery_, k);
}

Result<outlier::OutlierSet> AdaptiveCsProtocol::RunTwoPhase(
    const Cluster& cluster, size_t k, CommStats* comm) {
  if (options_.locate_m == 0) {
    return Status::InvalidArgument(
        "AdaptiveCsProtocol: two-phase needs locate_m > 0");
  }
  if (cluster.num_nodes() == 0) {
    return Status::FailedPrecondition("AdaptiveCsProtocol: empty cluster");
  }

  obs::TraceSpan run_span(telemetry_, "protocol.two_phase");
  rounds_.clear();
  last_recovery_ = cs::BompResult{};
  const size_t n = cluster.key_space_size();
  const size_t iterations = cs::IterationBudget(options_.iterations, k);

  const FaultInjector injector(options_.faults);
  Channel channel(comm, options_.faults.any() ? &injector : nullptr,
                  telemetry_);
  std::vector<NodeId> alive = cluster.NodeIds();
  last_collection_ = CollectionReport{};
  last_collection_.nodes_total = alive.size();

  auto drop_failed = [&](const std::vector<bool>& delivered) {
    std::vector<NodeId> still_alive;
    still_alive.reserve(alive.size());
    for (size_t i = 0; i < alive.size(); ++i) {
      if (delivered[i]) still_alive.push_back(alive[i]);
    }
    alive = std::move(still_alive);
  };
  auto check_degraded = [&]() -> Status {
    if (last_collection_.degraded() && !options_.allow_degraded) {
      return Status::FailedPrecondition(
          "AdaptiveCsProtocol: " +
          std::to_string(last_collection_.excluded_nodes.size()) +
          " node(s) unreachable after retries and degraded mode is "
          "disabled");
    }
    if (alive.empty()) {
      return Status::FailedPrecondition(
          "AdaptiveCsProtocol: every node failed — no measurements to "
          "aggregate");
    }
    return Status::OK();
  };

  // ---- Pass 1 (locate): coarse M₁-row sketch, full key space. ----
  channel.BeginRound();
  drop_failed(CollectWithRetry(&channel, options_.retry, alive,
                               "locate-measurements", options_.locate_m,
                               kMeasurementBytes, &last_collection_));
  CSOD_RETURN_NOT_OK(check_degraded());

  const std::shared_ptr<const cs::MeasurementMatrix> locate_matrix =
      cs::SharedMatrix(options_.locate_m, n, options_.seed);
  cs::Compressor locate_compressor(locate_matrix.get());
  locate_compressor.set_telemetry(telemetry_);
  std::vector<double> y1;
  {
    std::vector<const cs::SparseSlice*> slices;
    slices.reserve(alive.size());
    for (NodeId id : alive) {
      CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice, cluster.Slice(id));
      slices.push_back(slice);
    }
    CSOD_RETURN_NOT_OK(locate_compressor.CompressAccumulate(slices, &y1));
  }

  cs::SolverOptions locate_solve;
  locate_solve.iterations = iterations;
  locate_solve.telemetry = telemetry_;
  CSOD_ASSIGN_OR_RETURN(cs::BompResult located,
                        cs::RecoverBiased(*locate_matrix, y1, locate_solve));

  {
    const double y1_norm = la::Norm2(y1);
    AdaptiveRound round;
    round.m = options_.locate_m;
    round.relative_residual =
        y1_norm == 0.0 ? 0.0 : located.final_residual_norm / y1_norm;
    round.phase = "locate";
    rounds_.push_back(round);
  }

  // Candidate support S: the support_factor·k locate entries furthest from
  // the mode (over-selected so a true outlier only has to *appear*, not
  // rank). Ties toward the lower key, then sorted ascending — the order the
  // coordinator broadcasts and every node iterates.
  std::vector<size_t> support;
  {
    std::vector<cs::RecoveredEntry> ranked = located.entries;
    std::sort(ranked.begin(), ranked.end(),
              [&](const cs::RecoveredEntry& a, const cs::RecoveredEntry& b) {
                const double da = std::fabs(a.value - located.mode);
                const double db = std::fabs(b.value - located.mode);
                if (da != db) return da > db;
                return a.index < b.index;
              });
    const size_t target = std::min(ranked.size(), options_.support_factor * k);
    support.reserve(target);
    for (size_t i = 0; i < target; ++i) support.push_back(ranked[i].index);
    std::sort(support.begin(), support.end());
    support.erase(std::unique(support.begin(), support.end()), support.end());
  }
  if (support.empty()) {
    // Nothing to refine (k == 0 or an empty locate recovery): the coarse
    // pass is the answer.
    last_recovery_ = std::move(located);
    if (!rounds_.empty()) rounds_.back().accepted = true;
    return outlier::KOutliersFromRecovery(last_recovery_, k);
  }

  // ---- Pass 2 (refine): sense only the |S| candidate columns with an
  // independent M₂-row matrix. M₂ ≥ |S| makes the restricted system
  // overdetermined, so the least-squares solve below returns the candidate
  // values exactly (noiseless model) instead of CS estimates.
  const size_t m2 = options_.refine_m != 0
                        ? options_.refine_m
                        : support.size() + options_.refine_margin;
  // Buggify: a node dies in the gap between the passes — it contributed to
  // the locate sketch but never answers the refine request, so the refine
  // least-squares sees the partial aggregate (a torn two-phase state). The
  // coordinator handles it like any refine-pass exclusion.
  if (sim::BuggifyEnabled()) {
    size_t phase_alive = alive.size();
    std::vector<NodeId> survivors;
    survivors.reserve(alive.size());
    for (NodeId id : alive) {
      if (phase_alive > 1 &&
          CSOD_BUGGIFY_AT("protocol.twophase.interphase_crash", id)) {
        last_collection_.excluded_nodes.push_back(id);
        --phase_alive;
        continue;
      }
      survivors.push_back(id);
    }
    alive = std::move(survivors);
  }
  channel.BeginRound();
  // Coordinator broadcasts S to every surviving node (reliable control
  // plane): |S| bare key ids per node.
  channel.Control("support-broadcast", alive.size() * support.size(),
                  kKeyBytes);
  const std::vector<bool> refine_delivered =
      CollectWithRetry(&channel, options_.retry, alive, "refine-measurements",
                       m2, kMeasurementBytes, &last_collection_);
  drop_failed(refine_delivered);
  CSOD_RETURN_NOT_OK(check_degraded());

  // The refine matrix is drawn from an independent stream (seed xor a
  // golden-ratio constant) so its rows are not correlated with the locate
  // rows that *chose* S. Column p senses candidate key support[p].
  cs::MeasurementMatrix refine_matrix(
      m2, support.size(), options_.seed ^ 0x9e3779b97f4a7c15ULL);
  cs::Compressor refine_compressor(&refine_matrix);
  refine_compressor.set_telemetry(telemetry_);
  std::vector<cs::SparseSlice> restricted(alive.size());
  for (size_t l = 0; l < alive.size(); ++l) {
    CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice,
                          cluster.Slice(alive[l]));
    for (size_t t = 0; t < slice->nnz(); ++t) {
      const auto it = std::lower_bound(support.begin(), support.end(),
                                       slice->indices[t]);
      if (it == support.end() || *it != slice->indices[t]) continue;
      restricted[l].indices.push_back(
          static_cast<size_t>(it - support.begin()));
      restricted[l].values.push_back(slice->values[t]);
    }
  }
  std::vector<double> y2;
  CSOD_RETURN_NOT_OK(refine_compressor.CompressAccumulate(restricted, &y2));

  // Least squares over the restricted columns. Dependent columns (possible
  // only when refine_m forces M₂ < |S|) are skipped, as OMP skips them.
  la::IncrementalQr qr(m2);
  std::vector<size_t> kept;
  kept.reserve(support.size());
  std::vector<double> column(m2);
  for (size_t p = 0; p < support.size(); ++p) {
    refine_matrix.FillColumn(p, column.data());
    CSOD_ASSIGN_OR_RETURN(const double independent, qr.AppendColumn(column));
    if (independent > 0.0) kept.push_back(p);
  }
  CSOD_ASSIGN_OR_RETURN(const std::vector<double> z, qr.SolveLeastSquares(y2));
  CSOD_ASSIGN_OR_RETURN(const std::vector<double> fitted, qr.Project(y2));

  cs::BompResult refined;
  refined.mode = located.mode;
  refined.bias_selected = located.bias_selected;
  refined.iterations = located.iterations;
  refined.passes = located.passes;
  refined.final_residual_norm = la::DistanceL2(y2, fitted);
  refined.entries.reserve(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    cs::RecoveredEntry entry;
    entry.index = support[kept[i]];
    entry.value = z[i];
    refined.entries.push_back(entry);
  }

  {
    const double y2_norm = la::Norm2(y2);
    AdaptiveRound round;
    round.m = m2;
    round.relative_residual =
        y2_norm == 0.0 ? 0.0 : refined.final_residual_norm / y2_norm;
    round.phase = "refine";
    round.accepted = true;
    // Stability here means the coarse pass already had the final top-k.
    const outlier::OutlierSet coarse_topk =
        outlier::KOutliersFromRecovery(located, k);
    const outlier::OutlierSet fine_topk =
        outlier::KOutliersFromRecovery(refined, k);
    std::vector<size_t> a, b;
    for (const auto& o : coarse_topk.outliers) a.push_back(o.key_index);
    for (const auto& o : fine_topk.outliers) b.push_back(o.key_index);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    round.topk_stable = !a.empty() && a == b;
    rounds_.push_back(round);
  }

  last_recovery_ = std::move(refined);
  return outlier::KOutliersFromRecovery(last_recovery_, k);
}

}  // namespace csod::dist
