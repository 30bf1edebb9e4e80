#include "dist/cs_protocol.h"

#include <memory>
#include <string>
#include <vector>

#include "cs/compressor.h"
#include "sim/buggify.h"

namespace csod::dist {

Result<outlier::OutlierSet> CsOutlierProtocol::Run(const Cluster& cluster,
                                                   size_t k,
                                                   CommStats* comm) {
  if (comm == nullptr) {
    return Status::InvalidArgument("CsOutlierProtocol: comm must not be null");
  }
  if (options_.m == 0) {
    return Status::InvalidArgument("CsOutlierProtocol: m must be > 0");
  }
  if (cluster.num_nodes() == 0) {
    return Status::FailedPrecondition("CsOutlierProtocol: empty cluster");
  }

  obs::TraceSpan run_span(telemetry_, "protocol.cs");
  const size_t n = cluster.key_space_size();
  // Every node derives the same Φ0 from the consensus seed. In the
  // simulator one process-wide instance serves every node and every Run;
  // determinism is what makes this equivalent to per-node generation
  // (tested in measurement_matrix_test).
  const std::shared_ptr<const cs::MeasurementMatrix> matrix =
      cs::SharedMatrix(options_.m, n, options_.seed);
  cs::Compressor compressor(matrix.get());
  compressor.set_telemetry(telemetry_);

  // Phase 1+2: local compression and measurement transmission, through
  // the fault-injecting channel with coordinator-side retries.
  const FaultInjector injector(options_.faults);
  Channel channel(comm, options_.faults.any() ? &injector : nullptr,
                  telemetry_);
  channel.BeginRound();
  const std::vector<NodeId> ids = cluster.NodeIds();
  last_collection_ = CollectionReport{};
  last_collection_.nodes_total = ids.size();
  std::vector<bool> delivered =
      CollectWithRetry(&channel, options_.retry, ids, "measurements",
                       options_.m, kMeasurementBytes, &last_collection_);
  // Buggify: a node can die *after* its measurement arrived but before the
  // coordinator folds the aggregate (mid-round crash). The coordinator
  // treats it exactly like a retry-budget exhaustion: exclude the node and
  // recover from the partial sum. At least one node always survives — a
  // coordinator with zero inputs has nothing to degrade to.
  if (sim::BuggifyEnabled()) {
    size_t alive = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (delivered[i]) ++alive;
    }
    for (size_t i = 0; i < ids.size() && alive > 1; ++i) {
      if (!delivered[i]) continue;
      if (CSOD_BUGGIFY_AT("protocol.cs.midround_crash", ids[i])) {
        delivered[i] = false;
        last_collection_.excluded_nodes.push_back(ids[i]);
        --alive;
      }
    }
  }

  // Phase 3: global measurement y = Σ_{l ∈ alive} y_l (Equation 1; the
  // partial sum on a degraded run — still Φ0 times the partial aggregate
  // by linearity, so recovery stays sound for the alive slices). One
  // fused compress-and-accumulate over the delivered slices; the
  // simulator never computes an excluded node's y_l, which never reaches
  // the coordinator anyway.
  std::vector<const cs::SparseSlice*> slices;
  slices.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!delivered[i]) continue;
    CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice, cluster.Slice(ids[i]));
    slices.push_back(slice);
  }
  if (slices.empty()) {
    // CompressAccumulate would fold an empty batch into y = 0 and recover
    // a silent all-mode answer.
    return Status::FailedPrecondition(
        "CsOutlierProtocol: every node failed — no measurements to "
        "aggregate");
  }
  std::vector<double> y;
  CSOD_RETURN_NOT_OK(compressor.CompressAccumulate(slices, &y));

  // Phase 4: BOMP recovery (Algorithm 1) and k-outlier extraction.
  cs::BompOptions bomp_options;
  bomp_options.max_iterations = cs::IterationBudget(options_.iterations, k);
  bomp_options.telemetry = telemetry_;
  CSOD_ASSIGN_OR_RETURN(last_recovery_, cs::RunBomp(*matrix, y, bomp_options));
  return outlier::KOutliersFromRecovery(last_recovery_, k);
}

}  // namespace csod::dist
