#include "dist/kplusdelta_protocol.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "sim/buggify.h"

namespace csod::dist {

Result<outlier::OutlierSet> KPlusDeltaProtocol::Run(const Cluster& cluster,
                                                    size_t k,
                                                    CommStats* comm) {
  if (comm == nullptr) {
    return Status::InvalidArgument("KPlusDeltaProtocol: comm must not be null");
  }
  if (cluster.num_nodes() == 0) {
    return Status::FailedPrecondition("KPlusDeltaProtocol: empty cluster");
  }
  const size_t n = cluster.key_space_size();
  const size_t budget = k + options_.delta;
  const size_t g = std::min(std::max<size_t>(budget / 2, 1),
                            std::min(budget, n));
  const size_t report = budget > g ? budget - g : 0;

  obs::TraceSpan run_span(telemetry_, "protocol.kplusdelta");
  // All three rounds ship through the channel abstraction (no fault plan:
  // the K+δ baseline is evaluated on a perfect network).
  Channel channel(comm, /*injector=*/nullptr, telemetry_);

  // --- Round 1: common sampled keys, exact aggregation, mode estimate. ---
  channel.BeginRound();
  Rng rng(options_.seed);
  std::unordered_set<size_t> sampled_set;
  while (sampled_set.size() < g) {
    sampled_set.insert(static_cast<size_t>(rng.NextBounded(n)));
  }
  std::vector<size_t> sampled(sampled_set.begin(), sampled_set.end());

  std::unordered_map<size_t, double> exact_sampled;
  for (size_t key : sampled) exact_sampled[key] = 0.0;
  for (NodeId id : cluster.NodeIds()) {
    CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice, cluster.Slice(id));
    for (size_t j = 0; j < slice->indices.size(); ++j) {
      auto it = exact_sampled.find(slice->indices[j]);
      if (it != exact_sampled.end()) it->second += slice->values[j];
    }
    channel.Send(id, "round1-sample", g, kKeyValueBytes);
  }
  double mode_estimate = 0.0;
  for (const auto& [key, value] : exact_sampled) mode_estimate += value;
  mode_estimate /= static_cast<double>(exact_sampled.size());

  // --- Round 2: broadcast the mode estimate (control plane). ---
  channel.BeginRound();
  channel.Control("round2-broadcast", cluster.num_nodes(), kValueBytes);
  // Buggify: a flaky coordinator re-broadcasts b. Receiving the same mode
  // estimate twice is idempotent at every node — only control bytes grow.
  if (CSOD_BUGGIFY("protocol.kplusdelta.rebroadcast")) {
    channel.Control("round2-broadcast", cluster.num_nodes(), kValueBytes);
  }

  // --- Round 3: per-node locally-most-divergent keys w.r.t. b. ---
  channel.BeginRound();
  std::unordered_map<size_t, double> candidate_sums;
  for (NodeId id : cluster.NodeIds()) {
    CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice, cluster.Slice(id));
    // Rank this node's keys by |local value - b|.
    std::vector<size_t> order(slice->indices.size());
    for (size_t j = 0; j < order.size(); ++j) order[j] = j;
    const size_t send = std::min(report, order.size());
    std::partial_sort(order.begin(), order.begin() + send, order.end(),
                      [&](size_t a, size_t b) {
                        return std::fabs(slice->values[a] - mode_estimate) >
                               std::fabs(slice->values[b] - mode_estimate);
                      });
    for (size_t j = 0; j < send; ++j) {
      const size_t pos = order[j];
      candidate_sums[slice->indices[pos]] += slice->values[pos];
    }
    channel.Send(id, "round3-outliers", send, kKeyValueBytes);
  }

  // The exactly-aggregated sampled keys are candidates too (the aggregator
  // already paid for them).
  for (const auto& [key, value] : exact_sampled) {
    candidate_sums[key] = value;
  }

  // --- Final selection: k keys furthest from b. ---
  outlier::OutlierSet result;
  result.mode = mode_estimate;
  for (const auto& [key, value] : candidate_sums) {
    const double divergence = std::fabs(value - mode_estimate);
    if (divergence == 0.0) continue;
    result.outliers.push_back(outlier::Outlier{key, value, divergence});
  }
  outlier::RankByDivergence(&result.outliers, k);
  return result;
}

}  // namespace csod::dist
