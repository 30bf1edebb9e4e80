#include "dist/topk_protocols.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "sim/buggify.h"

namespace csod::dist {

namespace {

// One node's slice sorted descending by value, as (key, value) pairs.
struct SortedSlice {
  std::vector<std::pair<size_t, double>> entries;
  // Fast random access: key -> local value.
  std::unordered_map<size_t, double> lookup;
};

Result<std::vector<SortedSlice>> SortSlices(const Cluster& cluster) {
  std::vector<SortedSlice> sorted;
  sorted.reserve(cluster.num_nodes());
  for (NodeId id : cluster.NodeIds()) {
    CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice, cluster.Slice(id));
    SortedSlice s;
    s.entries.reserve(slice->nnz());
    for (size_t j = 0; j < slice->indices.size(); ++j) {
      if (slice->values[j] < 0.0) {
        return Status::FailedPrecondition(
            "top-k protocols require non-negative partial values");
      }
      s.entries.emplace_back(slice->indices[j], slice->values[j]);
      s.lookup.emplace(slice->indices[j], slice->values[j]);
    }
    std::sort(s.entries.begin(), s.entries.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    sorted.push_back(std::move(s));
  }
  return sorted;
}

std::vector<outlier::Outlier> RankTopK(
    const std::unordered_map<size_t, double>& sums, size_t k) {
  std::vector<outlier::Outlier> out;
  out.reserve(sums.size());
  for (const auto& [key, value] : sums) {
    out.push_back(outlier::Outlier{key, value, value});
  }
  outlier::RankByValue(&out, k);
  return out;
}

// Exact aggregate of `key` via random access at every node. Accounts one
// kv-pair response per node (the request key id rides in the same tuple);
// coordinator-driven fan-out, so it travels on the channel's control plane.
double RandomAccess(const std::vector<SortedSlice>& slices, size_t key,
                    Channel* channel) {
  double sum = 0.0;
  for (const SortedSlice& s : slices) {
    auto it = s.lookup.find(key);
    if (it != s.lookup.end()) sum += it->second;
  }
  channel->Control("random-access", slices.size(), kKeyValueBytes);
  return sum;
}

}  // namespace

Result<TopKRunResult> RunThresholdAlgorithmTopK(const Cluster& cluster,
                                                size_t k, size_t batch_size,
                                                CommStats* comm,
                                                obs::Telemetry* telemetry) {
  if (comm == nullptr) {
    return Status::InvalidArgument("TA: comm must not be null");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("TA: batch_size must be > 0");
  }
  if (cluster.num_nodes() == 0) {
    return Status::FailedPrecondition("TA: empty cluster");
  }
  obs::TraceSpan run_span(telemetry, "protocol.ta");
  CSOD_ASSIGN_OR_RETURN(std::vector<SortedSlice> slices, SortSlices(cluster));
  const std::vector<NodeId> ids = cluster.NodeIds();
  // Baseline: perfect network.
  Channel channel(comm, /*injector=*/nullptr, telemetry);

  std::unordered_map<size_t, double> exact;  // key -> exact aggregate
  std::vector<size_t> cursor(slices.size(), 0);

  while (true) {
    channel.BeginRound();
    bool any_released = false;
    double threshold = 0.0;
    for (size_t l = 0; l < slices.size(); ++l) {
      const auto& entries = slices[l].entries;
      const size_t end = std::min(cursor[l] + batch_size, entries.size());
      for (size_t j = cursor[l]; j < end; ++j) {
        any_released = true;
        const size_t key = entries[j].first;
        if (exact.find(key) == exact.end()) {
          exact[key] = RandomAccess(slices, key, &channel);
        }
      }
      if (end > cursor[l]) {
        channel.Send(ids[l], "sorted-access", end - cursor[l],
                     kKeyValueBytes);
        // Buggify: the node re-sends the whole batch (e.g. an ack was
        // lost). The coordinator already merged these entries, so the
        // re-send is pure wire cost — the answer must not move.
        if (CSOD_BUGGIFY("protocol.ta.resend_batch")) {
          channel.Send(ids[l], "sorted-access", end - cursor[l],
                       kKeyValueBytes);
        }
      }
      cursor[l] = end;
      // Frontier value: the last value this node released (0 when the
      // list is exhausted — a non-negative lower bound on the rest).
      threshold += cursor[l] > 0 && cursor[l] <= entries.size()
                       ? entries[cursor[l] - 1].second *
                             (cursor[l] == entries.size() ? 0.0 : 1.0)
                       : 0.0;
    }
    if (!any_released) break;

    // Stop when k exact aggregates dominate the threshold.
    if (exact.size() >= k) {
      std::vector<double> values;
      values.reserve(exact.size());
      for (const auto& [key, v] : exact) values.push_back(v);
      std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                       std::greater<double>());
      if (values[k - 1] >= threshold) break;
    }
  }

  TopKRunResult result;
  result.top = RankTopK(exact, k);
  return result;
}

Result<TopKRunResult> RunTputTopK(const Cluster& cluster, size_t k,
                                  CommStats* comm,
                                  obs::Telemetry* telemetry) {
  if (comm == nullptr) {
    return Status::InvalidArgument("TPUT: comm must not be null");
  }
  if (cluster.num_nodes() == 0) {
    return Status::FailedPrecondition("TPUT: empty cluster");
  }
  obs::TraceSpan run_span(telemetry, "protocol.tput");
  CSOD_ASSIGN_OR_RETURN(std::vector<SortedSlice> slices, SortSlices(cluster));
  const std::vector<NodeId> ids = cluster.NodeIds();
  const size_t num_nodes = slices.size();
  // Baseline: perfect network.
  Channel channel(comm, /*injector=*/nullptr, telemetry);

  // --- Phase 1: local top-k, partial sums, lower bound τ. ---
  channel.BeginRound();
  std::unordered_map<size_t, double> partial_sums;
  for (size_t l = 0; l < slices.size(); ++l) {
    const SortedSlice& s = slices[l];
    const size_t send = std::min(k, s.entries.size());
    for (size_t j = 0; j < send; ++j) {
      partial_sums[s.entries[j].first] += s.entries[j].second;
    }
    channel.Send(ids[l], "phase1-local-topk", send, kKeyValueBytes);
  }
  double tau = 0.0;
  if (partial_sums.size() >= k && k > 0) {
    std::vector<double> values;
    values.reserve(partial_sums.size());
    for (const auto& [key, v] : partial_sums) values.push_back(v);
    std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                     std::greater<double>());
    tau = values[k - 1];
  }

  // --- Phase 2: prune with the uniform threshold τ/L. ---
  channel.BeginRound();
  channel.Control("phase2-broadcast", num_nodes, kValueBytes);
  // Buggify: the threshold broadcast fires twice. τ/L is the same value
  // both times, so nodes prune identically — only control bytes grow.
  if (CSOD_BUGGIFY("protocol.tput.rebroadcast")) {
    channel.Control("phase2-broadcast", num_nodes, kValueBytes);
  }
  const double node_threshold = tau / static_cast<double>(num_nodes);
  std::unordered_set<size_t> candidates;
  for (const auto& [key, v] : partial_sums) candidates.insert(key);
  for (size_t l = 0; l < slices.size(); ++l) {
    const SortedSlice& s = slices[l];
    size_t sent = 0;
    for (const auto& [key, value] : s.entries) {
      if (value < node_threshold) break;  // Sorted descending.
      candidates.insert(key);
      ++sent;
    }
    channel.Send(ids[l], "phase2-prune", sent, kKeyValueBytes);
  }

  // --- Phase 3: exact refinement of the candidate set. ---
  channel.BeginRound();
  std::unordered_map<size_t, double> exact;
  for (size_t key : candidates) {
    double sum = 0.0;
    for (const SortedSlice& s : slices) {
      auto it = s.lookup.find(key);
      if (it != s.lookup.end()) sum += it->second;
    }
    exact[key] = sum;
  }
  channel.Control("phase3-refine", candidates.size() * num_nodes,
                  kKeyValueBytes);

  TopKRunResult result;
  result.top = RankTopK(exact, k);
  return result;
}

}  // namespace csod::dist
