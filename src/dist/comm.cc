#include "dist/comm.h"

#include "sim/buggify.h"

namespace csod::dist {

void Channel::Mirror(const std::string& phase, uint64_t tuples,
                     uint64_t bytes_per_tuple) {
  telemetry_->AddCounter("comm.bytes." + phase, tuples * bytes_per_tuple);
  telemetry_->AddCounter("comm.tuples." + phase, tuples);
  telemetry_->AddCounter("comm.msgs." + phase);
}

Delivery Channel::Send(NodeId node, const std::string& phase, uint64_t tuples,
                       uint64_t bytes_per_tuple, uint64_t attempt) {
  const bool trace = telemetry_->enabled();
  Delivery d;
  if (injector_ != nullptr) d = injector_->Decide(node, round_, attempt);
  ++fault_stats_.attempts;
  if (d.crashed) {
    // Crash-before-send: nothing left the node, no bytes on the wire.
    ++fault_stats_.crashed;
    if (trace) telemetry_->AddCounter("fault.crashed");
    return d;
  }
  // Buggify perturbs the delivery *before* the accounting below, so every
  // extra copy or lost message flows through the same byte/telemetry
  // bookkeeping as plan-injected faults — the telemetry == CommStats
  // invariant holds by construction, not by parallel bookkeeping.
  if (!d.dropped && CSOD_BUGGIFY("comm.send.drop")) d.dropped = true;
  if (CSOD_BUGGIFY("comm.send.delay")) d.delay_ticks += 7;
  if (!d.duplicated && CSOD_BUGGIFY("comm.send.duplicate")) {
    d.duplicated = true;
  }
  stats_->Account(phase, tuples, bytes_per_tuple);
  if (trace) Mirror(phase, tuples, bytes_per_tuple);
  if (d.dropped) {
    ++fault_stats_.dropped;
    if (trace) telemetry_->AddCounter("fault.dropped");
  }
  if (d.delay_ticks > 0) {
    ++fault_stats_.delayed;
    if (trace) telemetry_->AddCounter("fault.delayed");
  }
  if (d.duplicated) {
    // The duplicate copy is real wire traffic; the coordinator dedups by
    // (node, round, attempt) so it can never double-add a measurement.
    stats_->Account(phase, tuples, bytes_per_tuple);
    if (trace) Mirror(phase, tuples, bytes_per_tuple);
    ++fault_stats_.duplicates;
    if (trace) telemetry_->AddCounter("fault.duplicates");
  }
  return d;
}

std::vector<bool> CollectWithRetry(Channel* channel, const RetryPolicy& retry,
                                   const std::vector<NodeId>& nodes,
                                   const std::string& phase, uint64_t tuples,
                                   uint64_t bytes_per_tuple,
                                   CollectionReport* report) {
  std::vector<bool> delivered(nodes.size(), false);
  const std::string retry_phase = phase + "-retry";
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t attempt = 0; attempt <= retry.max_retries; ++attempt) {
      if (attempt > 0) {
        // The coordinator re-requests only this node's missing payload:
        // one key tuple on the reliable control plane.
        channel->Control("retry-request", 1, kValueBytes);
        // A flaky coordinator may fire the same re-request twice; the
        // duplicate costs control bytes but must change nothing else.
        if (CSOD_BUGGIFY("comm.collect.dup_rerequest")) {
          channel->Control("retry-request", 1, kValueBytes);
        }
        if (report != nullptr) ++report->retries;
        channel->telemetry()->AddCounter("comm.retries");
      }
      const Delivery d = channel->Send(nodes[i],
                                       attempt == 0 ? phase : retry_phase,
                                       tuples, bytes_per_tuple, attempt);
      if (d.Arrived(retry.TimeoutForAttempt(attempt))) {
        delivered[i] = true;
        break;
      }
    }
    if (!delivered[i]) {
      if (report != nullptr) report->excluded_nodes.push_back(nodes[i]);
      channel->telemetry()->AddCounter("comm.excluded_nodes");
    }
  }
  return delivered;
}

}  // namespace csod::dist
