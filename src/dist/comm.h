#ifndef CSOD_DIST_COMM_H_
#define CSOD_DIST_COMM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/fault.h"
#include "obs/telemetry.h"

namespace csod::dist {

/// Tuple sizes used for communication accounting, matching Section 6.1.2:
/// values and measurements are 64 bits, keyid-value pairs are 96 bits.
inline constexpr uint64_t kValueBytes = 8;        ///< S_v
inline constexpr uint64_t kKeyValueBytes = 12;    ///< S_t
inline constexpr uint64_t kMeasurementBytes = 8;  ///< S_M
/// A bare 32-bit key id (no value attached) — what the two-phase refine
/// support broadcast ships per candidate column.
inline constexpr uint64_t kKeyBytes = 4;

/// \brief Byte-exact communication accounting for a protocol run.
///
/// Every transmission in the cluster simulator is recorded here; the
/// Figure 7/8 x-axis ("communication cost normalized by transmitting ALL")
/// is computed from these counters.
class CommStats {
 public:
  /// Records a transmission of `tuples` tuples of `bytes_per_tuple` bytes
  /// under a phase label (e.g. "measurements", "round1-sample").
  void Account(const std::string& phase, uint64_t tuples,
               uint64_t bytes_per_tuple) {
    bytes_total_ += tuples * bytes_per_tuple;
    tuples_total_ += tuples;
    bytes_by_phase_[phase] += tuples * bytes_per_tuple;
  }

  /// Marks the start of a new communication round (single-round protocols
  /// call this once; K+δ three times; TA once per iteration).
  void BeginRound() { ++rounds_; }

  uint64_t bytes_total() const { return bytes_total_; }
  uint64_t tuples_total() const { return tuples_total_; }
  uint64_t rounds() const { return rounds_; }
  const std::map<std::string, uint64_t>& bytes_by_phase() const {
    return bytes_by_phase_;
  }

 private:
  uint64_t bytes_total_ = 0;
  uint64_t tuples_total_ = 0;
  uint64_t rounds_ = 0;
  std::map<std::string, uint64_t> bytes_by_phase_;
};

/// \brief The node → coordinator data plane: every protocol transmission
/// goes through a Channel, which accounts the bytes in CommStats and —
/// when a FaultInjector is attached — subjects each message to the fault
/// plan (docs/FAULT_MODEL.md).
///
/// With no injector every Send is delivered immediately and the Channel is
/// byte-for-byte equivalent to calling `CommStats::Account` directly, so
/// fault-free runs are bit-identical to the pre-fault protocols.
///
/// Accounting rules: a dropped message still costs its sender's bytes (it
/// was transmitted and lost); a duplicated message costs twice; a
/// crash-before-send costs nothing. Coordinator-side control traffic
/// (re-requests, broadcasts) uses `Control`, which is assumed reliable —
/// only the data plane is faulty (see the fault-model doc for why).
class Channel {
 public:
  /// `stats` must not be null and must outlive the channel; `injector`
  /// may be null (perfect network) and is borrowed, not owned. `telemetry`
  /// mirrors the accounting into "comm.*" / "fault.*" counters; null or
  /// `obs::Telemetry::Disabled()` costs one predictable branch per call.
  explicit Channel(CommStats* stats, const FaultInjector* injector = nullptr,
                   obs::Telemetry* telemetry = nullptr)
      : stats_(stats),
        injector_(injector),
        telemetry_(telemetry != nullptr ? telemetry
                                        : obs::Telemetry::Disabled()) {}

  /// Starts a communication round; fault decisions are keyed by the
  /// current round so multi-round protocols re-draw per round. The Nth
  /// BeginRound (1-based) keys Send's fault draws on round N-1 —
  /// stats_->BeginRound() has just incremented rounds(), so it is always
  /// >= 1 here.
  void BeginRound() {
    stats_->BeginRound();
    round_ = stats_->rounds() - 1;
    telemetry_->AddCounter("comm.rounds");
  }

  /// Transmits `tuples` tuples of `bytes_per_tuple` bytes from `node`
  /// under `phase`, applying the attached fault plan to attempt
  /// `attempt` of the current round. Returns what happened; the caller
  /// decides delivery against its timeout via `Delivery::Arrived`.
  Delivery Send(NodeId node, const std::string& phase, uint64_t tuples,
                uint64_t bytes_per_tuple, uint64_t attempt = 0);

  /// Coordinator-side control-plane traffic (re-requests, threshold
  /// broadcasts, refinement fan-out): accounted, never faulted.
  void Control(const std::string& phase, uint64_t tuples,
               uint64_t bytes_per_tuple) {
    stats_->Account(phase, tuples, bytes_per_tuple);
    if (telemetry_->enabled()) Mirror(phase, tuples, bytes_per_tuple);
  }

  /// Injected-fault event counters of this channel's lifetime.
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// True iff a fault injector is attached.
  bool faulty() const { return injector_ != nullptr; }

  CommStats* stats() { return stats_; }

  /// The telemetry sink (never null; `Disabled()` when none was attached).
  obs::Telemetry* telemetry() { return telemetry_; }

 private:
  // Mirrors one accounted transmission into the per-phase counters.
  // Only called when telemetry is enabled.
  void Mirror(const std::string& phase, uint64_t tuples,
              uint64_t bytes_per_tuple);

  CommStats* stats_;
  const FaultInjector* injector_;
  obs::Telemetry* telemetry_;
  uint64_t round_ = 0;
  FaultStats fault_stats_;
};

/// Runs the coordinator's request/retry/timeout loop of one collection
/// round against every node in `nodes`: attempt 0 is accounted under
/// `phase`, re-requested attempts under `phase + "-retry"` (so retry
/// bytes are separable in `CommStats::bytes_by_phase`), and each
/// re-request costs one value tuple of control traffic under
/// "retry-request". Returns, per node, whether its message arrived within
/// the (backed-off) timeout; nodes that exhaust the budget are appended
/// to `report->excluded_nodes`. `report` may be null.
std::vector<bool> CollectWithRetry(Channel* channel, const RetryPolicy& retry,
                                   const std::vector<NodeId>& nodes,
                                   const std::string& phase, uint64_t tuples,
                                   uint64_t bytes_per_tuple,
                                   CollectionReport* report);

}  // namespace csod::dist

#endif  // CSOD_DIST_COMM_H_
