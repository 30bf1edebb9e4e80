#include "sim/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "cs/compressor.h"
#include "dist/adaptive_cs_protocol.h"
#include "dist/cluster.h"
#include "dist/comm.h"
#include "dist/cs_protocol.h"
#include "dist/kplusdelta_protocol.h"
#include "mapreduce/engine.h"
#include "obs/telemetry.h"
#include "outlier/metrics.h"
#include "outlier/outlier.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/streaming_detector.h"
#include "sim/buggify.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::sim {

namespace {

// Domain tags: every derived stream (workload data, partition weights,
// protocol consensus seed, canary slice, serve events, MapReduce records)
// hashes the scenario seed with its own tag, so no two consumers ever see
// correlated randomness.
constexpr uint64_t kDataTag = 0x64617461ULL;      // "data"
constexpr uint64_t kPartTag = 0x70617274ULL;      // "part"
constexpr uint64_t kProtoTag = 0x70726f746fULL;   // "proto"
constexpr uint64_t kCanaryTag = 0x636e7279ULL;    // "cnry"
constexpr uint64_t kEventsTag = 0x65766e74ULL;    // "evnt"
constexpr uint64_t kRecordsTag = 0x72656373ULL;   // "recs"

constexpr double kMode = 5000.0;

// Order-sensitive rolling digest over everything a scenario produced.
// Doubles are mixed by bit pattern, so "identical digest" means
// bit-identical numerics, not approximately-equal numerics.
class Digest {
 public:
  void Mix(uint64_t word) { h_ = HashCombine(h_, word); }
  void Mix(bool flag) { Mix(static_cast<uint64_t>(flag)); }
  void Mix(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void Mix(const std::string& text) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
      h = (h ^ c) * 0x100000001b3ULL;
    }
    Mix(h);
    Mix(text.size());
  }
  void Mix(const outlier::OutlierSet& set) {
    Mix(set.outliers.size());
    for (const outlier::Outlier& o : set.outliers) {
      Mix(static_cast<uint64_t>(o.key_index));
      Mix(o.value);
      Mix(o.divergence);
    }
    Mix(set.mode);
  }
  void Mix(const dist::CommStats& comm) {
    Mix(comm.bytes_total());
    Mix(comm.tuples_total());
    Mix(comm.rounds());
    for (const auto& [phase, bytes] : comm.bytes_by_phase()) {
      Mix(phase);
      Mix(bytes);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x63736f642d73696dULL;  // "csod-sim"
};

// Per-execution state: the digest plus collected invariant violations.
struct Ctx {
  Digest digest;
  std::vector<std::string> violations;

  void Violate(std::string what) { violations.push_back(std::move(what)); }
};

std::string U64(uint64_t v) { return std::to_string(v); }

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool BitEqualSets(const outlier::OutlierSet& a, const outlier::OutlierSet& b) {
  if (a.outliers.size() != b.outliers.size()) return false;
  if (std::memcmp(&a.mode, &b.mode, sizeof(double)) != 0) return false;
  for (size_t i = 0; i < a.outliers.size(); ++i) {
    if (a.outliers[i].key_index != b.outliers[i].key_index) return false;
    if (std::memcmp(&a.outliers[i].value, &b.outliers[i].value,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The telemetry-vs-CommStats invariant: every byte CommStats accounted
// must appear under the mirrored `comm.bytes.<phase>` counter, and the
// per-phase map must sum back to bytes_total (no double or dropped
// accounting anywhere in the channel, including Buggify perturbations).
void CheckCommTelemetry(const obs::Telemetry& telemetry,
                        const dist::CommStats& comm, const char* label,
                        Ctx* ctx) {
  uint64_t sum = 0;
  for (const auto& [phase, bytes] : comm.bytes_by_phase()) {
    const uint64_t counted = telemetry.counter("comm.bytes." + phase);
    if (counted != bytes) {
      ctx->Violate(std::string(label) + ": telemetry comm.bytes." + phase +
                   "=" + U64(counted) + " != CommStats " + U64(bytes));
    }
    sum += bytes;
  }
  if (sum != comm.bytes_total()) {
    ctx->Violate(std::string(label) + ": per-phase bytes sum " + U64(sum) +
                 " != bytes_total " + U64(comm.bytes_total()));
  }
}

// Exactness check for fault-free CS-family answers: the key set must match
// the centralized reference exactly and every value must match to within
// recovery round-off.
void CheckExact(const outlier::OutlierSet& truth,
                const outlier::OutlierSet& estimate, const char* label,
                Ctx* ctx) {
  std::map<size_t, double> expected;
  for (const outlier::Outlier& o : truth.outliers) {
    expected[o.key_index] = o.value;
  }
  if (estimate.outliers.size() != truth.outliers.size()) {
    ctx->Violate(std::string(label) + ": fault-free answer has " +
                 U64(estimate.outliers.size()) + " outliers, expected " +
                 U64(truth.outliers.size()));
    return;
  }
  for (const outlier::Outlier& o : estimate.outliers) {
    auto it = expected.find(o.key_index);
    if (it == expected.end()) {
      ctx->Violate(std::string(label) + ": fault-free answer reports key " +
                   U64(o.key_index) + " which is not a true outlier");
      continue;
    }
    const double tol = 1e-5 * (1.0 + std::abs(it->second));
    if (std::abs(o.value - it->second) > tol) {
      ctx->Violate(std::string(label) + ": key " + U64(o.key_index) +
                   " recovered value " + std::to_string(o.value) +
                   " != exact " + std::to_string(it->second));
    }
  }
}

// ---------------------------------------------------------------------------
// CS-family workload
// ---------------------------------------------------------------------------

struct CsWorkload {
  std::vector<double> base;    ///< Aggregate without the canary slice.
  std::vector<double> global;  ///< Full aggregate (== base unless canary).
  dist::Cluster cluster{1};
  std::vector<size_t> canary_keys;
  double canary_inf = 0.0;  ///< ‖e‖∞ of the canary slice.
  outlier::OutlierSet truth;
};

// Builds the majority-dominated workload, partitions it, and (for canary
// scenarios) appends one extra node holding a 3-key slice on mode-valued
// keys. Crashing that node makes the partial aggregate *exactly* the base
// vector, which is what turns the THEORY.md §6 envelope into a checkable
// assertion rather than a statistical one.
Result<CsWorkload> BuildCsWorkload(const Scenario& s) {
  workload::MajorityDominatedOptions gen;
  gen.n = s.n;
  gen.sparsity = s.sparsity;
  gen.mode = kMode;
  gen.min_divergence = 100.0;
  gen.max_divergence = 10000.0;
  gen.seed = SplitMix64(HashCombine(s.seed, kDataTag));
  CSOD_ASSIGN_OR_RETURN(std::vector<double> x,
                        workload::GenerateMajorityDominated(gen));

  workload::PartitionOptions part;
  part.num_nodes = s.num_nodes;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = SplitMix64(HashCombine(s.seed, kPartTag));
  part.cancellation_noise = s.cancellation_noise;
  CSOD_ASSIGN_OR_RETURN(std::vector<cs::SparseSlice> slices,
                        workload::PartitionAdditive(x, part));

  CsWorkload w;
  w.cluster = dist::Cluster(s.n);
  for (cs::SparseSlice& slice : slices) {
    CSOD_RETURN_NOT_OK(w.cluster.AddNode(std::move(slice)).status());
  }
  w.base = x;
  w.global = std::move(x);

  if (s.canary_crash) {
    Rng rng(SplitMix64(HashCombine(s.seed, kCanaryTag)));
    cs::SparseSlice canary;
    std::set<size_t> used;
    while (canary.indices.size() < 3) {
      const size_t key = rng.NextBounded(s.n);
      if (w.base[key] != kMode || used.count(key) != 0) continue;
      used.insert(key);
      const double sign = rng.NextDouble() < 0.5 ? -1.0 : 1.0;
      const double value = sign * (2000.0 + 6000.0 * rng.NextDouble());
      canary.indices.push_back(key);
      canary.values.push_back(value);
      w.global[key] += value;
      w.canary_inf = std::max(w.canary_inf, std::abs(value));
      w.canary_keys.push_back(key);
    }
    // AddNode assigns sequential ids, so the canary gets id == num_nodes —
    // the id the scenario's crash plan names.
    CSOD_RETURN_NOT_OK(w.cluster.AddNode(std::move(canary)).status());
  }

  w.truth = outlier::ExactKOutliers(w.global, s.k);
  return w;
}

void MixCollection(const dist::CollectionReport& report, Ctx* ctx) {
  ctx->digest.Mix(report.excluded_nodes.size());
  for (dist::NodeId id : report.excluded_nodes) ctx->digest.Mix(id);
  ctx->digest.Mix(report.retries);
}

// Shared handling of a CS-family run that returned an error: the only
// legitimate failure is losing every node.
// The error itself is part of the deterministic outcome (digested).
void HandleProtocolError(const Status& status,
                         const dist::CollectionReport& report,
                         size_t cluster_nodes, const char* label, Ctx* ctx) {
  ctx->digest.Mix(std::string(StatusCodeToString(status.code())));
  if (report.excluded_nodes.size() < cluster_nodes) {
    ctx->Violate(std::string(label) + ": run failed with " +
                 U64(cluster_nodes - report.excluded_nodes.size()) +
                 " surviving nodes: " + status.ToString());
  }
}

// THEORY.md §6 envelope for a run whose only exclusion is the canary
// slice e (partial aggregate == base exactly):
//  - recall floor: every true outlier outside supp(e) whose divergence
//    clears the partial data's k-th divergence by more than ‖e‖∞ must be
//    detected;
//  - no forgery: a detected key that is not a true outlier cannot diverge
//    (in the partial data) by more than d_k(full) + ‖e‖∞.
void CheckCanaryEnvelope(const CsWorkload& w, size_t k,
                         const outlier::OutlierSet& estimate, Ctx* ctx) {
  const outlier::OutlierSet partial_truth = outlier::ExactKOutliers(w.base, k);
  const double dk_partial = partial_truth.outliers.size() == k
                                ? partial_truth.outliers.back().divergence
                                : 0.0;
  const double dk_full = w.truth.outliers.empty()
                             ? 0.0
                             : w.truth.outliers.back().divergence;
  std::set<size_t> est_keys;
  for (const outlier::Outlier& o : estimate.outliers) {
    est_keys.insert(o.key_index);
  }
  std::set<size_t> truth_keys;
  for (const outlier::Outlier& o : w.truth.outliers) {
    truth_keys.insert(o.key_index);
  }
  const std::set<size_t> canary_keys(w.canary_keys.begin(),
                                     w.canary_keys.end());
  for (const outlier::Outlier& t : w.truth.outliers) {
    if (canary_keys.count(t.key_index) != 0) continue;
    if (t.divergence > dk_partial + w.canary_inf + 1e-6 &&
        est_keys.count(t.key_index) == 0) {
      ctx->Violate("cs: §6 recall envelope: true outlier key " +
                   U64(t.key_index) + " (divergence " +
                   std::to_string(t.divergence) +
                   ") missing though it clears d_k + ||e||inf = " +
                   std::to_string(dk_partial + w.canary_inf));
    }
  }
  for (const outlier::Outlier& o : estimate.outliers) {
    if (truth_keys.count(o.key_index) != 0) continue;
    const double partial_div = std::abs(w.base[o.key_index] - kMode);
    if (partial_div > dk_full + w.canary_inf + 1e-6) {
      ctx->Violate("cs: §6 precision envelope: forged outlier key " +
                   U64(o.key_index) + " with partial divergence " +
                   std::to_string(partial_div) + " > d_k + ||e||inf = " +
                   std::to_string(dk_full + w.canary_inf));
    }
  }
}

// ---------------------------------------------------------------------------
// kCs
// ---------------------------------------------------------------------------

void RunCsScenario(const Scenario& s, Ctx* ctx) {
  Result<CsWorkload> built = BuildCsWorkload(s);
  if (!built.ok()) {
    ctx->Violate("cs: workload build failed: " + built.status().ToString());
    return;
  }
  CsWorkload& w = built.Value();

  dist::CsProtocolOptions opts;
  opts.m = s.m;
  opts.seed = SplitMix64(HashCombine(s.seed, kProtoTag));
  opts.iterations = s.sparsity + 8;
  opts.faults = s.faults;
  opts.retry = s.retry;
  dist::CsOutlierProtocol protocol(opts);
  obs::Telemetry telemetry;
  protocol.set_telemetry(&telemetry);
  dist::CommStats comm;
  Result<outlier::OutlierSet> run = protocol.Run(w.cluster, s.k, &comm);
  const dist::CollectionReport report = protocol.last_collection();
  // Everything after the main run re-executes clean references; the
  // Buggify schedule must not leak into them.
  BuggifyDisable();

  CheckCommTelemetry(telemetry, comm, "cs", ctx);
  ctx->digest.Mix(comm);
  MixCollection(report, ctx);
  if (!run.ok()) {
    HandleProtocolError(run.status(), report, w.cluster.num_nodes(), "cs",
                        ctx);
    return;
  }
  const outlier::OutlierSet& estimate = run.Value();
  ctx->digest.Mix(estimate);

  const std::vector<dist::NodeId>& excluded = report.excluded_nodes;
  if (!excluded.empty() && excluded.size() < w.cluster.num_nodes()) {
    // Sub-cluster bit-equivalence: the degraded answer must be
    // bit-identical to a clean fault-free run over only the surviving
    // slices (the partial-sum soundness claim of docs/FAULT_MODEL.md,
    // checked literally).
    dist::Cluster survivors(s.n);
    bool rebuilt = true;
    for (dist::NodeId id : w.cluster.NodeIds()) {
      if (std::find(excluded.begin(), excluded.end(), id) != excluded.end()) {
        continue;
      }
      Result<const cs::SparseSlice*> slice = w.cluster.Slice(id);
      if (!slice.ok() || !survivors.AddNode(*slice.Value()).ok()) {
        rebuilt = false;
        break;
      }
    }
    if (!rebuilt) {
      ctx->Violate("cs: failed to rebuild the survivor sub-cluster");
    } else {
      dist::CsProtocolOptions clean = opts;
      clean.faults = dist::FaultPlan{};
      clean.retry = dist::RetryPolicy{};
      dist::CsOutlierProtocol reference(clean);
      dist::CommStats ref_comm;
      Result<outlier::OutlierSet> ref = reference.Run(survivors, s.k,
                                                      &ref_comm);
      if (!ref.ok()) {
        ctx->Violate("cs: clean survivor rerun failed: " +
                     ref.status().ToString());
      } else if (!BitEqualSets(estimate, ref.Value())) {
        ctx->Violate(
            "cs: degraded answer != clean run over the surviving "
            "sub-cluster (partial-sum recovery drifted)");
      }
    }
  }

  if (excluded.empty()) {
    CheckExact(w.truth, estimate, "cs", ctx);
  } else if (s.canary_crash && excluded.size() == 1 &&
             excluded[0] == static_cast<dist::NodeId>(s.num_nodes)) {
    CheckCanaryEnvelope(w, s.k, estimate, ctx);
  } else {
    // Dense exclusions: quality against the partial-aggregate truth is
    // recorded (and must be deterministic), not bounded.
    const std::vector<double> partial =
        w.cluster.GlobalAggregateExcluding(excluded);
    const outlier::KeySetQuality quality = outlier::KeyQuality(
        outlier::ExactKOutliers(partial, s.k), estimate);
    ctx->digest.Mix(quality.precision);
    ctx->digest.Mix(quality.recall);
  }
}

// ---------------------------------------------------------------------------
// kAdaptiveGrow / kTwoPhase
// ---------------------------------------------------------------------------

void RunAdaptiveScenario(const Scenario& s, Ctx* ctx) {
  const char* label =
      s.kind == ScenarioKind::kTwoPhase ? "twophase" : "adaptive";
  Result<CsWorkload> built = BuildCsWorkload(s);
  if (!built.ok()) {
    ctx->Violate(std::string(label) + ": workload build failed: " +
                 built.status().ToString());
    return;
  }
  CsWorkload& w = built.Value();

  dist::AdaptiveCsOptions opts;
  opts.seed = SplitMix64(HashCombine(s.seed, kProtoTag));
  opts.iterations = s.sparsity + 8;
  opts.faults = s.faults;
  opts.retry = s.retry;
  if (s.kind == ScenarioKind::kTwoPhase) {
    opts.strategy = dist::AdaptiveStrategy::kTwoPhase;
    opts.locate_m = s.m;
    // |S| = (s/k + 2)·k ≥ s + k: the candidate support can hold every true
    // outlier even when the locate ranking is imperfect, which is what
    // makes the refine pass (least squares on S) exact fault-free.
    opts.support_factor = s.sparsity / s.k + 2;
  } else {
    opts.initial_m = 64;
    opts.max_m = 4096;
    // Certify by residual only: with m reaching 16·s the fault-free
    // recovery is exact, so acceptance is a hard invariant, not a race
    // against top-k stability.
    opts.accept_on_stable_topk = false;
    opts.acceptance_residual = 1e-8;
  }
  dist::AdaptiveCsProtocol protocol(opts);
  obs::Telemetry telemetry;
  protocol.set_telemetry(&telemetry);
  dist::CommStats comm;
  Result<outlier::OutlierSet> run = protocol.Run(w.cluster, s.k, &comm);
  const dist::CollectionReport report = protocol.last_collection();
  BuggifyDisable();

  CheckCommTelemetry(telemetry, comm, label, ctx);
  ctx->digest.Mix(comm);
  MixCollection(report, ctx);
  for (const dist::AdaptiveRound& round : protocol.rounds()) {
    ctx->digest.Mix(round.m);
    ctx->digest.Mix(round.relative_residual);
    ctx->digest.Mix(round.accepted);
    ctx->digest.Mix(std::string(round.phase));
  }
  if (!run.ok()) {
    HandleProtocolError(run.status(), report, w.cluster.num_nodes(), label,
                        ctx);
    return;
  }
  const outlier::OutlierSet& estimate = run.Value();
  ctx->digest.Mix(estimate);
  if (report.excluded_nodes.empty()) {
    CheckExact(w.truth, estimate, label, ctx);
  } else {
    const std::vector<double> partial =
        w.cluster.GlobalAggregateExcluding(report.excluded_nodes);
    const outlier::KeySetQuality quality = outlier::KeyQuality(
        outlier::ExactKOutliers(partial, s.k), estimate);
    ctx->digest.Mix(quality.precision);
    ctx->digest.Mix(quality.recall);
  }
}

// ---------------------------------------------------------------------------
// Baseline K+δ — Buggify perturbs its traffic (duplicated broadcasts), and
// the invariant is that the *answer* is byte-for-byte the unperturbed one
// while the byte count only grows.
// ---------------------------------------------------------------------------

void RunKPlusDeltaScenario(const Scenario& s, Ctx* ctx) {
  Result<CsWorkload> built = BuildCsWorkload(s);
  if (!built.ok()) {
    ctx->Violate("kplusdelta: workload build failed: " +
                 built.status().ToString());
    return;
  }
  CsWorkload& w = built.Value();

  dist::KPlusDeltaOptions opts;
  opts.delta = 2 * s.k;
  opts.seed = SplitMix64(HashCombine(s.seed, kProtoTag));

  dist::KPlusDeltaProtocol protocol(opts);
  obs::Telemetry telemetry;
  protocol.set_telemetry(&telemetry);
  dist::CommStats comm;
  Result<outlier::OutlierSet> run = protocol.Run(w.cluster, s.k, &comm);
  BuggifyDisable();
  CheckCommTelemetry(telemetry, comm, "kplusdelta", ctx);
  ctx->digest.Mix(comm);
  if (!run.ok()) {
    ctx->Violate("kplusdelta: run failed: " + run.status().ToString());
    return;
  }
  ctx->digest.Mix(run.Value());

  dist::KPlusDeltaProtocol reference(opts);
  dist::CommStats ref_comm;
  Result<outlier::OutlierSet> ref = reference.Run(w.cluster, s.k, &ref_comm);
  if (!ref.ok()) {
    ctx->Violate("kplusdelta: clean rerun failed: " + ref.status().ToString());
    return;
  }
  if (!BitEqualSets(run.Value(), ref.Value())) {
    ctx->Violate(
        "kplusdelta: answer perturbed by Buggify traffic faults (must be "
        "value-neutral)");
  }
  if (comm.bytes_total() < ref_comm.bytes_total()) {
    ctx->Violate("kplusdelta: Buggify run shipped fewer bytes (" +
                 U64(comm.bytes_total()) + ") than the clean run (" +
                 U64(ref_comm.bytes_total()) + ")");
  }
}

// ---------------------------------------------------------------------------
// kMapReduce — Buggify re-executes map tasks and shrinks emitter chunks;
// the engine's output and its byte accounting must not move at all.
// ---------------------------------------------------------------------------

using MrOut = std::pair<uint64_t, double>;

mr::Job<uint64_t, uint64_t, double, MrOut> BuildMrJob(const Scenario& s,
                                                      obs::Telemetry* tel) {
  mr::Job<uint64_t, uint64_t, double, MrOut> job;
  job.map_fn = [](const std::vector<uint64_t>& records,
                  mr::Emitter<uint64_t, double>* emitter) {
    for (uint64_t record : records) {
      emitter->Emit(record % 257, ToUnitDouble(SplitMix64(record)));
      emitter->Emit((record >> 16) % 131, 1.0);
    }
  };
  job.reduce_fn = [](mr::ReduceGroups<uint64_t, double>& groups,
                     std::vector<MrOut>* out) {
    for (size_t g = 0; g < groups.size(); ++g) {
      double sum = 0.0;
      for (double v : groups.values(g)) sum += v;
      out->push_back({groups.key(g), sum});
    }
  };
  if (s.use_combiner) {
    job.combine_fn = [](const uint64_t&, mr::Span<double> values) {
      double sum = 0.0;
      for (double v : values) sum += v;
      return sum;
    };
  }
  job.tuple_bytes = dist::kKeyValueBytes;
  job.num_reduce_tasks = s.num_reduce_tasks;
  job.telemetry = tel;
  return job;
}

void RunMapReduceScenario(const Scenario& s, Ctx* ctx) {
  std::vector<std::vector<uint64_t>> splits(s.num_splits);
  const uint64_t base = SplitMix64(HashCombine(s.seed, kRecordsTag));
  for (size_t split = 0; split < s.num_splits; ++split) {
    splits[split].reserve(s.records_per_split);
    for (size_t i = 0; i < s.records_per_split; ++i) {
      splits[split].push_back(
          SplitMix64(HashCombine(base, split * s.records_per_split + i)));
    }
  }

  obs::Telemetry telemetry;
  Result<mr::JobResult<MrOut>> run =
      mr::RunJob(splits, BuildMrJob(s, &telemetry));
  BuggifyDisable();
  if (!run.ok()) {
    ctx->Violate("mapreduce: run failed: " + run.status().ToString());
    return;
  }
  const mr::JobResult<MrOut>& got = run.Value();
  ctx->digest.Mix(got.output.size());
  for (const MrOut& rec : got.output) {
    ctx->digest.Mix(rec.first);
    ctx->digest.Mix(rec.second);
  }
  ctx->digest.Mix(got.stats.shuffle_bytes);
  ctx->digest.Mix(got.stats.shuffle_tuples);
  ctx->digest.Mix(got.stats.pre_combine_shuffle_bytes);
  ctx->digest.Mix(got.stats.pre_combine_shuffle_tuples);
  ctx->digest.Mix(got.stats.input_bytes);
  ctx->digest.Mix(got.stats.output_records);

  Result<mr::JobResult<MrOut>> ref =
      mr::RunJob(splits, BuildMrJob(s, nullptr));
  if (!ref.ok()) {
    ctx->Violate("mapreduce: clean rerun failed: " + ref.status().ToString());
    return;
  }
  const mr::JobResult<MrOut>& want = ref.Value();
  bool outputs_equal = got.output.size() == want.output.size();
  for (size_t i = 0; outputs_equal && i < got.output.size(); ++i) {
    outputs_equal = got.output[i].first == want.output[i].first &&
                    std::memcmp(&got.output[i].second, &want.output[i].second,
                                sizeof(double)) == 0;
  }
  if (!outputs_equal) {
    ctx->Violate(
        "mapreduce: output perturbed by Buggify task re-execution / buffer "
        "pressure (must be bit-identical)");
  }
  if (got.stats.shuffle_bytes != want.stats.shuffle_bytes ||
      got.stats.shuffle_tuples != want.stats.shuffle_tuples ||
      got.stats.pre_combine_shuffle_bytes !=
          want.stats.pre_combine_shuffle_bytes ||
      got.stats.input_bytes != want.stats.input_bytes ||
      got.stats.output_records != want.stats.output_records) {
    ctx->Violate(
        "mapreduce: Buggify run changed the engine's byte accounting "
        "(re-executed or duplicated work was charged)");
  }
}

// ---------------------------------------------------------------------------
// kServe — republish races and torn frames, driven end-to-end through the
// wire-facing deployment surface (serve/net.h):
// every ingest/advance/query travels as a checksummed frame over the
// loopback transport, where the `serve.net.torn_frame` Buggify section
// corrupts requests in flight (one client retry must always recover) and
// `serve.net.mid_checkpoint_crash` tears checkpoint fetches (a torn
// checkpoint must be detected, never installed). Invariants: staleness ≤ 1
// epoch, event conservation across frame retries, checkpoint restore
// bit-identity, and bit-identical snapshots across thread limits.
// ---------------------------------------------------------------------------

void RunServeScenario(const Scenario& s, Ctx* ctx) {
  obs::Telemetry telemetry;
  serve::StreamingDetectorOptions opts;
  opts.n = s.n;
  opts.m = s.m;
  opts.seed = SplitMix64(HashCombine(s.seed, kProtoTag));
  opts.window_epochs = s.window_epochs;
  opts.num_shards = s.num_shards;
  opts.telemetry = &telemetry;
  serve::StreamingService service(&telemetry);
  const char kTenant[] = "sim";
  Status added = service.AddTenant(kTenant, opts);
  if (!added.ok()) {
    ctx->Violate("serve: create failed: " + added.ToString());
    return;
  }
  Result<std::shared_ptr<serve::StreamingDetector>> tenant =
      service.Tenant(kTenant);
  if (!tenant.ok()) {
    ctx->Violate("serve: tenant lookup failed: " +
                 tenant.status().ToString());
    return;
  }
  // Direct handle for invariant checks (staleness, snapshots); all
  // data-plane traffic goes through the framed client below.
  serve::StreamingDetector& detector = *tenant.Value();

  serve::NetServer server(&service);
  serve::LoopbackTransport transport(&server);
  serve::NetClient client(&transport);

  {
    Result<uint64_t> opened = client.AdvanceTo(kTenant, 0);  // Opens epoch 0.
    if (!opened.ok()) {
      ctx->Violate("serve: framed open failed: " +
                   opened.status().ToString());
      return;
    }
  }

  // A few hot keys carry real signal so the final query has outliers to
  // find; the rest is Gaussian noise.
  std::vector<size_t> hot(5);
  for (size_t j = 0; j < hot.size(); ++j) {
    hot[j] = SplitMix64(HashCombine(s.seed, 0x686f74ULL + j)) % s.n;
  }

  uint64_t generated = 0;
  bool ingest_ok = true;
  std::string last_checkpoint;     // Latest checkpoint that decoded clean.
  uint64_t checkpoints_good = 0;   // Fetches that survived the storm.
  uint64_t checkpoints_torn = 0;   // Mid-write crashes, detected + skipped.
  for (size_t epoch = 0; epoch < s.epochs && ingest_ok; ++epoch) {
    for (size_t batch = 0; batch < s.batches_per_epoch; ++batch) {
      Rng rng(SplitMix64(HashCombine(HashCombine(s.seed, kEventsTag),
                                     epoch * 131 + batch)));
      std::vector<size_t> keys;
      std::vector<double> deltas;
      keys.reserve(s.events_per_batch + hot.size());
      deltas.reserve(s.events_per_batch + hot.size());
      for (size_t i = 0; i < s.events_per_batch; ++i) {
        keys.push_back(rng.NextBounded(s.n));
        deltas.push_back(rng.NextGaussian());
      }
      for (size_t j = 0; j < hot.size(); ++j) {
        keys.push_back(hot[j]);
        deltas.push_back(200.0 + 40.0 * static_cast<double>(j));
      }
      Status st = client.Ingest(kTenant, keys, deltas);
      if (!st.ok()) {
        ctx->Violate("serve: framed ingest failed: " + st.ToString());
        ingest_ok = false;
        break;
      }
      generated += keys.size();
    }
    if (!ingest_ok) break;
    Result<uint64_t> advanced = client.AdvanceTo(kTenant, epoch + 1);
    if (!advanced.ok()) {
      ctx->Violate("serve: framed advance failed: " +
                   advanced.status().ToString());
      ingest_ok = false;
      break;
    }
    std::shared_ptr<const serve::SketchSnapshot> snapshot =
        detector.Snapshot();
    if (snapshot == nullptr) {
      ctx->Violate("serve: no snapshot after closing epoch " + U64(epoch));
    } else if (detector.current_epoch() - snapshot->last_epoch > 1) {
      ctx->Violate("serve: snapshot staleness " +
                   U64(detector.current_epoch() - snapshot->last_epoch) +
                   " epochs after closing epoch " + U64(epoch) +
                   " (bound is 1)");
    }
    // Crash-consistent checkpoint stream: fetch after every close. A fetch
    // torn by the mid-checkpoint-crash section must fail the checksum
    // (DataLoss) — the previous good checkpoint stays installed; anything
    // that arrives intact must decode structurally clean.
    Result<std::string> ckpt = client.FetchCheckpoint(kTenant);
    if (ckpt.ok()) {
      Result<serve::DecodedCheckpoint> decoded =
          serve::DecodeCheckpoint(ckpt.Value());
      if (decoded.ok()) {
        last_checkpoint = ckpt.Value();
        ++checkpoints_good;
      } else {
        ctx->Violate("serve: intact checkpoint failed to decode: " +
                     decoded.status().ToString());
      }
    } else if (ckpt.status().code() == StatusCode::kDataLoss) {
      ++checkpoints_torn;
    } else {
      ctx->Violate("serve: checkpoint fetch failed: " +
                   ckpt.status().ToString());
    }
  }
  // Storm over: disarm Buggify. Every epoch close flushed its ingest
  // counters, so each generated event must have been folded exactly once,
  // however many frames a retry resent.
  BuggifyDisable();
  const uint64_t ingested = telemetry.counter("serve.ingest.events");
  if (ingest_ok && ingested != generated) {
    ctx->Violate("serve: event conservation: folded " + U64(ingested) +
                 " != generated " + U64(generated));
  }

  std::shared_ptr<const serve::SketchSnapshot> final_snapshot =
      detector.Snapshot();
  if (final_snapshot != nullptr) {
    ctx->digest.Mix(final_snapshot->version);
    ctx->digest.Mix(final_snapshot->last_epoch);
    ctx->digest.Mix(final_snapshot->first_epoch);
    ctx->digest.Mix(final_snapshot->events);
    for (double v : final_snapshot->y) ctx->digest.Mix(v);
  }
  ctx->digest.Mix(ingested);
  ctx->digest.Mix(telemetry.counter("serve.snapshots"));
  ctx->digest.Mix(checkpoints_good);
  ctx->digest.Mix(checkpoints_torn);
  ctx->digest.Mix(client.stats().retries);
  ctx->digest.Mix(server.frames_rejected());

  // Restart drill: with Buggify disarmed the post-storm checkpoint must
  // arrive intact, and restoring it must republish the live detector's
  // snapshot bit-identically (version, epoch range, y bytes).
  if (ingest_ok) {
    Result<std::string> final_ckpt = client.FetchCheckpoint(kTenant);
    if (!final_ckpt.ok()) {
      ctx->Violate("serve: post-storm checkpoint fetch failed: " +
                   final_ckpt.status().ToString());
    } else {
      serve::StreamingDetectorOptions restore_opts = opts;
      restore_opts.telemetry = nullptr;  // Keep conservation counters clean.
      Result<std::unique_ptr<serve::StreamingDetector>> restored =
          serve::RestoreDetector(final_ckpt.Value(), restore_opts);
      if (!restored.ok()) {
        ctx->Violate("serve: checkpoint restore failed: " +
                     restored.status().ToString());
      } else {
        std::shared_ptr<const serve::SketchSnapshot> live =
            detector.Snapshot();
        std::shared_ptr<const serve::SketchSnapshot> rest =
            restored.Value()->Snapshot();
        const bool identical =
            live != nullptr && rest != nullptr &&
            rest->version == live->version &&
            rest->first_epoch == live->first_epoch &&
            rest->last_epoch == live->last_epoch &&
            rest->events == live->events &&
            rest->y.size() == live->y.size() &&
            std::memcmp(rest->y.data(), live->y.data(),
                        live->y.size() * sizeof(double)) == 0;
        if (!identical) {
          ctx->Violate(
              "serve: restored checkpoint snapshot is not bit-identical to "
              "the live detector's");
        }
      }
    }
  }

  // Final query over the wire; it must match the in-process answer bit for
  // bit (the digest is fed from the framed rows, so any divergence between
  // deployment surface and library also breaks replay determinism).
  Result<outlier::OutlierSet> query = detector.QueryOutliers(s.k);
  Result<serve::StreamingQueryResult> framed = client.Query(
      "SELECT Outlier " + U64(s.k) + " SUM(score), key FROM " + kTenant +
      " GROUP BY key");
  if (!query.ok()) {
    ctx->Violate("serve: final query failed: " + query.status().ToString());
  } else if (!framed.ok()) {
    ctx->Violate("serve: framed final query failed: " +
                 framed.status().ToString());
  } else {
    const outlier::OutlierSet& want = query.Value();
    const serve::StreamingQueryResult& got = framed.Value();
    bool rows_equal = got.rows.size() == want.outliers.size() &&
                      got.mode == want.mode;
    for (size_t i = 0; rows_equal && i < got.rows.size(); ++i) {
      rows_equal =
          got.rows[i].group_key ==
              std::to_string(want.outliers[i].key_index) &&
          got.rows[i].value == want.outliers[i].value &&
          got.rows[i].rank_score == want.outliers[i].divergence;
    }
    if (!rows_equal) {
      ctx->Violate(
          "serve: framed query answer diverged from the in-process answer");
    }
    ctx->digest.Mix(got.mode);
    ctx->digest.Mix(got.rows.size());
    for (const query::ResultRow& row : got.rows) {
      ctx->digest.Mix(row.group_key);
      ctx->digest.Mix(row.value);
      ctx->digest.Mix(row.rank_score);
    }
    ctx->digest.Mix(got.snapshot_version);
    ctx->digest.Mix(got.staleness_epochs);
  }
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

ScenarioOutcome ExecuteScenario(const Scenario& scenario,
                                size_t thread_limit) {
  Ctx ctx;
  const size_t previous_limit = GetParallelismLimit();
  SetParallelismLimit(thread_limit);
  if (scenario.buggify) {
    BuggifyEnable(scenario.buggify_options);
  } else {
    BuggifyDisable();
  }
  switch (scenario.kind) {
    case ScenarioKind::kCs:
      RunCsScenario(scenario, &ctx);
      break;
    case ScenarioKind::kAdaptiveGrow:
    case ScenarioKind::kTwoPhase:
      RunAdaptiveScenario(scenario, &ctx);
      break;
    case ScenarioKind::kKPlusDelta:
      RunKPlusDeltaScenario(scenario, &ctx);
      break;
    case ScenarioKind::kMapReduce:
      RunMapReduceScenario(scenario, &ctx);
      break;
    case ScenarioKind::kServe:
      RunServeScenario(scenario, &ctx);
      break;
  }
  if (scenario.buggify) {
    // The section report (activation, hits, fires) is itself part of the
    // deterministic outcome: a thread-schedule-dependent fault decision
    // shows up here as a digest mismatch even if the answer survived it.
    // Sections this scenario never hit are skipped — the registry is leaky
    // across scenarios, so unhit entries registered by an earlier scenario
    // in the same process would make the digest depend on sweep
    // composition rather than the seed alone.
    for (const BuggifySectionReport& section : BuggifyReport()) {
      if (section.hits == 0) continue;
      ctx.digest.Mix(section.name);
      ctx.digest.Mix(section.activated);
      ctx.digest.Mix(section.hits);
      ctx.digest.Mix(section.fires);
    }
  }
  BuggifyDisable();
  SetParallelismLimit(previous_limit);

  ScenarioOutcome outcome;
  outcome.digest = ctx.digest.value();
  outcome.violations = std::move(ctx.violations);
  outcome.summary = ScenarioToString(scenario);
  return outcome;
}

}  // namespace

ScenarioOutcome RunScenario(const Scenario& scenario) {
  ScenarioOutcome outcome = ExecuteScenario(scenario, scenario.thread_limit);
  // The whole run must be a pure function of the seed: re-execute at a
  // different parallelism limit and require the identical digest.
  const size_t alternate = scenario.thread_limit == 1 ? 8 : 1;
  ScenarioOutcome replay = ExecuteScenario(scenario, alternate);
  if (replay.digest != outcome.digest) {
    outcome.violations.push_back(
        "nondeterministic: digest " + Hex(outcome.digest) + " at limit " +
        U64(scenario.thread_limit) + " != " + Hex(replay.digest) +
        " at limit " + U64(alternate));
  }
  if (replay.violations != outcome.violations) {
    outcome.violations.push_back(
        "nondeterministic: violation set differs across thread limits (" +
        U64(outcome.violations.size()) + " vs " +
        U64(replay.violations.size()) + ")");
  }
  return outcome;
}

SweepResult RunSweep(const SweepOptions& options) {
  SweepResult result;
  uint64_t combined = 0x73776565705f3030ULL;
  std::map<std::string, size_t> by_kind;
  std::string verbose_lines;
  for (size_t i = 0; i < options.scenarios; ++i) {
    const uint64_t seed = options.seed0 + i;
    const Scenario scenario = ScenarioFromSeed(seed);
    const ScenarioOutcome outcome = RunScenario(scenario);
    ++result.ran;
    ++by_kind[ScenarioKindName(scenario.kind)];
    combined = HashCombine(combined, outcome.digest);
    if (options.verbose) {
      verbose_lines += "  seed=" + U64(seed) + " digest=" +
                       Hex(outcome.digest) +
                       (outcome.ok() ? " ok " : " FAIL ") + outcome.summary +
                       "\n";
    }
    if (!outcome.ok()) {
      ++result.failed;
      for (const std::string& violation : outcome.violations) {
        result.failures.push_back("seed=" + U64(seed) + " [" +
                                  outcome.summary + "] " + violation);
      }
      result.failures.push_back("  replay: csod sim --replay " + U64(seed));
    }
  }
  result.combined_digest = combined;

  std::string report;
  report += "scenarios: " + U64(result.ran) + " (seed0=" +
            U64(options.seed0) + ")\n";
  for (const auto& [kind, count] : by_kind) {
    report += "  " + kind + ": " + U64(count) + "\n";
  }
  report += "combined digest: " + Hex(result.combined_digest) + "\n";
  if (options.verbose) report += verbose_lines;
  if (result.failed == 0) {
    report += "all scenarios passed\n";
  } else {
    report += U64(result.failed) + " scenario(s) FAILED:\n";
    for (const std::string& failure : result.failures) {
      report += "  " + failure + "\n";
    }
  }
  result.report = std::move(report);
  return result;
}

ScenarioOutcome ReplaySeed(uint64_t seed, std::string* out_scenario_line) {
  const Scenario scenario = ScenarioFromSeed(seed);
  if (out_scenario_line != nullptr) {
    *out_scenario_line = ScenarioToString(scenario);
  }
  return RunScenario(scenario);
}

}  // namespace csod::sim
