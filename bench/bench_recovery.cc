// Recovery benchmark (BENCH_recovery.json): what BOMP costs as the
// sparsity grows, that its answer is one bit pattern on every thread
// limit and ISA, and the wire bytes the two-phase sensing protocol saves.
//
// Three phases:
//
//  (a) Sweep: BOMP's recovery wall time, Φ0 passes and EK at N = --n
//      (100k) and M = --m (1600) as the planted sparsity k sweeps
//      --k-list {10, 50, 100}. The budget is sized generously to the
//      sparsity (R = k + 4 — real deployments run the paper's
//      R = f(k) ≈ 3.5k). BOMP must hit EK = 0 and select its R atoms two
//      per Φ0 sweep (DESIGN.md §14).
//
//  (b) Determinism: the RecoverBiased answer at the largest swept k
//      digested (FNV-1a over every output bit: mode, entry indices/values,
//      residual norm, iteration count) across parallelism limits {1,2,8}
//      x every SIMD level the host supports (portable, avx2, avx512). All
//      digests must be identical ("bit_identical"): the kernels share
//      fixed-lane summation trees and the screen confirms every pick
//      exactly.
//
//  (c) Distributed: on the Figure 7 production workload (core-search,
//      quarter scale, 8 data centers, zero-sum cancellation noise),
//      sweep the fixed-M protocol and the two-phase protocol down to the
//      cheapest configuration that still answers the top-k exactly
//      (EK = 0, EV <= --ev-target) and compare wire bytes.
//
// Gates (one `gate ...` line each; exit 1 if any fails): bit_identical;
// zero_sweep_ek (BOMP exact at every swept k);
// bomp_passes_at_largest_k (BOMP's correlate passes at the largest swept k
// are at most ⌈R/2⌉ + 1, a count that host load cannot move); and
// min_two_phase_savings_pct (>= 30% fewer wire bytes than the cheapest
// fixed-M configuration at matched precision/recall).
//
// Flags: --n --m --k-list --trials --ev-target --cache-mb --out --quick

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "cs/solver.h"
#include "dist/adaptive_cs_protocol.h"
#include "dist/cs_protocol.h"
#include "outlier/metrics.h"
#include "outlier/outlier.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace {

using namespace csod;
using bench::Fnv1a;

uint64_t DigestRecovery(const cs::BompResult& result) {
  Fnv1a digest;
  digest.AddDouble(result.mode);
  digest.AddDouble(result.final_residual_norm);
  digest.AddU64(result.iterations);
  for (const cs::RecoveredEntry& entry : result.entries) {
    digest.AddU64(entry.index);
    digest.AddDouble(entry.value);
  }
  return digest.hash();
}

// BOMP's budget R in the sweep: generous to the sparsity k.
size_t SweepBudget(size_t k) { return k + 4; }

// Outlier divergences planted in [500, 10000]: at the 1-2% undersampling
// ratios swept here, BOMP's weak-signal floor (the residual-correlation
// floor) is a few hundred, and the sweep measures wall time at EK = 0,
// not that floor — ablation_recovery sweeps that axis.
std::vector<double> MakeCentralizedWorkload(size_t n, size_t sparsity,
                                            uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = sparsity;
  gen.min_divergence = 500.0;
  gen.seed = seed;
  return workload::GenerateMajorityDominated(gen).MoveValue();
}

struct DistributedWorkload {
  size_t n = 0;
  size_t sparsity = 0;
  std::unique_ptr<dist::Cluster> cluster;
  std::vector<double> global;
};

// The Figure 7 production stand-in: calibrated core-search click log at
// quarter scale, geo-partitioned over 8 data centers with zero-sum
// cancellation noise (locally, ordinary keys look like huge outliers).
DistributedWorkload MakeDistributedWorkload(uint64_t seed) {
  const auto cal =
      workload::CalibrationFor(workload::ClickScoreType::kCoreSearch);
  DistributedWorkload w;
  w.n = cal.n / 4;
  w.sparsity = cal.sparsity / 4;

  workload::ClickLogOptions gen;
  gen.score_type = workload::ClickScoreType::kCoreSearch;
  gen.n_override = w.n;
  gen.sparsity_override = w.sparsity;
  gen.seed = seed;
  auto data = workload::GenerateClickLog(gen).MoveValue();
  w.global = std::move(data.global);

  workload::PartitionOptions part;
  part.num_nodes = 8;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.cancellation_noise = 30000.0;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(w.global, part).MoveValue();
  w.cluster = std::make_unique<dist::Cluster>(w.n);
  for (auto& slice : slices) w.cluster->AddNode(std::move(slice)).Value();
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const bool quick = flags.GetBool("quick", false);
  const size_t n = static_cast<size_t>(flags.GetInt("n", quick ? 20000 : 100000));
  const size_t m = static_cast<size_t>(flags.GetInt("m", quick ? 640 : 1600));
  const std::vector<int64_t> k_list =
      flags.GetIntList("k-list", quick ? std::vector<int64_t>{10, 50}
                                       : std::vector<int64_t>{10, 50, 100});
  const size_t trials = static_cast<size_t>(flags.GetInt("trials", 1));
  const double ev_target = flags.GetDouble("ev-target", 1e-3);
  const size_t cache_bytes =
      static_cast<size_t>(flags.GetInt("cache-mb", 2048)) * (1ull << 20);
  const std::string out_path = flags.GetString("out", "BENCH_recovery.json");

  bench::Banner("Recovery",
                "BOMP wall time vs sparsity, determinism digests, "
                "two-phase vs fixed-M wire bytes");
  std::printf("sweep: N = %zu, M = %zu; trials = %zu\n\n", n, m, trials);

  // ---------------------------------------------------------------- (a)
  // Sweep: BOMP's budget (and its QR) grows with k. Same matrix across
  // k — only the data changes.
  struct SweepPoint {
    size_t k = 0;
    double bomp_ms = 0.0;
    double bomp_ek = 0.0;
    size_t bomp_iterations = 0;
    size_t bomp_passes = 0;
  };
  std::vector<SweepPoint> sweep;
  uint64_t determinism_baseline = 0;
  bool bit_identical = true;
  struct DigestRow {
    size_t threads;
    const char* simd;
    uint64_t digest;
  };
  std::vector<DigestRow> digests;
  {
    cs::MeasurementMatrix matrix(m, n, 1234, cache_bytes);
    std::printf("=== sweep (N = %zu, M = %zu, matrix cached = %s) ===\n", n,
                m, matrix.cached() ? "yes" : "no");
    cs::SolverOptions solve;
    std::vector<double> y;
    for (int64_t k64 : k_list) {
      const size_t k = static_cast<size_t>(k64);
      const auto global = MakeCentralizedWorkload(n, k, 40 + k);
      const auto truth = outlier::ExactKOutliers(global, k);
      y = matrix.Multiply(global).MoveValue();
      solve.iterations = SweepBudget(k);

      SweepPoint point;
      point.k = k;
      for (size_t t = 0; t < trials; ++t) {
        Stopwatch watch;
        auto bomp = cs::RecoverBiased(matrix, y, solve).MoveValue();
        const double ms = watch.ElapsedMillis();
        if (t == 0 || ms < point.bomp_ms) point.bomp_ms = ms;
        point.bomp_iterations = bomp.iterations;
        point.bomp_passes = bomp.passes;
        point.bomp_ek = outlier::ErrorOnKey(
            truth, outlier::KOutliersFromRecovery(bomp, k));
      }
      std::printf("k = %3zu: BOMP %8.1f ms (R = %zu in %zu passes, EK %.2f)\n",
                  k, point.bomp_ms, point.bomp_iterations, point.bomp_passes,
                  point.bomp_ek);
      sweep.push_back(point);
    }

    // -------------------------------------------------------------- (b)
    // Determinism: the largest k's solve, every (thread limit, supported
    // SIMD level) pair.
    std::printf("\n=== determinism (BOMP digests, k = %zu) ===\n",
                sweep.empty() ? size_t{0} : sweep.back().k);
    for (size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
      for (simd::Level level : simd::kAllLevels) {
        if (level > simd::SupportedLevel()) continue;
        const size_t previous_limit = GetParallelismLimit();
        SetParallelismLimit(limit);
        const simd::Level previous_level = simd::SetLevelForTesting(level);
        auto result = cs::RecoverBiased(matrix, y, solve).MoveValue();
        simd::SetLevelForTesting(previous_level);
        SetParallelismLimit(previous_limit);

        DigestRow row{limit, simd::LevelName(level), DigestRecovery(result)};
        if (digests.empty()) determinism_baseline = row.digest;
        if (row.digest != determinism_baseline) bit_identical = false;
        std::printf("threads %zu, simd %-8s digest 0x%016" PRIx64 "\n",
                    row.threads, row.simd, row.digest);
        digests.push_back(row);
      }
    }
    std::printf("bit_identical: %s\n", bit_identical ? "true" : "false");
  }

  // ---------------------------------------------------------------- (c)
  // Distributed wire bytes on the Figure 7 production workload.
  const size_t dist_k = 5;
  const size_t dist_trials = 3;
  DistributedWorkload w = MakeDistributedWorkload(300);
  const auto dist_truth = outlier::ExactKOutliers(w.global, dist_k);
  const size_t num_nodes = w.cluster->num_nodes();
  // Budget R sized to the full planted sparsity so the fixed protocol can
  // model every outlier — EV is matrix-limited, not budget-limited.
  const size_t dist_iterations = w.sparsity + 8;

  std::printf("\n=== distributed (core-search/4: N = %zu, s = %zu, L = %zu, "
              "k = %zu, EV target %.0e) ===\n",
              w.n, w.sparsity, num_nodes, dist_k, ev_target);

  // Fixed-M: smallest M on the grid where every trial seed answers the
  // top-k exactly at the EV target.
  uint64_t fixed_m = 0, fixed_bytes = 0;
  double fixed_ev = 0.0;
  for (size_t candidate = 120; candidate <= 520; candidate += 20) {
    bool all_ok = true;
    double worst_ev = 0.0;
    uint64_t bytes = 0;
    for (size_t t = 0; t < dist_trials && all_ok; ++t) {
      dist::CsProtocolOptions options;
      options.m = candidate;
      options.seed = 5000 + t * 977;
      options.iterations = dist_iterations;
      dist::CsOutlierProtocol protocol(options);
      dist::CommStats comm;
      auto estimate = protocol.Run(*w.cluster, dist_k, &comm).MoveValue();
      const double ek = outlier::ErrorOnKey(dist_truth, estimate);
      const double ev = outlier::ErrorOnValue(dist_truth, estimate);
      worst_ev = std::max(worst_ev, ev);
      bytes = comm.bytes_total();
      if (ek != 0.0 || ev > ev_target) all_ok = false;
    }
    if (all_ok) {
      fixed_m = candidate;
      fixed_bytes = bytes;
      fixed_ev = worst_ev;
      break;
    }
  }
  std::printf("fixed-M   : M* = %" PRIu64 "  bytes %" PRIu64
              "  worst EV %.2e\n",
              fixed_m, fixed_bytes, fixed_ev);

  // Two-phase: smallest locate-M on the grid meeting the same target
  // (refine's exact least squares does the EV work).
  uint64_t two_phase_locate_m = 0, two_phase_refine_m = 0,
           two_phase_bytes = 0;
  double two_phase_ev = 0.0;
  for (size_t candidate = 48; candidate <= 400; candidate += 16) {
    bool all_ok = true;
    double worst_ev = 0.0;
    uint64_t bytes = 0, refine_m = 0;
    for (size_t t = 0; t < dist_trials && all_ok; ++t) {
      dist::AdaptiveCsOptions options;
      options.strategy = dist::AdaptiveStrategy::kTwoPhase;
      options.locate_m = candidate;
      options.seed = 7000 + t * 977;
      options.iterations = dist_iterations;
      dist::AdaptiveCsProtocol protocol(options);
      dist::CommStats comm;
      auto estimate = protocol.Run(*w.cluster, dist_k, &comm).MoveValue();
      const double ek = outlier::ErrorOnKey(dist_truth, estimate);
      const double ev = outlier::ErrorOnValue(dist_truth, estimate);
      worst_ev = std::max(worst_ev, ev);
      bytes = comm.bytes_total();
      refine_m = protocol.rounds().back().m;
      if (ek != 0.0 || ev > ev_target) all_ok = false;
    }
    if (all_ok) {
      two_phase_locate_m = candidate;
      two_phase_refine_m = refine_m;
      two_phase_bytes = bytes;
      two_phase_ev = worst_ev;
      break;
    }
  }
  const double two_phase_savings =
      (fixed_bytes > 0 && two_phase_bytes > 0)
          ? 100.0 * (1.0 - static_cast<double>(two_phase_bytes) /
                               static_cast<double>(fixed_bytes))
          : 0.0;
  std::printf("two-phase : locate M = %" PRIu64 ", refine M = %" PRIu64
              "  bytes %" PRIu64 "  worst EV %.2e  savings %.1f%%\n",
              two_phase_locate_m, two_phase_refine_m, two_phase_bytes,
              two_phase_ev, two_phase_savings);

  // ------------------------------------------------------------ output
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"recovery\",\n");
  std::fprintf(out, "  \"host\": %s,\n", bench::HostJson().c_str());
  std::fprintf(out,
               "  \"config\": {\"n\": %zu, \"m\": %zu, \"trials\": %zu, "
               "\"ev_target\": %g},\n",
               n, m, trials, ev_target);
  std::fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(out,
                 "    {\"k\": %zu, \"bomp_ms\": %.3f, \"bomp_ek\": %g, "
                 "\"bomp_iterations\": %zu, \"bomp_passes\": %zu}%s\n",
                 p.k, p.bomp_ms, p.bomp_ek, p.bomp_iterations, p.bomp_passes,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"determinism\": {\n    \"digests\": [\n");
  for (size_t i = 0; i < digests.size(); ++i) {
    std::fprintf(out,
                 "      {\"threads\": %zu, \"simd\": \"%s\", "
                 "\"output_digest\": \"0x%016" PRIx64 "\"}%s\n",
                 digests[i].threads, digests[i].simd, digests[i].digest,
                 i + 1 < digests.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"bit_identical\": %s\n  },\n",
               bit_identical ? "true" : "false");
  std::fprintf(out, "  \"distributed\": {\n");
  std::fprintf(out,
               "    \"workload\": \"core-search/4\", \"n\": %zu, "
               "\"sparsity\": %zu, \"nodes\": %zu, \"k\": %zu,\n",
               w.n, w.sparsity, num_nodes, dist_k);
  std::fprintf(out,
               "    \"fixed\": {\"m\": %" PRIu64 ", \"bytes\": %" PRIu64
               ", \"worst_ev\": %g},\n",
               fixed_m, fixed_bytes, fixed_ev);
  std::fprintf(out,
               "    \"two_phase\": {\"locate_m\": %" PRIu64
               ", \"refine_m\": %" PRIu64 ", \"bytes\": %" PRIu64
               ", \"worst_ev\": %g, \"savings_vs_fixed_pct\": %.1f}\n",
               two_phase_locate_m, two_phase_refine_m, two_phase_bytes,
               two_phase_ev, two_phase_savings);
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("\nWrote %s\n", out_path.c_str());

  bool sweep_exact = true;
  for (const SweepPoint& p : sweep) {
    sweep_exact = sweep_exact && p.bomp_ek == 0.0;
  }
  bench::Gates gates;
  gates.Holds("bit_identical", bit_identical);
  gates.Holds("zero_sweep_ek", sweep_exact);
  const SweepPoint largest_k = sweep.empty() ? SweepPoint{} : sweep.back();
  gates.AtMost("bomp_passes_at_largest_k",
               static_cast<double>(largest_k.bomp_passes),
               static_cast<double>((SweepBudget(largest_k.k) + 1) / 2 + 1));
  gates.AtLeast("min_two_phase_savings_pct", two_phase_savings, 30.0);
  return gates.exit_code();
}
