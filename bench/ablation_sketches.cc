// Ablation: CS measurements vs traditional linear sketches (Section 7.2).
//
// Both the CS measurement and CountSketch are linear, so both merge
// exactly across nodes — but only CS recovery can separate an *unknown
// non-zero mode* from the outliers. At equal per-node communication
// budgets this harness compares, on mode-dominated production-like data:
//   - k-outlier accuracy: BOMP vs merged-CountSketch estimates,
//   - zero-mode top-k accuracy: BOMP vs CountSketch (the sketch's home
//     turf).
//
// Flags: --n --s --trials --budget-list (tuples per node)

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "dist/cs_protocol.h"
#include "outlier/metrics.h"
#include "sketch/sketch_protocols.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace {

using namespace csod;

std::unique_ptr<dist::Cluster> BuildCluster(const std::vector<double>& global,
                                            uint64_t seed) {
  workload::PartitionOptions part;
  part.num_nodes = 8;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = seed;
  auto cluster = std::make_unique<dist::Cluster>(global.size());
  auto slices = workload::PartitionAdditive(global, part).MoveValue();
  for (auto& slice : slices) cluster->AddNode(std::move(slice)).Value();
  return cluster;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const size_t n = static_cast<size_t>(flags.GetInt("n", 4000));
  const size_t s = static_cast<size_t>(flags.GetInt("s", 40));
  const size_t k = 5;
  const size_t trials = static_cast<size_t>(
      flags.GetInt("trials", flags.GetBool("quick", false) ? 2 : 5));
  const std::vector<int64_t> budget_list =
      flags.GetIntList("budget-list", {100, 200, 400, 800});

  bench::Banner("Ablation: CS vs traditional sketches",
                "equal per-node budgets (8-byte tuples), 8 nodes");
  std::printf("N = %zu, s = %zu, k = %zu, trials = %zu\n\n", n, s, k, trials);

  // --- Part 1: mode-dominated outlier detection. ---
  std::printf("Part 1: k-outlier EK on mode-dominated data (b = 5000)\n");
  bench::PrintHeader("budget =", budget_list);
  {
    std::vector<double> cs_ek_avg, sk_ek_avg;
    for (int64_t budget : budget_list) {
      double cs_ek = 0.0;
      double sk_ek = 0.0;
      for (size_t t = 0; t < trials; ++t) {
        workload::MajorityDominatedOptions gen;
        gen.n = n;
        gen.sparsity = s;
        gen.seed = 50 + t;
        auto global = workload::GenerateMajorityDominated(gen).MoveValue();
        const auto truth = outlier::ExactKOutliers(global, k);
        auto cluster = BuildCluster(global, 60 + t);

        dist::CsProtocolOptions cs_options;
        cs_options.m = static_cast<size_t>(budget);
        cs_options.seed = 7000 + t * 13 + budget;
        // Recovery budget past the data's sparsity (values exact once the
        // whole outlier set is absorbed).
        cs_options.iterations = s + 10;
        dist::CsOutlierProtocol cs_protocol(cs_options);
        dist::CommStats cs_comm;
        auto cs_result = cs_protocol.Run(*cluster, k, &cs_comm).MoveValue();
        cs_ek += outlier::ErrorOnKey(truth, cs_result);

        sketch::CountSketchProtocolOptions sk_options;
        sk_options.width =
            std::max<size_t>(1, static_cast<size_t>(budget) / 5);
        sk_options.seed = 7000 + t * 13 + budget;
        sketch::CountSketchOutlierProtocol sk_protocol(sk_options);
        dist::CommStats sk_comm;
        auto sk_result = sk_protocol.Run(*cluster, k, &sk_comm).MoveValue();
        sk_ek += outlier::ErrorOnKey(truth, sk_result);
      }
      cs_ek_avg.push_back(cs_ek / trials);
      sk_ek_avg.push_back(sk_ek / trials);
    }
    bench::PrintPercentRow("EK BOMP", cs_ek_avg);
    bench::PrintPercentRow("EK CountSketch", sk_ek_avg);
  }

  // --- Part 2: zero-mode top-k (heavy hitters). ---
  std::printf("\nPart 2: top-%zu EK on zero-mode power-law data\n", k);
  bench::PrintHeader("budget =", budget_list);
  {
    std::vector<double> cs_ek_avg, sk_ek_avg;
    for (int64_t budget : budget_list) {
      double cs_ek = 0.0;
      double sk_ek = 0.0;
      for (size_t t = 0; t < trials; ++t) {
        workload::PowerLawOptions gen;
        gen.n = n;
        gen.alpha = 0.8;
        gen.seed = 90 + t;
        auto global = workload::GeneratePowerLaw(gen).MoveValue();
        const auto truth_vec = outlier::TopK(global, k);
        outlier::OutlierSet truth;
        truth.outliers = truth_vec;
        auto cluster = BuildCluster(global, 100 + t);

        dist::CsProtocolOptions cs_options;
        cs_options.m = static_cast<size_t>(budget);
        cs_options.seed = 8800 + t * 17 + budget;
        cs_options.iterations = 3 * k;
        dist::CsOutlierProtocol cs_protocol(cs_options);
        dist::CommStats cs_comm;
        auto cs_run = cs_protocol.Run(*cluster, k, &cs_comm);
        // Rank recovered entries by value for top-k.
        outlier::OutlierSet cs_top;
        if (cs_run.ok()) {
          std::vector<outlier::Outlier> entries;
          for (const auto& e : cs_run.Value().outliers) entries.push_back(e);
          // Recovered "outliers" on zero-mode data are the big values.
          std::sort(entries.begin(), entries.end(),
                    [](const outlier::Outlier& a, const outlier::Outlier& b) {
                      return a.value > b.value;
                    });
          cs_top.outliers = std::move(entries);
        }
        cs_ek += outlier::ErrorOnKey(truth, cs_top);

        sketch::CountSketchProtocolOptions sk_options;
        sk_options.width =
            std::max<size_t>(1, static_cast<size_t>(budget) / 5);
        sk_options.seed = 8800 + t * 17 + budget;
        dist::CommStats sk_comm;
        outlier::OutlierSet sk_top;
        sk_top.outliers =
            sketch::RunCountSketchTopK(*cluster, k, sk_options, &sk_comm)
                .MoveValue();
        sk_ek += outlier::ErrorOnKey(truth, sk_top);
      }
      cs_ek_avg.push_back(cs_ek / trials);
      sk_ek_avg.push_back(sk_ek / trials);
    }
    bench::PrintPercentRow("EK BOMP top-k", cs_ek_avg);
    bench::PrintPercentRow("EK CountSketch top-k", sk_ek_avg);
  }

  std::printf(
      "\nExpected: on mode-dominated data only BOMP reaches EK ~ 0 — the "
      "sketch's per-key noise ~ |b|*sqrt(N/width) buries the outliers. On "
      "zero-mode heavy-hitter data both approaches work, with the sketch "
      "competitive (its home turf).\n");
  return 0;
}
