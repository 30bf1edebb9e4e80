// Ablation: recovery-algorithm choice (DESIGN.md decision 2/3).
//
// The paper argues (Section 2.2) that OMP is the right recovery for the
// outlier problem — simple, fast, and "greedy on the significant
// components". This harness measures that choice on biased-sparse data,
// comparing two recoveries at equal measurement budgets (Fig. 4(a)'s pair):
//   BOMP           (the paper's algorithm)
//   OMP+known-mode (oracle mode)
//
// Flags: --n --s --trials --m-list

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "outlier/metrics.h"
#include "outlier/outlier.h"
#include "workload/generators.h"

namespace {

using namespace csod;

struct MethodStats {
  std::vector<double> ek;       // Per M: average EK.
  std::vector<double> millis;   // Per M: average recovery time.
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const size_t n = static_cast<size_t>(flags.GetInt("n", 1000));
  const size_t s = static_cast<size_t>(flags.GetInt("s", 25));
  const size_t k = 5;
  const size_t trials = static_cast<size_t>(
      flags.GetInt("trials", flags.GetBool("quick", false) ? 2 : 5));
  const std::vector<int64_t> m_list =
      flags.GetIntList("m-list", {100, 150, 200, 300, 400});

  bench::Banner("Ablation: recovery algorithm",
                "EK and recovery time on biased-sparse data, equal M");
  std::printf("N = %zu, s = %zu, k = %zu, trials = %zu, mode b = 5000\n\n", n,
              s, k, trials);

  MethodStats bomp_stats, omp_stats;
  for (int64_t m64 : m_list) {
    const size_t m = static_cast<size_t>(m64);
    double ek[2] = {0, 0};
    double ms[2] = {0, 0};
    for (size_t t = 0; t < trials; ++t) {
      workload::MajorityDominatedOptions gen;
      gen.n = n;
      gen.sparsity = s;
      gen.seed = 600 + t;
      auto x = workload::GenerateMajorityDominated(gen).MoveValue();
      const auto truth = outlier::ExactKOutliers(x, k);

      cs::MeasurementMatrix matrix(m, n, 8100 + t * 37 + m);
      auto y = matrix.Multiply(x).MoveValue();

      Stopwatch watch;

      // BOMP.
      cs::BompOptions bomp_options;
      bomp_options.max_iterations = s + 3;
      watch.Restart();
      auto bomp = cs::RunBomp(matrix, y, bomp_options).MoveValue();
      ms[0] += watch.ElapsedMillis();
      ek[0] += outlier::ErrorOnKey(truth,
                                   outlier::KOutliersFromRecovery(bomp, k));

      // OMP with known mode.
      watch.Restart();
      auto omp =
          cs::RecoverWithKnownMode(matrix, y, gen.mode, bomp_options)
              .MoveValue();
      ms[1] += watch.ElapsedMillis();
      ek[1] +=
          outlier::ErrorOnKey(truth, outlier::KOutliersFromRecovery(omp, k));
    }
    bomp_stats.ek.push_back(ek[0] / trials);
    bomp_stats.millis.push_back(ms[0] / trials);
    omp_stats.ek.push_back(ek[1] / trials);
    omp_stats.millis.push_back(ms[1] / trials);
  }

  bench::PrintHeader("M =", m_list);
  bench::PrintPercentRow("EK BOMP", bomp_stats.ek);
  bench::PrintPercentRow("EK OMP+known-mode", omp_stats.ek);
  std::printf("\n");
  bench::PrintDoubleRow("ms BOMP", bomp_stats.millis);
  bench::PrintDoubleRow("ms OMP+known-mode", omp_stats.millis);

  std::printf(
      "\nExpected: BOMP matches the oracle's accuracy without knowing the "
      "mode, at about the oracle's cost.\n");
  return 0;
}
