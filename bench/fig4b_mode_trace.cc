// Figure 4(b): the value of the recovered mode (bias) after each BOMP
// iteration on majority-dominated data. The paper's observation: the
// estimate oscillates while the outliers are being picked up and
// stabilizes at the true mode b once the iteration count passes s + 1,
// matching Theorem 1.
//
// Gates (one `gate ...` line each; exit 1 if any fails), for each s: the
// trace reaches iteration s + 1, and every estimate from iteration s + 1
// on lies within 1.0 of b.
//
// Flags: --n=N --s-list=50,100,200 --m-list=500,700,1000 --iters=300

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace csod;
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const size_t n = static_cast<size_t>(flags.GetInt("n", 1000));
  const std::vector<int64_t> s_list =
      flags.GetIntList("s-list", {50, 100, 200});
  // M per s: sizes at which Figure 4(a) reaches 100% exact recovery.
  const std::vector<int64_t> m_list =
      flags.GetIntList("m-list", {500, 700, 1000});
  const size_t iters = static_cast<size_t>(flags.GetInt("iters", 300));
  const double b = 5000.0;

  bench::Banner("Figure 4(b)",
                "mode (bias) estimate per BOMP iteration, majority-dominated"
                " data, b = 5000");
  std::printf("N = %zu; expected: trace locks onto 5000 at iteration s+1\n\n",
              n);

  bench::Gates gates;
  for (size_t i = 0; i < s_list.size(); ++i) {
    const size_t s = static_cast<size_t>(s_list[i]);
    const size_t m =
        static_cast<size_t>(m_list[std::min(i, m_list.size() - 1)]);

    workload::MajorityDominatedOptions gen;
    gen.n = n;
    gen.sparsity = s;
    gen.mode = b;
    gen.seed = 11;
    auto x = workload::GenerateMajorityDominated(gen).MoveValue();

    cs::MeasurementMatrix matrix(m, n, 77 + s);
    auto y = matrix.Multiply(x).MoveValue();

    cs::BompOptions options;
    options.max_iterations = std::min(iters, m);
    options.record_mode_trace = true;
    options.stop_on_residual_stagnation = false;
    auto result = cs::RunBomp(matrix, y, options).MoveValue();

    std::printf("s = %zu (M = %zu): mode estimate every 10 iterations\n", s,
                m);
    const auto& trace = result.mode_trace;
    for (size_t it = 0; it < trace.size(); it += 10) {
      std::printf("  iter %4zu: %12.2f%s\n", it + 1, trace[it],
                  it + 1 >= s + 1 ? "   (past s+1)" : "");
    }
    if (!trace.empty()) {
      std::printf("  final (%zu iters): %12.2f\n", trace.size(),
                  trace.back());
    }

    // Iteration s + 1 is trace[s]; a trace that stops short of it has no
    // settled estimate to check.
    double max_error = std::numeric_limits<double>::infinity();
    if (trace.size() > s) {
      max_error = 0.0;
      for (size_t it = s; it < trace.size(); ++it) {
        max_error = std::max(max_error, std::fabs(trace[it] - b));
      }
    }
    const std::string prefix = "s" + std::to_string(s);
    gates.AtLeast((prefix + "_trace_iterations").c_str(),
                  static_cast<double>(trace.size()),
                  static_cast<double>(s + 1));
    gates.Below((prefix + "_max_mode_error_from_s_plus_1").c_str(),
                max_error, 1.0);
    std::printf("\n");
  }
  return gates.exit_code();
}
