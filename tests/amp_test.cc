#include "cs/amp.h"

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "cs/bomp.h"
#include "cs/solver.h"
#include "la/vector_ops.h"
#include "obs/telemetry.h"

namespace csod::cs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class ScopedParallelismLimit {
 public:
  explicit ScopedParallelismLimit(size_t limit)
      : previous_(GetParallelismLimit()) {
    SetParallelismLimit(limit);
  }
  ~ScopedParallelismLimit() { SetParallelismLimit(previous_); }

 private:
  size_t previous_;
};

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::SetLevelForTesting(level)) {}
  ~ScopedSimdLevel() { simd::SetLevelForTesting(previous_); }

 private:
  simd::Level previous_;
};

TEST(AmpTest, RejectsBadInputs) {
  MeasurementMatrix matrix(8, 16, 1);
  AmpOptions options;
  EXPECT_FALSE(RunAmp(matrix, {1.0, 2.0}, options).ok());  // Wrong size.

  std::vector<double> y(8, 1.0);
  options.unthresholded_atoms = {16};  // num_atoms == 16 → out of range.
  EXPECT_FALSE(RunAmp(matrix, y, options).ok());
}

TEST(AmpTest, ZeroMeasurementReturnsZero) {
  MeasurementMatrix matrix(8, 16, 1);
  auto result = RunAmp(matrix, std::vector<double>(8, 0.0), AmpOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.Value().iterations, 0u);
  for (double v : result.Value().x) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(result.Value().final_residual_norm, 0.0);
}

TEST(AmpTest, RecoversExactSupport) {
  const size_t n = 256;
  MeasurementMatrix matrix(128, n, 3);
  std::vector<double> x(n, 0.0);
  x[5] = 12.0;
  x[60] = -9.0;
  x[200] = 20.0;
  auto y = matrix.Multiply(x).MoveValue();

  auto result = RunAmp(matrix, y, AmpOptions{});
  ASSERT_TRUE(result.ok());
  const AmpResult& amp = result.Value();
  // The debias pass re-solves least squares on the detected support, so
  // the planted values come back exactly (up to LS conditioning).
  for (size_t j : {size_t{5}, size_t{60}, size_t{200}}) {
    EXPECT_NEAR(amp.x[j], x[j], 1e-6) << "at " << j;
  }
  EXPECT_LT(amp.final_residual_norm, 1e-6 * la::Norm2(y));
}

TEST(AmpTest, SigmaTraceContracts) {
  const size_t n = 512;
  MeasurementMatrix matrix(160, n, 7);
  Rng rng(19);
  std::vector<double> x(n, 0.0);
  std::set<size_t> planted;
  while (planted.size() < 8) planted.insert(rng.NextBounded(n));
  for (size_t p : planted) {
    x[p] = (rng.NextDouble() + 0.5) * 50.0 *
           ((rng.NextU64() & 1) ? 1.0 : -1.0);
  }
  auto y = matrix.Multiply(x).MoveValue();

  auto result = RunAmp(matrix, y, AmpOptions{});
  ASSERT_TRUE(result.ok());
  const std::vector<double>& trace = result.Value().sigma_trace;
  ASSERT_GE(trace.size(), 2u);
  // The state-evolution noise estimate must contract when AMP converges.
  EXPECT_LT(trace.back(), 1e-3 * trace.front());
}

TEST(AmpTest, IterationBudgetCaps) {
  const size_t n = 256;
  MeasurementMatrix matrix(96, n, 11);
  std::vector<double> x(n, 0.0);
  x[17] = 40.0;
  x[99] = -25.0;
  auto y = matrix.Multiply(x).MoveValue();

  AmpOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;  // Never stop early.
  auto result = RunAmp(matrix, y, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.Value().iterations, 3u);
}

TEST(BiasedAmpTest, RecoversUnknownModeData) {
  const size_t n = 256;
  const double b = 5000.0;
  std::vector<double> x(n, b);
  x[10] = 15000.0;
  x[99] = -3000.0;
  x[200] = 11000.0;

  MeasurementMatrix matrix(128, n, 17);
  auto y = matrix.Multiply(x).MoveValue();

  auto result = RunBiasedAmp(matrix, y, AmpOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.Value().bias_selected);
  EXPECT_NEAR(result.Value().mode, b, 1.0);
  std::vector<double> xhat = result.Value().Materialize(n);
  EXPECT_LT(la::DistanceL2(xhat, x) / la::Norm2(x), 1e-4);
}

// Mirrors BiasedCosampTest.AgreesWithBompOnOutlierKeys: the engines must
// agree on which keys are outliers even though their value estimates
// differ in the last ULPs.
TEST(BiasedAmpTest, AgreesWithBompOnOutlierKeys) {
  const size_t n = 400;
  Rng rng(5);
  std::vector<double> x(n, 1800.0);
  std::set<size_t> planted;
  while (planted.size() < 8) planted.insert(rng.NextBounded(n));
  for (size_t p : planted) {
    x[p] = 1800.0 + (rng.NextDouble() + 0.5) * 20000.0 *
                        ((rng.NextU64() & 1) ? 1.0 : -1.0);
  }
  MeasurementMatrix matrix(160, n, 23);
  auto y = matrix.Multiply(x).MoveValue();

  auto amp = RunBiasedAmp(matrix, y, AmpOptions{}).MoveValue();

  BompOptions bomp_options;
  bomp_options.max_iterations = 12;
  auto bomp = RunBomp(matrix, y, bomp_options).MoveValue();

  std::set<size_t> amp_keys;
  for (const auto& e : amp.entries) amp_keys.insert(e.index);
  for (size_t p : planted) {
    EXPECT_TRUE(amp_keys.count(p)) << "AMP missed " << p;
  }
  EXPECT_NEAR(amp.mode, bomp.mode, 1.0);
}

// The determinism contract of DESIGN.md §14: bit-identical recovery at any
// parallelism limit and at the portable SIMD floor vs the native level.
TEST(BiasedAmpTest, BitIdenticalAcrossThreadsAndSimdLevels) {
  const size_t n = 600;
  Rng rng(29);
  std::vector<double> x(n, 3000.0);
  for (size_t i = 0; i < 10; ++i) {
    x[rng.NextBounded(n)] = 3000.0 + (rng.NextDouble() + 0.5) * 25000.0;
  }
  MeasurementMatrix matrix(200, n, 31);
  auto y = matrix.Multiply(x).MoveValue();

  BompResult baseline;
  {
    ScopedParallelismLimit limit(1);
    ScopedSimdLevel level(simd::Level::kPortable);
    baseline = RunBiasedAmp(matrix, y, AmpOptions{}).MoveValue();
  }
  ASSERT_FALSE(baseline.entries.empty());

  for (size_t limit_value : {size_t{1}, size_t{2}, size_t{8}}) {
    for (simd::Level level_value :
         {simd::Level::kPortable, simd::ActiveLevel()}) {
      SCOPED_TRACE("limit " + std::to_string(limit_value) + " level " +
                   std::to_string(static_cast<int>(level_value)));
      ScopedParallelismLimit limit(limit_value);
      ScopedSimdLevel level(level_value);
      auto run = RunBiasedAmp(matrix, y, AmpOptions{}).MoveValue();
      EXPECT_EQ(Bits(run.mode), Bits(baseline.mode));
      ASSERT_EQ(run.entries.size(), baseline.entries.size());
      for (size_t i = 0; i < run.entries.size(); ++i) {
        EXPECT_EQ(run.entries[i].index, baseline.entries[i].index);
        EXPECT_EQ(Bits(run.entries[i].value),
                  Bits(baseline.entries[i].value));
      }
      EXPECT_EQ(run.iterations, baseline.iterations);
      EXPECT_EQ(Bits(run.final_residual_norm),
                Bits(baseline.final_residual_norm));
    }
  }
}

// Attaching a live telemetry sink must not change a single recovered bit,
// and a disabled sink must record nothing (the zero-overhead contract).
TEST(BiasedAmpTest, TelemetryTransparentAndRecords) {
  const size_t n = 300;
  std::vector<double> x(n, 2000.0);
  x[42] = 30000.0;
  x[123] = -9000.0;
  MeasurementMatrix matrix(120, n, 37);
  auto y = matrix.Multiply(x).MoveValue();

  obs::Telemetry live;
  AmpOptions with_options;
  with_options.telemetry = &live;
  auto with = RunBiasedAmp(matrix, y, with_options).MoveValue();
  auto without = RunBiasedAmp(matrix, y, AmpOptions{}).MoveValue();

  EXPECT_EQ(Bits(with.mode), Bits(without.mode));
  ASSERT_EQ(with.entries.size(), without.entries.size());
  for (size_t i = 0; i < with.entries.size(); ++i) {
    EXPECT_EQ(with.entries[i].index, without.entries[i].index);
    EXPECT_EQ(Bits(with.entries[i].value), Bits(without.entries[i].value));
  }

  const std::string snapshot = live.SnapshotJson();
  EXPECT_NE(snapshot.find("amp.recover"), std::string::npos);
  EXPECT_NE(snapshot.find("amp.iterations"), std::string::npos);
  EXPECT_NE(snapshot.find("amp.residual_norm"), std::string::npos);

  obs::Telemetry* disabled = obs::Telemetry::Disabled();
  AmpOptions disabled_options;
  disabled_options.telemetry = disabled;
  auto via_disabled = RunBiasedAmp(matrix, y, disabled_options).MoveValue();
  EXPECT_EQ(Bits(via_disabled.mode), Bits(without.mode));
  EXPECT_EQ(disabled->SnapshotJson(), obs::Telemetry::Disabled()->SnapshotJson());
}

TEST(SolverTest, NamesRoundTrip) {
  for (RecoverySolver solver :
       {RecoverySolver::kOmp, RecoverySolver::kCosamp, RecoverySolver::kAmp}) {
    auto parsed = ParseSolverName(SolverName(solver));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.Value(), solver);
  }
  EXPECT_EQ(ParseSolverName("bomp").Value(), RecoverySolver::kOmp);
  EXPECT_FALSE(ParseSolverName("lasso").ok());
  // FISTA left the dispatch; it survives only as RunBiasedBasisPursuit.
  EXPECT_FALSE(ParseSolverName("fista").ok());
}

TEST(SolverTest, OmpDispatchMatchesRunBompBitwise) {
  const size_t n = 300;
  std::vector<double> x(n, 1500.0);
  x[7] = 21000.0;
  x[250] = -4000.0;
  MeasurementMatrix matrix(110, n, 41);
  auto y = matrix.Multiply(x).MoveValue();

  SolverOptions solve;
  solve.iterations = 10;
  auto via_solver = RecoverBiased(matrix, y, solve).MoveValue();

  BompOptions bomp;
  bomp.max_iterations = 10;
  auto direct = RunBomp(matrix, y, bomp).MoveValue();

  EXPECT_EQ(Bits(via_solver.mode), Bits(direct.mode));
  ASSERT_EQ(via_solver.entries.size(), direct.entries.size());
  for (size_t i = 0; i < direct.entries.size(); ++i) {
    EXPECT_EQ(via_solver.entries[i].index, direct.entries[i].index);
    EXPECT_EQ(Bits(via_solver.entries[i].value),
              Bits(direct.entries[i].value));
  }
}

TEST(SolverTest, EveryEngineFindsThePlantedOutlier) {
  const size_t n = 400;
  std::vector<double> x(n, 2500.0);
  x[111] = 60000.0;
  MeasurementMatrix matrix(140, n, 43);
  auto y = matrix.Multiply(x).MoveValue();

  for (RecoverySolver solver :
       {RecoverySolver::kOmp, RecoverySolver::kCosamp, RecoverySolver::kAmp}) {
    SCOPED_TRACE(SolverName(solver));
    SolverOptions solve;
    solve.solver = solver;
    solve.iterations = 18;
    auto result = RecoverBiased(matrix, y, solve);
    ASSERT_TRUE(result.ok());
    bool found = false;
    for (const auto& e : result.Value().entries) {
      if (e.index == 111) found = true;
    }
    EXPECT_TRUE(found) << "engine missed the planted outlier";
    EXPECT_NEAR(result.Value().mode, 2500.0, 250.0);
  }
}

}  // namespace
}  // namespace csod::cs
