#include "cs/omp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "cs/measurement_matrix.h"
#include "la/vector_ops.h"

namespace csod::cs {
namespace {

// Builds an s-sparse vector with given support values.
std::vector<double> SparseVector(size_t n, const std::vector<size_t>& support,
                                 const std::vector<double>& values) {
  std::vector<double> x(n, 0.0);
  for (size_t i = 0; i < support.size(); ++i) x[support[i]] = values[i];
  return x;
}

TEST(OmpTest, RejectsBadInputs) {
  MeasurementMatrix matrix(8, 16, 1);
  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 4;
  EXPECT_FALSE(RunOmp(dict, {1, 2, 3}, options).ok());  // wrong y size
  options.max_iterations = 0;
  std::vector<double> y(8, 1.0);
  EXPECT_FALSE(RunOmp(dict, y, options).ok());
}

TEST(OmpTest, RefusesNonFiniteMeasurement) {
  MeasurementMatrix matrix(8, 16, 1);
  const MatrixDictionary plain(&matrix);
  const ExtendedDictionary extended(&matrix);
  OmpOptions options;
  options.max_iterations = 4;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> y(8, 1.0);
    y[5] = bad;
    for (const Dictionary* dict :
         std::vector<const Dictionary*>{&plain, &extended}) {
      const auto result = RunOmp(*dict, y, options);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find("y[5]"), std::string::npos)
          << result.status().message();
    }
  }
}

TEST(OmpTest, ZeroMeasurementReturnsEmpty) {
  MeasurementMatrix matrix(8, 16, 1);
  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 4;
  auto result = RunOmp(dict, std::vector<double>(8, 0.0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.Value().selected.empty());
  EXPECT_EQ(result.Value().iterations, 0u);
}

TEST(OmpTest, RecoversOneSparseExactly) {
  const size_t n = 64;
  MeasurementMatrix matrix(16, n, 7);
  std::vector<double> x = SparseVector(n, {13}, {42.0});
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 4;
  auto result = RunOmp(dict, y.Value(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.Value().selected.size(), 1u);
  EXPECT_EQ(result.Value().selected[0], 13u);
  EXPECT_NEAR(result.Value().coefficients[0], 42.0, 1e-8);
  EXPECT_LT(result.Value().final_residual_norm, 1e-6);
}

TEST(OmpTest, ResidualNormsNonIncreasing) {
  const size_t n = 128;
  MeasurementMatrix matrix(40, n, 3);
  Rng rng(5);
  std::vector<double> x(n, 0.0);
  for (int i = 0; i < 10; ++i) {
    x[rng.NextBounded(n)] = rng.NextGaussian() * 10.0;
  }
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 20;
  options.stop_on_residual_stagnation = false;
  auto result = RunOmp(dict, y.Value(), options);
  ASSERT_TRUE(result.ok());
  const auto& norms = result.Value().residual_norms;
  for (size_t i = 1; i < norms.size(); ++i) {
    EXPECT_LE(norms[i], norms[i - 1] + 1e-9);
  }
}

TEST(OmpTest, HonorsIterationBudget) {
  const size_t n = 100;
  MeasurementMatrix matrix(30, n, 9);
  Rng rng(2);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextGaussian();  // Dense: never converges.
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 5;
  options.stop_on_residual_stagnation = false;
  auto result = RunOmp(dict, y.Value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.Value().iterations, 5u);
  EXPECT_LE(result.Value().selected.size(), 5u);
}

TEST(OmpTest, CallbackObservesEveryIteration) {
  const size_t n = 64;
  MeasurementMatrix matrix(24, n, 17);
  std::vector<double> x = SparseVector(n, {1, 2, 3}, {5.0, -4.0, 3.0});
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 10;
  options.solve_coefficients_each_iteration = true;
  size_t calls = 0;
  options.iteration_callback = [&](const OmpIterationInfo& info) {
    ++calls;
    EXPECT_EQ(info.iteration, calls);
    ASSERT_NE(info.selected, nullptr);
    ASSERT_NE(info.coefficients, nullptr);
    EXPECT_EQ(info.selected->size(), calls);
    EXPECT_EQ(info.coefficients->size(), calls);
  };
  auto result = RunOmp(dict, y.Value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, result.Value().iterations);
}

TEST(OmpTest, NeverSelectsSameAtomTwice) {
  const size_t n = 50;
  MeasurementMatrix matrix(20, n, 23);
  Rng rng(4);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextGaussian();
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 20;
  options.stop_on_residual_stagnation = false;
  auto result = RunOmp(dict, y.Value(), options);
  ASSERT_TRUE(result.ok());
  std::set<size_t> unique(result.Value().selected.begin(),
                          result.Value().selected.end());
  EXPECT_EQ(unique.size(), result.Value().selected.size());
}

// A pathological dictionary whose atoms are all identical: after the first
// selection every remaining atom is linearly dependent, so OMP must stop
// via the Section-5 stagnation rule instead of looping.
class ConstantDictionary final : public Dictionary {
 public:
  ConstantDictionary(size_t num_atoms, size_t m)
      : num_atoms_(num_atoms), atom_(m, 1.0) {}
  size_t num_atoms() const override { return num_atoms_; }
  size_t atom_length() const override { return atom_.size(); }
  void FillAtom(size_t, double* out) const override {
    for (size_t i = 0; i < atom_.size(); ++i) out[i] = atom_[i];
  }
  Result<std::vector<CorrelateArgmaxResult>> CorrelateTop(
      const std::vector<double>& r, const std::vector<bool>& selected_mask,
      size_t count) const override {
    double acc = 0.0;
    for (double v : r) acc += v;
    std::vector<CorrelateArgmaxResult> top;
    for (size_t j = 0; j < num_atoms_; ++j) {
      if (selected_mask[j]) continue;
      FoldTop(CorrelateArgmaxResult{j, acc, std::fabs(acc)}, count, &top);
    }
    return top;
  }

 private:
  size_t num_atoms_;
  std::vector<double> atom_;
};

TEST(OmpTest, TerminatesOnDegenerateDictionary) {
  ConstantDictionary dict(10, 4);
  std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  OmpOptions options;
  options.max_iterations = 8;
  auto result = RunOmp(dict, y, options);
  ASSERT_TRUE(result.ok());
  // One useful atom; afterwards every remaining atom lies in the selected
  // span, its correlation with the residual is zero, and the loop must
  // terminate instead of spinning (far below the iteration budget).
  EXPECT_EQ(result.Value().selected.size(), 1u);
  EXPECT_EQ(result.Value().iterations, 1u);
  EXPECT_GT(result.Value().final_residual_norm, 0.0);
}

TEST(OmpTest, NoisyMeasurementTerminatesCleanly) {
  // With additive noise, exact recovery is impossible; OMP must still
  // terminate within the budget and return the two dominant atoms first.
  // Which of them leads depends on the draw of Φ0 (|100·‖φ_11‖²| against
  // |80·‖φ_77‖²| at M = 40), so the first pick is pinned to OMP's own rule:
  // the atom of largest |⟨φ_j, y⟩|.
  const size_t n = 120;
  MeasurementMatrix matrix(40, n, 29);
  std::vector<double> x(n, 0.0);
  x[11] = 100.0;
  x[77] = -80.0;
  auto y = matrix.Multiply(x).MoveValue();
  Rng noise_rng(5);
  for (double& v : y) v += noise_rng.NextGaussian() * 0.5;

  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 30;
  auto result = RunOmp(dict, y, options);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.Value().selected.size(), 2u);
  const std::vector<size_t> first_two = {
      std::min(result.Value().selected[0], result.Value().selected[1]),
      std::max(result.Value().selected[0], result.Value().selected[1])};
  EXPECT_EQ(first_two, (std::vector<size_t>{11u, 77u}));
  const std::vector<double> correlations = matrix.CorrelateAll(y).MoveValue();
  size_t strongest = 0;
  for (size_t j = 1; j < n; ++j) {
    if (std::fabs(correlations[j]) > std::fabs(correlations[strongest])) {
      strongest = j;
    }
  }
  EXPECT_EQ(result.Value().selected[0], strongest);
  EXPECT_LE(result.Value().iterations, 30u);
}

// Forwards to another dictionary and counts its correlate passes, so an
// iteration callback can tell which pass selected each atom. `solo_bias`
// false hides the inner dictionary's bias atom from the OMP loop.
class PassCountingDictionary final : public Dictionary {
 public:
  explicit PassCountingDictionary(const Dictionary* inner,
                                  bool solo_bias = true)
      : inner_(inner), solo_bias_(solo_bias) {}

  size_t num_atoms() const override { return inner_->num_atoms(); }
  size_t atom_length() const override { return inner_->atom_length(); }
  void FillAtom(size_t j, double* out) const override {
    inner_->FillAtom(j, out);
  }
  Result<std::vector<CorrelateArgmaxResult>> CorrelateTop(
      const std::vector<double>& r, const std::vector<bool>& selected_mask,
      size_t count) const override {
    ++passes;
    return inner_->CorrelateTop(r, selected_mask, count);
  }
  bool IsBiasAtom(size_t j) const override {
    return solo_bias_ && inner_->IsBiasAtom(j);
  }

  mutable size_t passes = 0;

 private:
  const Dictionary* inner_;
  bool solo_bias_;
};

// Runs OMP over `dict` and returns the 1-based pass that selected each atom,
// in selection order; the run's result goes to `result`.
std::vector<size_t> PassOfEachAtom(const Dictionary& dict,
                                   const std::vector<double>& y,
                                   OmpOptions options, OmpResult* result,
                                   bool solo_bias = true) {
  PassCountingDictionary counting(&dict, solo_bias);
  std::vector<size_t> pass_of;
  options.iteration_callback = [&](const OmpIterationInfo&) {
    pass_of.push_back(counting.passes);
  };
  *result = RunOmp(counting, y, options).MoveValue();
  EXPECT_EQ(result->passes, counting.passes);
  return pass_of;
}

// Generalized OMP selects two atoms per pass, appended one at a time; an
// odd budget R ends on a pass that takes one atom, ⌈R/2⌉ passes in all.
TEST(OmpTest, TwoAtomsPerPassAndOneOnTheLastPassOfAnOddBudget) {
  const size_t n = 100;
  MeasurementMatrix matrix(30, n, 9);
  Rng rng(2);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextGaussian();  // Dense: never converges.
  const std::vector<double> y = matrix.Multiply(x).MoveValue();
  MatrixDictionary dict(&matrix);
  for (const size_t budget : {size_t{6}, size_t{5}}) {
    OmpOptions options;
    options.max_iterations = budget;
    options.stop_on_residual_stagnation = false;
    OmpResult result;
    const std::vector<size_t> pass_of =
        PassOfEachAtom(dict, y, options, &result);
    std::vector<size_t> want = {1, 1, 2, 2, 3, 3};
    want.resize(budget);
    EXPECT_EQ(pass_of, want) << "R = " << budget;
    EXPECT_EQ(result.iterations, budget);
    EXPECT_EQ(result.passes, 3u);
  }
}

// BOMP's bias atom leads the first pass on data with a large mode, and
// that pass appends it alone: the runner-up waits for the next pass's
// correlations. Without the rule the runner-up joins the first pass.
TEST(OmpTest, BiasAtomIsPickedAlone) {
  const size_t n = 256;
  std::vector<double> x(n, 5000.0);
  x[10] = 9000.0;
  x[100] = -2000.0;
  x[200] = 12000.0;
  MeasurementMatrix matrix(96, n, 5);
  const std::vector<double> y = matrix.Multiply(x).MoveValue();
  ExtendedDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 10;

  OmpResult result;
  const std::vector<size_t> pass_of = PassOfEachAtom(dict, y, options, &result);
  ASSERT_EQ(result.selected.size(), 4u);  // The bias and the 3 outliers.
  EXPECT_EQ(result.selected[0], 0u);
  EXPECT_EQ(pass_of, (std::vector<size_t>{1, 2, 2, 3}));
  EXPECT_EQ(result.passes, 3u);
  EXPECT_EQ((std::set<size_t>(result.selected.begin() + 1,
                              result.selected.end())),
            (std::set<size_t>{11, 101, 201}));

  OmpResult paired;
  const std::vector<size_t> paired_pass_of =
      PassOfEachAtom(dict, y, options, &paired, /*solo_bias=*/false);
  ASSERT_GE(paired_pass_of.size(), 2u);
  EXPECT_EQ(paired.selected[0], 0u);
  EXPECT_EQ(paired_pass_of[1], 1u);
}

// The stopping rules run after every appended atom, not once per pass: an
// exactly 3-sparse signal stops on the third atom, the first of pass 2,
// and never takes that pass's runner-up.
TEST(OmpTest, ExactlySparseSignalTakesNoSpuriousAtom) {
  const size_t n = 128;
  MeasurementMatrix matrix(40, n, 3);
  const std::vector<double> x =
      SparseVector(n, {7, 50, 99}, {30.0, -20.0, 12.0});
  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = 10;
  OmpResult result;
  const std::vector<size_t> pass_of =
      PassOfEachAtom(dict, matrix.Multiply(x).MoveValue(), options, &result);
  EXPECT_EQ(pass_of, (std::vector<size_t>{1, 1, 2}));
  EXPECT_EQ(result.iterations, 3u);
  EXPECT_EQ((std::set<size_t>(result.selected.begin(), result.selected.end())),
            (std::set<size_t>{7, 50, 99}));
  EXPECT_FALSE(result.stopped_by_stagnation);
  EXPECT_LE(result.final_residual_norm,
            kResidualTolerance * la::Norm2(matrix.Multiply(x).MoveValue()));
}

// Property sweep: exact recovery of s-sparse vectors when M is generous
// (M = 4 s log N — comfortably above the Theorem 1 scaling).
class OmpRecoveryTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(OmpRecoveryTest, ExactRecoveryWithGenerousM) {
  const auto [n, s, seed] = GetParam();
  const size_t m = std::min<size_t>(
      n, static_cast<size_t>(4.0 * s * std::log(static_cast<double>(n))) + 8);
  MeasurementMatrix matrix(m, n, seed);
  Rng rng(seed * 31 + 1);
  std::vector<size_t> support;
  std::set<size_t> used;
  while (support.size() < s) {
    const size_t idx = rng.NextBounded(n);
    if (used.insert(idx).second) support.push_back(idx);
  }
  std::vector<double> x(n, 0.0);
  for (size_t idx : support) {
    x[idx] = (rng.NextDouble() + 0.5) * ((rng.NextU64() & 1) ? 1.0 : -1.0) *
             100.0;
  }
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());

  MatrixDictionary dict(&matrix);
  OmpOptions options;
  options.max_iterations = s + 2;
  auto result = RunOmp(dict, y.Value(), options);
  ASSERT_TRUE(result.ok());

  // Recovered support must equal the planted support, values must match.
  std::set<size_t> planted(support.begin(), support.end());
  std::set<size_t> recovered(result.Value().selected.begin(),
                             result.Value().selected.end());
  EXPECT_EQ(planted, recovered);
  for (size_t i = 0; i < result.Value().selected.size(); ++i) {
    EXPECT_NEAR(result.Value().coefficients[i],
                x[result.Value().selected[i]], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OmpRecoveryTest,
    ::testing::Values(std::make_tuple(100, 2, 1), std::make_tuple(100, 5, 2),
                      std::make_tuple(256, 8, 3), std::make_tuple(256, 16, 4),
                      std::make_tuple(512, 10, 5),
                      std::make_tuple(1000, 20, 6)));

}  // namespace
}  // namespace csod::cs
