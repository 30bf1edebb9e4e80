// Simulation-harness tests (DESIGN.md §15): Buggify's pure-function
// determinism contract, scenario derivation stability, and end-to-end
// RunScenario reproducibility — the properties scripts/run_simulation.sh
// and the sim_corpus regression target lean on.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/buggify.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace csod::sim {
namespace {

// Collects the fire pattern of `hits` sequential hits of one section.
std::vector<bool> FirePattern(const char* section, size_t hits) {
  std::vector<bool> pattern;
  pattern.reserve(hits);
  for (size_t i = 0; i < hits; ++i) {
    pattern.push_back(CSOD_BUGGIFY(section));
  }
  return pattern;
}

class BuggifyTest : public ::testing::Test {
 protected:
  // Every test leaves the global registry disarmed.
  void TearDown() override { BuggifyDisable(); }
};

TEST_F(BuggifyTest, DisabledSectionsAreInertAndUncounted) {
  BuggifyDisable();
  EXPECT_FALSE(BuggifyEnabled());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(CSOD_BUGGIFY("test.inert"));
    EXPECT_FALSE(CSOD_BUGGIFY_AT("test.inert_at", i));
  }
  EXPECT_EQ(BuggifyFireCount(), 0u);
}

TEST_F(BuggifyTest, SameSeedReplaysTheIdenticalFireSchedule) {
  BuggifyOptions options;
  options.seed = 42;
  options.activation_probability = 1.0;
  options.fire_probability = 0.5;

  BuggifyEnable(options);
  const std::vector<bool> first = FirePattern("test.replay", 200);
  // Re-enabling resets the section ordinals: the schedule must replay
  // bit-identically, not continue where it left off.
  BuggifyEnable(options);
  const std::vector<bool> second = FirePattern("test.replay", 200);
  EXPECT_EQ(first, second);

  // The pattern is non-trivial at fire_probability 0.5 over 200 hits.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 200);
}

TEST_F(BuggifyTest, DifferentSeedsProduceDifferentSchedules) {
  BuggifyOptions options;
  options.activation_probability = 1.0;
  options.fire_probability = 0.5;
  options.seed = 1;
  BuggifyEnable(options);
  const std::vector<bool> a = FirePattern("test.seeds", 200);
  options.seed = 2;
  BuggifyEnable(options);
  const std::vector<bool> b = FirePattern("test.seeds", 200);
  EXPECT_NE(a, b);
}

TEST_F(BuggifyTest, FireAtIsAPureFunctionOfTheOrdinal) {
  BuggifyOptions options;
  options.seed = 7;
  options.activation_probability = 1.0;
  options.fire_probability = 0.5;
  BuggifyEnable(options);

  // Query the same ordinals in two different orders: per-ordinal answers
  // must agree — the decision depends on (seed, section, ordinal) only,
  // never on call order or a hidden counter.
  std::vector<bool> forward(64), backward(64);
  for (size_t i = 0; i < 64; ++i) {
    forward[i] = CSOD_BUGGIFY_AT("test.pure", i);
  }
  for (size_t i = 64; i-- > 0;) {
    backward[i] = CSOD_BUGGIFY_AT("test.pure", i);
  }
  EXPECT_EQ(forward, backward);
}

TEST_F(BuggifyTest, ActivationGatesTheWholeSection) {
  BuggifyOptions options;
  options.seed = 11;
  options.fire_probability = 1.0;
  options.activation_probability = 0.0;
  BuggifyEnable(options);
  // Never activated: no hit may fire even at fire probability 1.
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_FALSE(CSOD_BUGGIFY("test.gated"));
  }
  options.activation_probability = 1.0;
  BuggifyEnable(options);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(CSOD_BUGGIFY("test.gated"));
  }
}

TEST_F(BuggifyTest, ReportCountsHitsAndFiresSinceEnable) {
  BuggifyOptions options;
  options.seed = 3;
  options.activation_probability = 1.0;
  options.fire_probability = 1.0;
  BuggifyEnable(options);
  for (size_t i = 0; i < 10; ++i) CSOD_BUGGIFY("test.report");
  bool found = false;
  for (const BuggifySectionReport& section : BuggifyReport()) {
    if (section.name != "test.report") continue;
    found = true;
    EXPECT_TRUE(section.activated);
    EXPECT_EQ(section.hits, 10u);
    EXPECT_EQ(section.fires, 10u);
  }
  EXPECT_TRUE(found);
  // Re-enabling resets the counts.
  BuggifyEnable(options);
  for (const BuggifySectionReport& section : BuggifyReport()) {
    if (section.name == "test.report") {
      EXPECT_EQ(section.hits, 0u);
      EXPECT_EQ(section.fires, 0u);
    }
  }
}

TEST(ScenarioTest, DerivationIsAPureFunctionOfTheSeed) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const Scenario a = ScenarioFromSeed(seed);
    const Scenario b = ScenarioFromSeed(seed);
    EXPECT_EQ(ScenarioToString(a), ScenarioToString(b)) << seed;
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(ScenarioTest, SeedsCoverEveryScenarioKind) {
  // 256 consecutive seeds must hit all six kinds — the weighted table
  // cannot silently starve a protocol of coverage.
  std::vector<bool> seen(static_cast<size_t>(ScenarioKind::kServe) + 1, false);
  ASSERT_EQ(seen.size(), 6u);
  for (uint64_t seed = 1; seed <= 256; ++seed) {
    seen[static_cast<size_t>(ScenarioFromSeed(seed).kind)] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "kind " << i << " never generated";
  }
}

TEST(ScenarioTest, BoundsHoldAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = ScenarioFromSeed(seed);
    EXPECT_GE(s.n, 384u);
    EXPECT_GT(s.num_nodes, 1u);
    EXPECT_GT(s.k, 0u);
    EXPECT_TRUE(s.thread_limit == 1 || s.thread_limit == 2 ||
                s.thread_limit == 8)
        << s.thread_limit;
    if (s.buggify) {
      EXPECT_GT(s.buggify_options.activation_probability, 0.0);
      EXPECT_GT(s.buggify_options.fire_probability, 0.0);
    }
  }
}

// End-to-end determinism: the full scenario outcome (digest + violations)
// replays bit-identically. RunScenario itself re-executes at a second
// parallelism limit internally, so one passing call already certifies
// thread-limit independence; the outer double-run certifies replay.
TEST(RunScenarioTest, OutcomeReplaysBitIdentically) {
  // One cheap seed per family keeps this inside tier-1 time budgets; the
  // 200-scenario sweep lives in scripts/run_simulation.sh.
  for (const uint64_t seed : {2ull, 5ull, 19ull, 29ull, 33ull}) {
    const ScenarioOutcome first = RunScenario(ScenarioFromSeed(seed));
    const ScenarioOutcome second = RunScenario(ScenarioFromSeed(seed));
    EXPECT_EQ(first.digest, second.digest) << "seed " << seed;
    EXPECT_EQ(first.violations, second.violations) << "seed " << seed;
    EXPECT_TRUE(first.ok()) << "seed " << seed << ": "
                            << (first.violations.empty()
                                    ? ""
                                    : first.violations.front());
  }
}

TEST(RunScenarioTest, ReplaySeedMatchesTheSweepOutcome) {
  std::string line;
  const ScenarioOutcome replayed = ReplaySeed(17, &line);
  const ScenarioOutcome direct = RunScenario(ScenarioFromSeed(17));
  EXPECT_EQ(replayed.digest, direct.digest);
  EXPECT_EQ(line, ScenarioToString(ScenarioFromSeed(17)));
}

}  // namespace
}  // namespace csod::sim
