// Unit + property tests for util: RNG determinism and distribution moments,
// streaming stats, histograms, time-weighted averages, fixed-point weights.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/weight.hpp"

namespace klb::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedBounds) {
  Rng rng(3);
  std::array<int, 5> counts{};
  for (int i = 0; i < 50'000; ++i) counts[rng.uniform_int(std::uint64_t{5})]++;
  for (const int c : counts) EXPECT_NEAR(c, 10'000, 500);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Welford w;
  for (int i = 0; i < 200'000; ++i) w.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(w.mean(), 10.0, 0.05);
  EXPECT_NEAR(w.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMeanCov) {
  Rng rng(17);
  Welford w;
  for (int i = 0; i < 300'000; ++i) w.add(rng.lognormal_mean_cov(3.0, 0.15));
  EXPECT_NEAR(w.mean(), 3.0, 0.02);
  EXPECT_NEAR(w.stddev() / w.mean(), 0.15, 0.01);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(19);
  const std::vector<double> weights{1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  const int n = 100'000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(weights)]++;
  EXPECT_NEAR(counts[0], n * 0.1, n * 0.01);
  EXPECT_NEAR(counts[1], n * 0.2, n * 0.015);
  EXPECT_NEAR(counts[2], n * 0.7, n * 0.015);
}

TEST(Rng, WeightedIndexAllZeroReturnsSize) {
  Rng rng(23);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(weights), weights.size());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream should not replicate the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Welford, BasicMoments) {
  Welford w;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(w.min(), 2.0);
  EXPECT_EQ(w.max(), 9.0);
  EXPECT_EQ(w.count(), 8u);
}

TEST(Welford, MergeMatchesSequential) {
  Rng rng(29);
  Welford all;
  Welford a;
  Welford b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.variance(), 0.0);
}

TEST(LogHistogram, PercentileAccuracy) {
  LogHistogram h(1e-5, 1e2, 100);
  Rng rng(31);
  std::vector<double> values;
  for (int i = 0; i < 100'000; ++i) {
    const double v = rng.exponential(0.010);  // 10 ms mean, in seconds
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {0.5, 0.9, 0.99}) {
    const double exact = values[static_cast<std::size_t>(p * values.size())];
    EXPECT_NEAR(h.percentile(p) / exact, 1.0, 0.05) << "p=" << p;
  }
}

TEST(LogHistogram, MeanMatches) {
  LogHistogram h;
  h.add(0.001);
  h.add(0.003);
  EXPECT_NEAR(h.mean(), 0.002, 1e-12);
}

TEST(LogHistogram, ClampsOutOfRange) {
  LogHistogram h(1e-3, 1.0, 10);
  h.add(1e-9);
  h.add(50.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.percentile(0.99), 0.0);
}

// Regression (ISSUE 2): when the cumulative count crossed the rank without
// a matching non-empty bucket (e.g. counts undercount total_ after merging
// a histogram with a wider range), percentile() fell through to the *last*
// bucket of the whole range, inflating reported tails. It must resolve to
// the last non-empty bucket at or before the crossing instead.
TEST(LogHistogram, PercentileNotInflatedWhenCountsUndercountTotal) {
  LogHistogram narrow(1e-3, 1.0, 10);
  narrow.add(0.01);
  LogHistogram wide(1e-3, 1e6, 10);
  wide.add(1e5);  // lands in a bucket beyond narrow's range
  narrow.merge(wide);  // total_ = 2 but only one sample is in counts

  // P99 must report the only observable sample (~0.01), not the top of
  // narrow's range (~1.0).
  EXPECT_NEAR(narrow.percentile(0.99), 0.01, 0.005);
}

TEST(LogHistogram, AllPercentilesOfSingleValueAgree) {
  LogHistogram h;
  h.add(0.05);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.percentile(1.0));
  EXPECT_NEAR(h.percentile(0.5), 0.05, 0.005);
}

TEST(TimeWeighted, StepFunctionAverage) {
  TimeWeighted tw;
  tw.set(0.0, 0.0);
  tw.set(1.0, 2.0);   // value 0 during [0,1)
  tw.set(3.0, 4.0);   // value 2 during [1,3)
  // value 4 during [3,5): average = (0*1 + 2*2 + 4*2) / 5 = 2.4
  EXPECT_NEAR(tw.average(5.0), 2.4, 1e-12);
  EXPECT_EQ(tw.current(), 4.0);
}

TEST(TimeWeighted, WindowReset) {
  TimeWeighted tw;
  tw.set(0.0, 10.0);
  tw.set(5.0, 2.0);
  tw.reset_window(5.0);
  EXPECT_NEAR(tw.average(10.0), 2.0, 1e-12);
}

// Regression (ISSUE 2): a transition with a timestamp before the previous
// one accumulated negative area. The value update is kept; the backwards
// time step contributes nothing and the clock never rewinds.
TEST(TimeWeighted, NonMonotonicTimeAddsNoNegativeArea) {
  TimeWeighted tw;
  tw.set(0.0, 5.0);
  tw.set(10.0, 1.0);
  tw.set(8.0, 3.0);  // skewed feeder: time went backwards
  // [0,10) at 5 = 50, backwards step ignored (value becomes 3), [10,12)
  // at 3 = 6 -> average 56 / 12.
  EXPECT_NEAR(tw.average(12.0), 56.0 / 12.0, 1e-12);
  EXPECT_EQ(tw.current(), 3.0);
}

TEST(SimTime, ArithmeticAndComparison) {
  using namespace literals;
  EXPECT_EQ((5_ms).us(), 5000);
  EXPECT_EQ((2_s).ms(), 2000.0);
  EXPECT_LT(1_ms, 1_s);
  EXPECT_EQ(1_s + 500_ms, SimTime::millis(1500));
  EXPECT_EQ((1_s) * 0.25, SimTime::millis(250));
}

TEST(Weights, RoundTripUnits) {
  EXPECT_EQ(weight_to_units(0.5), kWeightScale / 2);
  EXPECT_DOUBLE_EQ(units_to_weight(kWeightScale), 1.0);
  EXPECT_EQ(weight_to_units(-0.1), 0);
  EXPECT_EQ(weight_to_units(1.5), kWeightScale);
}

TEST(Weights, NormalizeSumsExactly) {
  const std::vector<double> raw{0.1, 0.2, 0.3, 0.15, 0.25};
  const auto units = normalize_to_units(raw);
  EXPECT_EQ(std::accumulate(units.begin(), units.end(), std::int64_t{0}),
            kWeightScale);
}

TEST(Weights, NormalizeProportions) {
  const std::vector<double> raw{1.0, 3.0};
  const auto units = normalize_to_units(raw);
  EXPECT_EQ(units[0], kWeightScale / 4);
  EXPECT_EQ(units[1], 3 * kWeightScale / 4);
}

TEST(Weights, AllZeroFallsBackToEqualSplit) {
  const auto units = normalize_to_units({0.0, 0.0, 0.0});
  EXPECT_EQ(std::accumulate(units.begin(), units.end(), std::int64_t{0}),
            kWeightScale);
  for (const auto u : units) EXPECT_NEAR(u, kWeightScale / 3, 1);
}

TEST(Weights, EmptyInput) {
  EXPECT_TRUE(normalize_to_units({}).empty());
}

class NormalizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalizePropertyTest, RandomVectorsAlwaysSumToScale) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{200}));
  std::vector<double> raw;
  raw.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) raw.push_back(rng.uniform(0.0, 10.0));
  const auto units = normalize_to_units(raw);
  EXPECT_EQ(std::accumulate(units.begin(), units.end(), std::int64_t{0}),
            kWeightScale);
  for (const auto u : units) EXPECT_GE(u, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizePropertyTest,
                         ::testing::Range(0, 25));

/// argv for Flags from string literals (argv[0] is the program name).
std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(Flags, ParsesBothFormsAndSwitches) {
  std::vector<std::string> args{"prog", "pos", "--seed=7", "--vips", "100",
                                "--verbose"};
  auto argv = argv_of(args);
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.get_int("seed", 0), 7);
  EXPECT_EQ(flags.get_int("vips", 0), 100);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"pos"});
  EXPECT_TRUE(flags.unused().empty());
  flags.exit_on_unknown();  // every flag was queried: returns
}

// A mistyped flag must fail the run, not silently run the default mode.
TEST(FlagsDeathTest, UnknownFlagExitsTwoAndNamesIt) {
  std::vector<std::string> args{"prog", "--seed", "3", "--seeed=4"};
  auto argv = argv_of(args);
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.get_int("seed", 0), 3);
  EXPECT_EQ(flags.unused(), std::vector<std::string>{"seeed"});
  EXPECT_EXIT(flags.exit_on_unknown(), ::testing::ExitedWithCode(2),
              "unknown flag --seeed");
}

}  // namespace
}  // namespace klb::util
