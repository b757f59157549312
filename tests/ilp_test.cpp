// ILP branch & bound + MCKP DP tests: known-answer knapsacks, timeout
// behaviour, infeasibility, and the key cross-validation properties — on
// random MCKP instances the generic B&B and the specialized DP must agree,
// and the banded DP must return exactly what the full-width DP returns.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "ilp/mckp.hpp"
#include "ilp/model.hpp"
#include "util/rng.hpp"
#include "util/weight.hpp"

namespace klb::ilp {
namespace {

TEST(Ilp, SolvesTinyBinaryKnapsack) {
  // max 6a + 10b + 12c st a + 2b + 3c <= 5  (classic: b + c = 22)
  Model m;
  const int a = m.add_var(VarType::kBinary, -6.0);
  const int b = m.add_var(VarType::kBinary, -10.0);
  const int c = m.add_var(VarType::kBinary, -12.0);
  m.add_constraint({{a, 1.0}, {b, 2.0}, {c, 3.0}}, lp::Relation::kLe, 5.0);
  const auto r = solve(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -22.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(a)], 0.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(c)], 1.0, 1e-6);
}

TEST(Ilp, IntegralityMatters) {
  // LP relaxation would take half an item; ILP must not.
  Model m;
  const int a = m.add_var(VarType::kBinary, -10.0);
  const int b = m.add_var(VarType::kBinary, -6.0);
  m.add_constraint({{a, 2.0}, {b, 1.0}}, lp::Relation::kLe, 2.0);
  const auto r = solve(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -10.0, 1e-6);  // take a alone (LP would mix)
}

TEST(Ilp, InfeasibleDetected) {
  Model m;
  const int a = m.add_var(VarType::kBinary, 1.0);
  m.add_constraint({{a, 1.0}}, lp::Relation::kGe, 2.0);  // binary can't be 2
  EXPECT_EQ(solve(m).status, IlpStatus::kInfeasible);
}

TEST(Ilp, ContinuousVariablesMix) {
  // One binary gate y, one continuous x <= 10: min -x - 5y st x <= 10y.
  Model m;
  const int x = m.add_var(VarType::kContinuous, -1.0, 10.0);
  const int y = m.add_var(VarType::kBinary, -5.0);
  m.add_constraint({{x, 1.0}, {y, -10.0}}, lp::Relation::kLe, 0.0);
  const auto r = solve(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -15.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 10.0, 1e-6);
}

TEST(Ilp, TimeLimitReturnsTimeoutStatus) {
  // A deliberately painful subset-sum-like instance with a 1 ms budget.
  util::Rng rng(4242);
  Model m;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 40; ++i) {
    const int v = m.add_var(VarType::kBinary, rng.uniform(-2.0, -1.0));
    terms.emplace_back(v, rng.uniform(0.9, 1.1));
  }
  m.add_constraint(terms, lp::Relation::kLe, 17.137);
  IlpOptions opt;
  opt.time_limit = std::chrono::milliseconds(1);
  const auto r = solve(m, opt);
  EXPECT_TRUE(r.status == IlpStatus::kFeasibleTimeout ||
              r.status == IlpStatus::kTimeout ||
              r.status == IlpStatus::kOptimal);  // fast machines may finish
}

TEST(Mckp, PicksObviousBest) {
  // Two groups; only one combination sums to 10.
  std::vector<MckpGroup> groups(2);
  groups[0].items = {{4, 9.0}, {6, 1.0}};
  groups[1].items = {{4, 2.0}, {6, 8.0}};
  const auto r = solve_mckp(groups, 10, 0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.choice[0], 1);  // 6 units, cost 1
  EXPECT_EQ(r.choice[1], 0);  // 4 units, cost 2
  EXPECT_NEAR(r.cost, 3.0, 1e-12);
  EXPECT_EQ(r.total_units, 10);
}

TEST(Mckp, SlackWindowAllowsUndershoot) {
  std::vector<MckpGroup> groups(1);
  groups[0].items = {{7, 1.0}, {12, 0.5}};
  // Exact 10 impossible; slack 3 admits the 7-unit item.
  const auto exact = solve_mckp(groups, 10, 0);
  EXPECT_FALSE(exact.feasible);
  const auto slack = solve_mckp(groups, 10, 3);
  ASSERT_TRUE(slack.feasible);
  EXPECT_EQ(slack.choice[0], 0);
}

TEST(Mckp, PrefersLargerSumOnCostTies) {
  std::vector<MckpGroup> groups(1);
  groups[0].items = {{8, 1.0}, {10, 1.0}};
  const auto r = solve_mckp(groups, 10, 5);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.total_units, 10);
}

TEST(Mckp, EmptyGroupInfeasible) {
  std::vector<MckpGroup> groups(2);
  groups[0].items = {{5, 1.0}};
  const auto r = solve_mckp(groups, 10, 10);
  EXPECT_FALSE(r.feasible);
}

TEST(Mckp, ZeroWeightItemsAllowed) {
  std::vector<MckpGroup> groups(2);
  groups[0].items = {{0, 0.5}, {10, 3.0}};
  groups[1].items = {{10, 1.0}};
  const auto r = solve_mckp(groups, 10, 0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.choice[0], 0);
  EXPECT_NEAR(r.cost, 1.5, 1e-12);
}

TEST(Mckp, ManyItemsInOneGroup) {
  // Choice ids are plain ints: a group may hold more than 65,535 items.
  // One group's answer is its cheapest item in the window, the lowest
  // index on a tie.
  util::Rng rng(4'243);
  std::vector<MckpGroup> groups(1);
  for (int i = 0; i < 70'000; ++i)
    groups[0].items.push_back(
        MckpItem{rng.uniform_int(0, 150), rng.uniform(1.0, 2.0)});
  for (const std::size_t i : {66'000u, 68'000u, 69'999u})
    groups[0].items[i] = MckpItem{90, 0.5};
  groups[0].items[67'000] = MckpItem{120, 0.1};  // above the window
  groups[0].items[67'500] = MckpItem{50, 0.1};   // below the window
  const auto r = solve_mckp(groups, 100, 20);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.choice.size(), 1u);
  EXPECT_EQ(r.choice[0], 66'000);
  EXPECT_EQ(r.total_units, 90);
  EXPECT_EQ(r.cost, 0.5);
}

/// Builds the Fig. 7 ILP for an MCKP instance (theta = infinity) — shared
/// by the agreement property test below.
IlpResult solve_via_bnb(const std::vector<MckpGroup>& groups,
                        std::int64_t total, std::int64_t slack) {
  Model m;
  m.set_binary_bounds_implied(true);
  std::vector<std::vector<int>> vars(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<std::pair<int, double>> group_row;
    for (const auto& item : groups[g].items) {
      const int v = m.add_var(VarType::kBinary, item.cost);
      vars[g].push_back(v);
      group_row.emplace_back(v, 1.0);
    }
    m.add_constraint(group_row, lp::Relation::kEq, 1.0);
  }
  std::vector<std::pair<int, double>> weight_row;
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t i = 0; i < groups[g].items.size(); ++i)
      weight_row.emplace_back(vars[g][i],
                              static_cast<double>(groups[g].items[i].weight_units));
  m.add_constraint(weight_row, lp::Relation::kLe, static_cast<double>(total));
  m.add_constraint(weight_row, lp::Relation::kGe,
                   static_cast<double>(total - slack));
  return solve(m);
}

class MckpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MckpAgreement, BnbAndDpAgreeOnRandomInstances) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7321 + 11);
  const int num_groups = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{5}));
  const std::int64_t total = 100;
  std::vector<MckpGroup> groups(static_cast<std::size_t>(num_groups));
  for (auto& g : groups) {
    const int items = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{4}));
    for (int i = 0; i < items; ++i) {
      g.items.push_back(MckpItem{
          static_cast<std::int64_t>(rng.uniform_int(std::int64_t{0},
                                                    total / num_groups + 20)),
          rng.uniform(0.1, 20.0)});
    }
  }
  const std::int64_t slack = 5;
  const auto dp = solve_mckp(groups, total, slack);
  const auto bnb = solve_via_bnb(groups, total, slack);

  ASSERT_EQ(dp.feasible, bnb.status == IlpStatus::kOptimal)
      << "feasibility disagreement";
  if (dp.feasible) {
    EXPECT_NEAR(dp.cost, bnb.objective, 1e-6)
        << "optimal objectives disagree";
    // The DP's reported choice must actually satisfy the window + cost.
    std::int64_t sum = 0;
    double cost = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& it = groups[g].items[static_cast<std::size_t>(dp.choice[g])];
      sum += it.weight_units;
      cost += it.cost;
    }
    EXPECT_EQ(sum, dp.total_units);
    EXPECT_GE(sum, total - slack);
    EXPECT_LE(sum, total);
    EXPECT_NEAR(cost, dp.cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpAgreement, ::testing::Range(0, 40));

// --- Banded DP == full-width DP ----------------------------------------------

/// The full-width DP, kept as the reference for solve_mckp's banded one:
/// every sum in [0, total] for every group, items in order with strict <,
/// the window scanned from the top with a 1e-12 tie margin.
MckpResult full_width_mckp(const std::vector<MckpGroup>& groups,
                           std::int64_t total_units, std::int64_t slack_units) {
  MckpResult result;
  if (groups.empty() || total_units < 0) return result;
  for (const auto& g : groups)
    if (g.items.empty() || g.items.size() > 65'535) return result;
  const auto capacity = static_cast<std::size_t>(total_units) + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> prev(capacity, kInf), cur(capacity, kInf);
  std::vector<std::vector<std::uint16_t>> parent(
      groups.size(), std::vector<std::uint16_t>(capacity, 0xffff));
  prev[0] = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::fill(cur.begin(), cur.end(), kInf);
    for (std::size_t item = 0; item < groups[g].items.size(); ++item) {
      const auto& it = groups[g].items[item];
      if (it.weight_units < 0 || it.weight_units > total_units) continue;
      const auto w = static_cast<std::size_t>(it.weight_units);
      for (std::size_t u = w; u < capacity; ++u) {
        const double base = prev[u - w];
        if (base == kInf) continue;
        const double cost = base + it.cost;
        if (cost < cur[u]) {
          cur[u] = cost;
          parent[g][u] = static_cast<std::uint16_t>(item);
        }
      }
    }
    std::swap(prev, cur);
  }
  const std::int64_t lo = std::max<std::int64_t>(0, total_units - slack_units);
  std::size_t best_u = capacity;
  double best_cost = kInf;
  for (std::int64_t u = total_units; u >= lo; --u) {
    const auto uu = static_cast<std::size_t>(u);
    if (prev[uu] < best_cost - 1e-12) {
      best_cost = prev[uu];
      best_u = uu;
    }
  }
  if (best_u == capacity) return result;
  result.feasible = true;
  result.cost = best_cost;
  result.total_units = static_cast<std::int64_t>(best_u);
  result.choice.assign(groups.size(), -1);
  std::size_t u = best_u;
  for (std::size_t g = groups.size(); g-- > 0;) {
    const std::uint16_t item = parent[g][u];
    result.choice[g] = static_cast<int>(item);
    u -= static_cast<std::size_t>(groups[g].items[item].weight_units);
  }
  return result;
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Compares the two DPs on one instance; returns whether it was feasible
/// so callers can check their generator covers both outcomes.
bool expect_same_as_full_width(const std::vector<MckpGroup>& groups,
                               std::int64_t total, std::int64_t slack,
                               const std::string& what) {
  const auto ref = full_width_mckp(groups, total, slack);
  const auto got = solve_mckp(groups, total, slack);
  EXPECT_EQ(got.feasible, ref.feasible) << what;
  EXPECT_EQ(got.choice, ref.choice) << what;
  EXPECT_EQ(got.total_units, ref.total_units) << what;
  EXPECT_EQ(bits_of(got.cost), bits_of(ref.cost)) << what;  // bit-identical
  return ref.feasible;
}

/// The controller's shape: one group per DIP, candidate weights spread
/// evenly over [0, wmax] in grid units, costs a convex latency curve.
std::vector<MckpGroup> controller_like(util::Rng& rng, std::size_t dips,
                                       std::int64_t total) {
  std::vector<MckpGroup> groups(dips);
  const double fair = static_cast<double>(total) / static_cast<double>(dips);
  for (auto& g : groups) {
    const double wmax = fair * rng.uniform(0.6, 2.5);
    const double l0 = rng.uniform(1.0, 3.0);
    const int points = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{20}));
    for (int i = 0; i < points; ++i) {
      const double w = wmax * i / (points - 1);
      const double x = w / wmax;
      g.items.push_back(MckpItem{static_cast<std::int64_t>(std::llround(w)),
                                 l0 * (1.0 + x * x * x) / (1.0 - 0.5 * x)});
    }
  }
  return groups;
}

TEST(MckpBanded, MatchesFullWidthAtTheControllersShape) {
  util::Rng rng(90'001);
  int feasible = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // Mostly the benchmark's 30 DIPs; some smaller pools.
    const auto dips = trial % 3 == 0
                          ? static_cast<std::size_t>(rng.uniform_int(1, 29))
                          : std::size_t{30};
    const auto groups = controller_like(rng, dips, 10'000);
    const std::int64_t slack = rng.uniform_int(1, 800);
    feasible += expect_same_as_full_width(groups, 10'000, slack,
                                          "trial " + std::to_string(trial));
  }
  EXPECT_GE(feasible, 12);
}

TEST(MckpBanded, MatchesFullWidthWithNonFiniteCosts) {
  // +inf and NaN costs must lose every comparison in both DPs: a NaN sum
  // never replaces a cell and never equals one on the backtrack.
  util::Rng rng(90'005);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  int feasible = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto dips = static_cast<std::size_t>(rng.uniform_int(1, 30));
    auto groups = controller_like(rng, dips, 10'000);
    for (auto& g : groups)
      for (auto& it : g.items) {
        const double r = rng.uniform(0.0, 1.0);
        if (r < 0.15) it.cost = kInf;
        else if (r < 0.30) it.cost = kNaN;
      }
    const std::int64_t slack = rng.uniform_int(1, 800);
    feasible += expect_same_as_full_width(groups, 10'000, slack,
                                          "trial " + std::to_string(trial));
  }
  EXPECT_GE(feasible, 6);
}

TEST(MckpBanded, MatchesFullWidthOnExactCostTies) {
  // Costs from a four-value set and weights on a coarse lattice: many
  // sums are reached by equal-cost paths, so item order and the window's
  // top-down tie-break decide the choice.
  util::Rng rng(90'002);
  int feasible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<MckpGroup> groups(n);
    for (auto& g : groups) {
      const int items = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{6}));
      for (int i = 0; i < items; ++i)
        g.items.push_back(
            MckpItem{5 * rng.uniform_int(0, 8),
                     0.5 * static_cast<double>(rng.uniform_int(0, 3))});
    }
    feasible += expect_same_as_full_width(groups, 100, rng.uniform_int(0, 20),
                                          "trial " + std::to_string(trial));
  }
  EXPECT_GE(feasible, 20);
}

TEST(MckpBanded, MatchesFullWidthOnOddShapes) {
  util::Rng rng(90'003);
  int feasible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t total = rng.uniform_int(0, 300);
    // slack from negative (an empty window) through >= total (window
    // reaching 0).
    const std::int64_t slack = rng.uniform_int(-5, total + 50);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<MckpGroup> groups(n);
    for (auto& g : groups) {
      const int items = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{7}));
      for (int i = 0; i < items; ++i) {
        // Some weights are negative or above total: never pickable.
        const std::int64_t w = rng.uniform_int(-20, total + 40);
        g.items.push_back(MckpItem{w, rng.uniform(0.0, 10.0)});
      }
    }
    feasible += expect_same_as_full_width(
        groups, total, slack,
        "trial " + std::to_string(trial) + " total " + std::to_string(total) +
            " slack " + std::to_string(slack));
  }
  EXPECT_GE(feasible, 40);   // both outcomes covered
  EXPECT_LE(feasible, 160);
}

TEST(MckpBanded, MatchesFullWidthOnInfeasibleWindows) {
  std::vector<MckpGroup> groups(3);
  for (auto& g : groups) g.items = {{10, 1.0}, {20, 2.0}, {30, 0.5}};
  // Too small to reach: max sum 90 < 95.
  EXPECT_FALSE(expect_same_as_full_width(groups, 100, 5, "above every sum"));
  // A hole: sums are multiples of 10, window [41, 49].
  EXPECT_FALSE(expect_same_as_full_width(groups, 49, 8, "in a lattice hole"));
  // Below every sum: the smallest is 30.
  EXPECT_FALSE(expect_same_as_full_width(groups, 25, 25, "below every sum"));
  // Every item of one group is out of range.
  groups[1].items = {{-1, 0.0}, {200, 0.0}};
  EXPECT_FALSE(expect_same_as_full_width(groups, 100, 100, "no pickable item"));
}

TEST(MckpBanded, MatchesFullWidthOnASingleGroup) {
  util::Rng rng(90'004);
  int feasible = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<MckpGroup> groups(1);
    const int items = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{10}));
    for (int i = 0; i < items; ++i)
      groups[0].items.push_back(
          MckpItem{rng.uniform_int(0, 120), rng.uniform(0.0, 5.0)});
    feasible += expect_same_as_full_width(groups, 100, rng.uniform_int(0, 120),
                                          "trial " + std::to_string(trial));
  }
  EXPECT_GE(feasible, 10);
}

}  // namespace
}  // namespace klb::ilp
