// Standalone use of the solver substrate: build the Fig. 7 ILP by hand
// with the ilp:: API, solve it with both the branch & bound and the MCKP
// dynamic program, and cross-check against the lp:: simplex relaxation —
// the library's solver layer is usable without any of the LB machinery.
//
//   ./example_solver_playground [--dips N] [--points K]
#include <iostream>

#include "core/ilp_weights.hpp"
#include "lp/simplex.hpp"
#include "testbed/report.hpp"
#include "testbed/synthetic.hpp"
#include "util/flags.hpp"

using namespace klb;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int dips = static_cast<int>(flags.get_int("dips", 6));
  const int points = static_cast<int>(flags.get_int("points", 10));
  flags.exit_on_unknown();

  std::cout << "Solver playground: " << dips << " DIPs, " << points
            << " candidate weights each\n";

  // Synthetic weight-latency curves with assorted capacities.
  std::vector<fit::WeightLatencyCurve> curves;
  for (int d = 0; d < dips; ++d)
    curves.push_back(testbed::synthetic_curve(
        (1.4 / dips) * (1.0 + 0.25 * (d % 3)), 1.0 + 0.2 * (d % 4)));
  std::vector<const fit::WeightLatencyCurve*> ptrs;
  for (const auto& c : curves) ptrs.push_back(&c);

  // 1. High-level interface, both backends.
  core::IlpWeightsConfig cfg;
  cfg.points_per_dip = points;
  cfg.force_multi_step = false;
  cfg.backend = core::IlpBackend::kBranchAndBound;
  const auto bnb = core::IlpWeights(cfg).compute(ptrs);
  cfg.backend = core::IlpBackend::kMckpDp;
  const auto dp = core::IlpWeights(cfg).compute(ptrs);

  testbed::Table table({"DIP", "wmax", "B&B weight", "DP weight",
                        "est. latency (ms)"});
  for (int d = 0; d < dips; ++d) {
    const auto du = static_cast<std::size_t>(d);
    table.row({std::to_string(d + 1), testbed::fmt(curves[du].wmax(), 3),
               testbed::fmt(bnb.feasible ? bnb.weights[du] : 0.0, 3),
               testbed::fmt(dp.feasible ? dp.weights[du] : 0.0, 3),
               testbed::fmt(curves[du].latency_at(
                   bnb.feasible ? bnb.weights[du] : 0.0))});
  }
  table.print();
  std::cout << "objectives: B&B "
            << testbed::fmt(bnb.estimated_total_latency_ms, 4) << " ms, DP "
            << testbed::fmt(dp.estimated_total_latency_ms, 4)
            << " ms (must agree)\n";

  // 2. The raw LP relaxation through the simplex layer directly.
  lp::Problem relax;
  relax.num_vars = dips;
  relax.objective.assign(static_cast<std::size_t>(dips), 0.0);
  // Linearized objective: marginal latency slope at each DIP's midpoint.
  // (Build the sum row's terms first: references returned by add_row are
  // invalidated by subsequent add_row calls.)
  std::vector<std::pair<int, double>> sum_terms;
  for (int d = 0; d < dips; ++d) {
    const auto du = static_cast<std::size_t>(d);
    const double mid = curves[du].wmax() / 2.0;
    relax.objective[du] =
        (curves[du].latency_at(mid * 1.1) - curves[du].latency_at(mid * 0.9)) /
        (0.2 * mid);
    sum_terms.emplace_back(d, 1.0);
    auto& cap = relax.add_row(lp::Relation::kLe, curves[du].wmax());
    cap.terms.emplace_back(d, 1.0);
  }
  relax.add_row(lp::Relation::kEq, 1.0).terms = sum_terms;
  const auto lp_sol = lp::solve(relax);
  std::cout << "\nLP sanity (linearized slopes, simplex): status "
            << (lp_sol.status == lp::Status::kOptimal ? "optimal" : "other")
            << ", " << lp_sol.iterations << " pivots\n";

  std::cout << "\nThe ilp::/lp:: layers are standalone: bring your own "
               "costs and constraints.\n";
  return 0;
}
