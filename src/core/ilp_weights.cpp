#include "core/ilp_weights.hpp"

#include <algorithm>
#include <cmath>

#include "util/weight.hpp"

namespace klb::core {

std::vector<double> uniform_candidates(double lo, double hi, int n) {
  std::vector<double> out;
  if (n <= 0) return out;
  lo = std::max(lo, 0.0);
  hi = std::min(std::max(hi, lo), 1.0);
  if (n == 1 || hi - lo < 1e-12) {
    out.push_back(lo);
    return out;
  }
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(n - 1));
  return out;
}

IlpWeights::StepResult IlpWeights::solve_step(
    const std::vector<const fit::WeightLatencyCurve*>& curves,
    const std::vector<std::vector<double>>& candidates,
    double total_weight) const {
  StepResult result;
  const std::size_t n = curves.size();

  const bool need_theta = cfg_.theta < 1e29;
  const bool need_minmax = cfg_.objective == IlpObjective::kMaxLatency;
  const auto backend = (need_theta || need_minmax)
                           ? IlpBackend::kBranchAndBound
                           : cfg_.backend;

  const auto total_units = util::weight_to_units(total_weight);
  // The reachable sums form a lattice with holes up to the coarsest
  // per-DIP grid spacing; the window must be at least that wide or coarse
  // candidate sets become spuriously infeasible.
  double max_spacing = 0.0;
  for (const auto& cand : candidates) {
    for (std::size_t i = 1; i < cand.size(); ++i)
      max_spacing = std::max(max_spacing, cand[i] - cand[i - 1]);
  }
  const auto slack_units = std::max<std::int64_t>(
      1, std::max(util::weight_to_units(cfg_.sum_slack),
                  util::weight_to_units(max_spacing) + 1));

  if (backend == IlpBackend::kMckpDp) {
    std::vector<ilp::MckpGroup> groups(n);
    for (std::size_t d = 0; d < n; ++d) {
      for (const double w : candidates[d]) {
        groups[d].items.push_back(ilp::MckpItem{
            util::weight_to_units(w), curves[d]->latency_at(w)});
      }
    }
    const auto dp = ilp::solve_mckp(groups, total_units, slack_units);
    result.feasible = dp.feasible;
    if (dp.feasible) {
      result.cost = dp.cost;
      result.weights.resize(n);
      for (std::size_t d = 0; d < n; ++d)
        result.weights[d] =
            candidates[d][static_cast<std::size_t>(dp.choice[d])];
    }
    return result;
  }

  // Branch & bound over the Fig. 7 model.
  ilp::Model model;
  model.set_binary_bounds_implied(true);
  std::vector<std::vector<int>> vars(n);
  std::vector<std::pair<int, double>> weight_row;

  for (std::size_t d = 0; d < n; ++d) {
    std::vector<std::pair<int, double>> one_weight_row;  // constraint (a)
    for (const double w : candidates[d]) {
      // Under min-max the per-variable objective is zero; the auxiliary
      // bound variable below carries the whole objective.
      const double obj = need_minmax ? 0.0 : curves[d]->latency_at(w);
      const int v = model.add_var(ilp::VarType::kBinary, obj);
      vars[d].push_back(v);
      one_weight_row.emplace_back(v, 1.0);
      weight_row.emplace_back(v, w);
    }
    model.add_constraint(std::move(one_weight_row), lp::Relation::kEq, 1.0);
  }

  if (need_minmax) {
    // z >= sum_w l_dw x_dw for every DIP; minimize z.
    double max_latency = 0.0;
    for (std::size_t d = 0; d < n; ++d)
      for (const double w : candidates[d])
        max_latency = std::max(max_latency, curves[d]->latency_at(w));
    const int z = model.add_var(ilp::VarType::kContinuous, 1.0,
                                std::max(1.0, max_latency));
    for (std::size_t d = 0; d < n; ++d) {
      std::vector<std::pair<int, double>> bound{{z, -1.0}};
      for (std::size_t i = 0; i < candidates[d].size(); ++i)
        bound.emplace_back(vars[d][i], curves[d]->latency_at(candidates[d][i]));
      model.add_constraint(std::move(bound), lp::Relation::kLe, 0.0);
    }
  }

  // Constraint (b): total weight in [total - slack, total].
  model.add_constraint(weight_row, lp::Relation::kLe, total_weight);
  model.add_constraint(weight_row, lp::Relation::kGe,
                       total_weight -
                           util::units_to_weight(slack_units));

  if (need_theta) {
    // Constraints (c)+(d): ymax/ymin straddle every DIP's chosen weight.
    const int ymax = model.add_var(ilp::VarType::kContinuous, 0.0, 1.0);
    const int ymin = model.add_var(ilp::VarType::kContinuous, 0.0, 1.0);
    for (std::size_t d = 0; d < n; ++d) {
      std::vector<std::pair<int, double>> up{{ymax, 1.0}};
      std::vector<std::pair<int, double>> down{{ymin, 1.0}};
      for (std::size_t i = 0; i < candidates[d].size(); ++i) {
        up.emplace_back(vars[d][i], -candidates[d][i]);
        down.emplace_back(vars[d][i], -candidates[d][i]);
      }
      model.add_constraint(std::move(up), lp::Relation::kGe, 0.0);
      model.add_constraint(std::move(down), lp::Relation::kLe, 0.0);
    }
    model.add_constraint({{ymax, 1.0}, {ymin, -1.0}}, lp::Relation::kLe,
                         cfg_.theta);
  }

  ilp::IlpOptions opt;
  opt.time_limit = cfg_.time_limit;
  const auto ilp_result = ilp::solve(model, opt);
  result.nodes = ilp_result.nodes_explored;
  result.timed_out = ilp_result.status == ilp::IlpStatus::kFeasibleTimeout ||
                     ilp_result.status == ilp::IlpStatus::kTimeout;

  if (!ilp_result.has_solution()) return result;
  result.feasible = true;
  result.cost = ilp_result.objective;
  result.weights.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t i = 0; i < candidates[d].size(); ++i) {
      if (ilp_result.x[static_cast<std::size_t>(vars[d][i])] > 0.5) {
        result.weights[d] = candidates[d][i];
        break;
      }
    }
  }
  return result;
}

IlpWeightsResult IlpWeights::compute(
    const std::vector<const fit::WeightLatencyCurve*>& curves,
    double total_weight) const {
  IlpWeightsResult out;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = curves.size();
  if (n == 0 || total_weight <= 0.0) return out;
  for (const auto* c : curves)
    if (c == nullptr || !c->fitted()) return out;

  // Step 1: candidates uniform in [0, wmax_d] (§4.4: *not* [0,1]).
  std::vector<std::vector<double>> candidates(n);
  for (std::size_t d = 0; d < n; ++d)
    candidates[d] =
        uniform_candidates(0.0, curves[d]->wmax(), cfg_.points_per_dip);

  auto step1 = solve_step(curves, candidates, total_weight);
  out.steps_run = 1;
  out.nodes_explored = step1.nodes;
  out.timed_out = step1.timed_out;
  if (!step1.feasible) {
    out.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    return out;
  }

  const bool multi = cfg_.force_multi_step.value_or(
      static_cast<int>(n) >= cfg_.multi_step_min_dips);

  StepResult final_step = std::move(step1);
  if (multi) {
    // Step 2: zoom around step 1's choice.
    std::vector<std::vector<double>> zoomed(n);
    for (std::size_t d = 0; d < n; ++d) {
      const double wd = final_step.weights[d];
      const double delta = cfg_.zoom_fraction * curves[d]->wmax();
      zoomed[d] = uniform_candidates(std::max(0.0, wd - delta),
                                     std::min(1.0, wd + delta),
                                     cfg_.points_per_dip);
    }
    auto step2 = solve_step(curves, zoomed, total_weight);
    out.nodes_explored += step2.nodes;
    out.timed_out = out.timed_out || step2.timed_out;
    if (step2.feasible && step2.cost <= final_step.cost + 1e-12) {
      final_step = std::move(step2);
      out.steps_run = 2;
    }
  }

  out.feasible = true;
  out.estimated_total_latency_ms = final_step.cost;
  // Normalize onto the exact grid so downstream consumers see sum == 1
  // (scaled to the requested budget).
  auto units = util::normalize_to_units(final_step.weights);
  out.weights.resize(n);
  for (std::size_t d = 0; d < n; ++d)
    out.weights[d] = util::units_to_weight(units[d]) * total_weight;

  out.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  return out;
}

}  // namespace klb::core
