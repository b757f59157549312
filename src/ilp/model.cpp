#include "ilp/model.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace klb::ilp {

int Model::add_var(VarType type, double obj, double ub, std::string name) {
  types_.push_back(type);
  obj_.push_back(obj);
  ub_.push_back(type == VarType::kBinary ? 1.0 : ub);
  names_.push_back(std::move(name));
  return static_cast<int>(types_.size()) - 1;
}

void Model::add_constraint(std::vector<std::pair<int, double>> terms,
                           lp::Relation rel, double rhs) {
  rows_.push_back(lp::Constraint{std::move(terms), rel, rhs});
}

namespace {

struct Node {
  // Fixings are (var, value) pairs applied in order; values are 0 or 1.
  std::vector<std::pair<int, double>> fixings;
  double bound = -1e300;  // parent LP objective (lower bound)
  int depth = 0;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // best bound first
    return a.depth < b.depth;                          // then deepest (dive)
  }
};

}  // namespace

struct Solver {
  const Model& model;
  const IlpOptions& opt;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();

  bool deadline_passed() const {
    return opt.time_limit &&
           std::chrono::steady_clock::now() - start > *opt.time_limit;
  }

  /// Build the LP relaxation with the node's fixings substituted out.
  /// Fixed columns keep their index but get a forced x=v via a pinned
  /// equality row collapse: we instead substitute, adjusting rhs and
  /// accumulating the objective constant.
  lp::Problem build_lp(const std::vector<std::pair<int, double>>& fixings,
                       std::vector<double>& fixed_value,
                       double& obj_constant) const {
    const auto n = static_cast<std::size_t>(model.num_vars());
    fixed_value.assign(n, -1.0);  // -1 = free
    for (const auto& [v, val] : fixings)
      fixed_value[static_cast<std::size_t>(v)] = val;

    lp::Problem p;
    p.num_vars = model.num_vars();
    p.objective.assign(n, 0.0);
    obj_constant = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed_value[v] >= 0.0)
        obj_constant += model.obj_[v] * fixed_value[v];
      else
        p.objective[v] = model.obj_[v];
    }

    for (const auto& row : model.rows_) {
      lp::Constraint out;
      out.rel = row.rel;
      out.rhs = row.rhs;
      for (const auto& [v, coeff] : row.terms) {
        const auto vu = static_cast<std::size_t>(v);
        if (fixed_value[vu] >= 0.0)
          out.rhs -= coeff * fixed_value[vu];
        else
          out.terms.emplace_back(v, coeff);
      }
      p.rows.push_back(std::move(out));
    }

    // Upper-bound rows for free variables whose bound is not implied.
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed_value[v] >= 0.0) continue;
      const bool skip_binary =
          model.implied_bounds_ && model.types_[v] == VarType::kBinary;
      const double ub = model.ub_[v];
      if (!skip_binary && ub < 1e29) {
        lp::Constraint bound;
        bound.rel = lp::Relation::kLe;
        bound.rhs = ub;
        bound.terms.emplace_back(static_cast<int>(v), 1.0);
        p.rows.push_back(std::move(bound));
      }
    }
    return p;
  }

  IlpResult run() {
    IlpResult result;
    double incumbent_obj = 1e300;
    std::vector<double> incumbent_x;
    double best_open_bound = -1e300;

    std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
    open.push(Node{});

    while (!open.empty()) {
      if (result.nodes_explored >= opt.max_nodes) break;
      if (deadline_passed()) break;

      Node node = open.top();
      open.pop();
      const auto cutoff = [&](double bound) {
        if (incumbent_obj >= 1e299) return false;
        const double tol =
            1e-9 + opt.rel_gap * std::max(1.0, std::fabs(incumbent_obj));
        return bound >= incumbent_obj - tol;
      };
      if (node.bound > -1e299 && cutoff(node.bound)) continue;  // pruned

      ++result.nodes_explored;

      std::vector<double> fixed_value;
      double obj_constant = 0.0;
      const auto lp_problem = build_lp(node.fixings, fixed_value, obj_constant);

      lp::SolveOptions lp_opt;
      lp_opt.max_tableau_bytes = opt.max_tableau_bytes;
      if (opt.time_limit) lp_opt.deadline = start + *opt.time_limit;
      const auto lp_sol = lp::solve(lp_problem, lp_opt);

      if (lp_sol.status == lp::Status::kMemLimit) {
        result.status = IlpStatus::kMemLimit;
        result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start);
        return result;
      }
      if (lp_sol.status == lp::Status::kIterLimit) break;  // deadline
      if (lp_sol.status == lp::Status::kInfeasible) continue;
      if (lp_sol.status == lp::Status::kUnbounded) {
        if (node.fixings.empty()) {
          result.status = IlpStatus::kUnbounded;
          return result;
        }
        continue;
      }

      const double node_obj = lp_sol.objective + obj_constant;
      if (cutoff(node_obj)) continue;

      // Find the most fractional integer variable.
      int branch_var = -1;
      double best_frac_dist = opt.integrality_tol;
      for (int v = 0; v < model.num_vars(); ++v) {
        const auto vu = static_cast<std::size_t>(v);
        if (model.types_[vu] != VarType::kBinary) continue;
        if (fixed_value[vu] >= 0.0) continue;
        const double x = lp_sol.x[vu];
        const double dist = std::fabs(x - std::round(x));
        if (dist > best_frac_dist) {
          best_frac_dist = dist;
          branch_var = v;
        }
      }

      if (branch_var < 0) {
        // Integral: candidate incumbent.
        if (node_obj < incumbent_obj) {
          incumbent_obj = node_obj;
          incumbent_x.assign(static_cast<std::size_t>(model.num_vars()), 0.0);
          for (int v = 0; v < model.num_vars(); ++v) {
            const auto vu = static_cast<std::size_t>(v);
            incumbent_x[vu] =
                fixed_value[vu] >= 0.0 ? fixed_value[vu] : lp_sol.x[vu];
            if (model.types_[vu] == VarType::kBinary)
              incumbent_x[vu] = std::round(incumbent_x[vu]);
          }
        }
        continue;
      }

      // Branch: try the value the LP leans toward first (better dives).
      const double x = lp_sol.x[static_cast<std::size_t>(branch_var)];
      const double first = x >= 0.5 ? 1.0 : 0.0;
      for (const double val : {1.0 - first, first}) {  // pushed last = popped first on ties
        Node child;
        child.fixings = node.fixings;
        child.fixings.emplace_back(branch_var, val);
        child.bound = node_obj;
        child.depth = node.depth + 1;
        open.push(std::move(child));
      }
      best_open_bound = std::max(best_open_bound, node_obj);
    }

    result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);

    const bool finished = open.empty() &&
                          result.nodes_explored < opt.max_nodes &&
                          !deadline_passed();
    if (incumbent_obj < 1e299) {
      result.x = std::move(incumbent_x);
      result.objective = incumbent_obj;
      result.status = finished ? IlpStatus::kOptimal : IlpStatus::kFeasibleTimeout;
      result.best_bound = finished ? incumbent_obj : best_open_bound;
    } else {
      result.status = finished ? IlpStatus::kInfeasible : IlpStatus::kTimeout;
    }
    return result;
  }
};

IlpResult solve(const Model& model, const IlpOptions& options) {
  Solver solver{model, options};
  return solver.run();
}

}  // namespace klb::ilp
