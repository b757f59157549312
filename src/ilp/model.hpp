// ILP model builder + branch-and-bound solver.
//
// Stands in for COIN-OR CBC (the paper's solver, §5): a general 0/1-and-
// integer linear model solved by branch & bound over the lp:: simplex
// relaxation. Branching fixes binary variables (substituting them out of
// the child LP), selection is most-fractional, exploration is best-bound
// with an eager dive for early incumbents. A deadline turns into the
// paper's "TO" outcome: the best incumbent (if any) is returned flagged.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "lp/simplex.hpp"

namespace klb::ilp {

enum class VarType { kContinuous, kBinary };

enum class IlpStatus {
  kOptimal,
  kFeasibleTimeout,  // incumbent found, but optimality not proven in time
  kTimeout,          // no incumbent before the deadline
  kInfeasible,
  kUnbounded,
  kMemLimit,
};

class Model {
 public:
  /// Returns the variable index. `obj` is the minimized objective
  /// coefficient. Binary variables are [0,1]-bounded by construction;
  /// continuous ones are [0, ub].
  int add_var(VarType type, double obj, double ub = 1e30,
              std::string name = {});

  void add_constraint(std::vector<std::pair<int, double>> terms,
                      lp::Relation rel, double rhs);

  int num_vars() const { return static_cast<int>(types_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }
  VarType var_type(int v) const { return types_[static_cast<std::size_t>(v)]; }
  const std::string& var_name(int v) const {
    return names_[static_cast<std::size_t>(v)];
  }

  /// Declare that every binary variable's <=1 bound is implied by the
  /// constraints (true for multiple-choice structures where each group
  /// sums to 1); skips emitting explicit bound rows.
  void set_binary_bounds_implied(bool implied) { implied_bounds_ = implied; }

 private:
  friend struct Solver;
  std::vector<VarType> types_;
  std::vector<double> obj_;
  std::vector<double> ub_;
  std::vector<std::string> names_;
  std::vector<lp::Constraint> rows_;
  bool implied_bounds_ = false;
};

struct IlpOptions {
  std::optional<std::chrono::milliseconds> time_limit;
  std::int64_t max_nodes = 1'000'000;
  double integrality_tol = 1e-6;
  /// Relative optimality gap at which search stops.
  double rel_gap = 1e-9;
  std::size_t max_tableau_bytes = std::size_t{768} * 1024 * 1024;
};

struct IlpResult {
  IlpStatus status = IlpStatus::kInfeasible;
  std::vector<double> x;
  double objective = 0.0;
  std::int64_t nodes_explored = 0;
  double best_bound = 0.0;
  std::chrono::microseconds elapsed{0};

  bool has_solution() const {
    return status == IlpStatus::kOptimal ||
           status == IlpStatus::kFeasibleTimeout;
  }
};

IlpResult solve(const Model& model, const IlpOptions& options = {});

}  // namespace klb::ilp
