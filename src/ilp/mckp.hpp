// Multiple-Choice Knapsack solver (exact dynamic program).
//
// The Fig. 7 ILP with theta = infinity *is* an MCKP: pick exactly one
// (weight, latency) item per DIP so the weights sum to the grid total and
// total latency is minimal. This DP is the optimization fast path the
// paper alludes to in §5 ("we speed up ILP"); the generic B&B remains the
// reference implementation and tests assert both agree.
//
// Weights are integer grid units (util::kWeightScale = weight 1.0). An
// exact-sum solution rarely exists on an arbitrary grid, so the target is
// a window [total - slack, total]; the DP returns the min-cost choice
// whose sum lands in the window (preferring larger sums on cost ties).
#pragma once

#include <cstdint>
#include <vector>

namespace klb::ilp {

struct MckpItem {
  std::int64_t weight_units = 0;
  double cost = 0.0;
};

struct MckpGroup {
  std::vector<MckpItem> items;
};

struct MckpResult {
  bool feasible = false;
  double cost = 0.0;
  std::int64_t total_units = 0;
  /// Chosen item index per group.
  std::vector<int> choice;
};

/// Exact DP over a band of sums: after group g only the sums in
/// [max(0, lo - Σ_{h>g} maxw_h), min(total, Σ_{h≤g} maxw_h)] are computed,
/// with lo = total - slack and maxw_h group h's largest weight in
/// [0, total]; no other sum can be reached and still reach the window.
/// O(Σ_g band_g * items_g) time, at most O(groups * total * max_items);
/// O(Σ_g band_g) memory, one double per band cell, all freed on return.
/// The choices are recovered from the cost rows, so a group may hold any
/// number of items. Costs, choices and tie-breaks equal the full-width
/// DP's; a NaN or +inf cost never wins.
MckpResult solve_mckp(const std::vector<MckpGroup>& groups,
                      std::int64_t total_units, std::int64_t slack_units);

}  // namespace klb::ilp
