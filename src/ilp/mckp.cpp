#include "ilp/mckp.hpp"

#include <algorithm>
#include <limits>

namespace klb::ilp {

MckpResult solve_mckp(const std::vector<MckpGroup>& groups,
                      std::int64_t total_units, std::int64_t slack_units) {
  MckpResult result;
  if (groups.empty() || total_units < 0) return result;
  for (const auto& g : groups)
    if (g.items.empty()) return result;  // no pickable item

  const auto pickable = [&](const MckpItem& it) {
    return it.weight_units >= 0 && it.weight_units <= total_units;
  };

  // Items outside [0, total] can never be picked. maxw[g] is the largest
  // pickable weight of group g; a group with none makes every sum
  // unreachable.
  const std::size_t n = groups.size();
  std::vector<std::int64_t> maxw(n, -1);
  for (std::size_t g = 0; g < n; ++g)
    for (const auto& it : groups[g].items)
      if (pickable(it)) maxw[g] = std::max(maxw[g], it.weight_units);
  if (std::find(maxw.begin(), maxw.end(), -1) != maxw.end()) return result;

  // Row r holds the min cost of every sum in the band [lo_of[r], hi_of[r]]
  // after the first r groups; row 0 is the empty prefix (sum 0). Row g + 1
  // keeps only the sums group g's band allows: one above Σ_{h≤g} maxw_h is
  // unreachable, and one below lo − Σ_{h>g} maxw_h can no longer climb
  // into the window [lo, total]. Every finite predecessor of an in-band
  // cell lies in the previous band, so each in-band value is the
  // full-width DP's.
  const std::int64_t lo = total_units - slack_units;
  std::vector<std::int64_t> lo_of(n + 1, 0), hi_of(n + 1, 0);
  std::int64_t reach = 0;
  for (std::size_t g = 0; g < n; ++g) {
    reach += maxw[g];
    hi_of[g + 1] = std::min(total_units, reach);
  }
  std::int64_t rest = 0;
  for (std::size_t g = n; g-- > 0;) {
    lo_of[g + 1] = std::max<std::int64_t>(0, lo - rest);
    rest += maxw[g];
    if (lo_of[g + 1] > hi_of[g + 1]) return result;  // window unreachable
  }

  // The rows lie back to back in one flat array: row r's sum u is
  // cost[start[r] + (u − lo_of[r])].
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> start(n + 2, 0);
  for (std::size_t r = 0; r <= n; ++r)
    start[r + 1] = start[r] + static_cast<std::size_t>(hi_of[r] - lo_of[r] + 1);
  std::vector<double> cost(start[n + 1], kInf);
  cost[0] = 0.0;

  // Forward pass, branch-free: dst = min(dst, src + c) per cell, with the
  // select written as minpd computes it, so it vectorizes and a NaN sum
  // never wins. An unreachable source (+inf) yields +inf or NaN, which
  // never wins either. Items go in order and only a strictly smaller sum
  // replaces a cell, as in the full-width DP.
  for (std::size_t g = 0; g < n; ++g) {
    const double* const src_row = cost.data() + start[g];
    double* const dst_row = cost.data() + start[g + 1];
    for (const auto& it : groups[g].items) {
      if (!pickable(it)) continue;
      // The cells of row g + 1 whose sum − w lies in row g.
      const std::int64_t w = it.weight_units;
      const std::int64_t from = std::max(lo_of[g + 1], lo_of[g] + w);
      const std::int64_t to = std::min(hi_of[g + 1], hi_of[g] + w);
      const double* src = src_row + (from - w - lo_of[g]);
      double* dst = dst_row + (from - lo_of[g + 1]);
      const double c = it.cost;
      const std::int64_t len = to - from + 1;
      for (std::int64_t k = 0; k < len; ++k) {
        const double v = src[k] + c;
        dst[k] = v < dst[k] ? v : dst[k];
      }
    }
  }

  // Pick the best landing spot inside [total - slack, total]; prefer the
  // larger sum on (near-)ties so the schedule uses the full budget. The
  // last band is the window clipped to the reachable sums.
  const double* const last = cost.data() + start[n];
  std::int64_t best_u = -1;  // sentinel
  double best_cost = kInf;
  for (std::int64_t u = hi_of[n]; u >= lo_of[n]; --u) {
    const double c = last[u - lo_of[n]];
    if (c < best_cost - 1e-12) {
      best_cost = c;
      best_u = u;
    }
  }
  if (best_u < 0) return result;  // infeasible in the window

  result.feasible = true;
  result.cost = best_cost;
  result.total_units = best_u;
  result.choice.assign(n, -1);

  // Backtrack: group g's choice at sum u is the first item, in item order,
  // whose prev + cost equals the stored cell. That is the same double
  // expression the forward pass evaluated, and an earlier item reaching
  // the same value would have set the cell first, so this is the item the
  // full-width DP records, ties included.
  std::int64_t u = best_u;
  for (std::size_t g = n; g-- > 0;) {
    const double target =
        cost[start[g + 1] + static_cast<std::size_t>(u - lo_of[g + 1])];
    const double* const src_row = cost.data() + start[g];
    const auto& items = groups[g].items;
    for (std::size_t item = 0; item < items.size(); ++item) {
      const auto& it = items[item];
      if (!pickable(it)) continue;
      const std::int64_t from_sum = u - it.weight_units;
      if (from_sum < lo_of[g] || from_sum > hi_of[g]) continue;
      if (src_row[from_sum - lo_of[g]] + it.cost == target) {
        result.choice[g] = static_cast<int>(item);
        u = from_sum;
        break;
      }
    }
  }
  return result;
}

}  // namespace klb::ilp
