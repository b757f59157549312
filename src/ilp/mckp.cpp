#include "ilp/mckp.hpp"

#include <algorithm>
#include <limits>

namespace klb::ilp {

MckpResult solve_mckp(const std::vector<MckpGroup>& groups,
                      std::int64_t total_units, std::int64_t slack_units) {
  MckpResult result;
  if (groups.empty() || total_units < 0) return result;
  for (const auto& g : groups) {
    if (g.items.empty()) return result;           // no pickable item
    if (g.items.size() > 65'535) return result;   // choice id is uint16
  }

  // Items outside [0, total] can never be picked. maxw[g] is the largest
  // pickable weight of group g; a group with none makes every sum
  // unreachable.
  const std::size_t n = groups.size();
  std::vector<std::int64_t> maxw(n, -1);
  for (std::size_t g = 0; g < n; ++g)
    for (const auto& it : groups[g].items)
      if (it.weight_units >= 0 && it.weight_units <= total_units)
        maxw[g] = std::max(maxw[g], it.weight_units);
  if (std::find(maxw.begin(), maxw.end(), -1) != maxw.end()) return result;

  // The band after group g is [band_lo[g], band_hi[g]]: a sum above
  // Σ_{h≤g} maxw_h is unreachable, and one below lo − Σ_{h>g} maxw_h can
  // no longer climb into the window [lo, total]. Every finite predecessor
  // of an in-band cell lies in the previous band, so each in-band value,
  // and the item that sets it, is the full-width DP's.
  const std::int64_t lo = total_units - slack_units;
  std::vector<std::int64_t> band_lo(n), band_hi(n);
  std::int64_t reach = 0;
  for (std::size_t g = 0; g < n; ++g) {
    reach += maxw[g];
    band_hi[g] = std::min(total_units, reach);
  }
  std::int64_t rest = 0;
  for (std::size_t g = n; g-- > 0;) {
    band_lo[g] = std::max<std::int64_t>(0, lo - rest);
    rest += maxw[g];
    if (band_lo[g] > band_hi[g]) return result;  // nothing reaches the window
  }

  const auto capacity = static_cast<std::size_t>(total_units) + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // prev/cur are indexed by sum; only the current band is ever written or
  // read. parent holds one band-sized row per group, back to back:
  // parent[row[g] + (u − band_lo[g])] is the item group g picked to reach u.
  std::vector<double> prev(capacity, kInf);
  std::vector<double> cur(capacity, kInf);
  std::vector<std::size_t> row(n + 1, 0);
  for (std::size_t g = 0; g < n; ++g)
    row[g + 1] = row[g] + static_cast<std::size_t>(band_hi[g] - band_lo[g] + 1);
  std::vector<std::uint16_t> parent(row[n], 0xffff);

  prev[0] = 0.0;
  std::int64_t prev_lo = 0, prev_hi = 0;
  for (std::size_t g = 0; g < n; ++g) {
    const std::int64_t blo = band_lo[g], bhi = band_hi[g];
    std::fill(cur.begin() + blo, cur.begin() + bhi + 1, kInf);
    std::uint16_t* par = parent.data() + row[g];
    for (std::size_t item = 0; item < groups[g].items.size(); ++item) {
      const auto& it = groups[g].items[item];
      if (it.weight_units < 0 || it.weight_units > total_units) continue;
      const std::int64_t w = it.weight_units;
      const std::int64_t from = std::max(blo, prev_lo + w);
      const std::int64_t to = std::min(bhi, prev_hi + w);
      for (std::int64_t u = from; u <= to; ++u) {
        const double base = prev[u - w];
        if (base == kInf) continue;
        const double cost = base + it.cost;
        if (cost < cur[u]) {
          cur[u] = cost;
          par[u - blo] = static_cast<std::uint16_t>(item);
        }
      }
    }
    std::swap(prev, cur);
    prev_lo = blo;
    prev_hi = bhi;
  }

  // Pick the best landing spot inside [total - slack, total]; prefer the
  // larger sum on (near-)ties so the schedule uses the full budget. The
  // last band is the window clipped to the reachable sums.
  std::size_t best_u = capacity;  // sentinel
  double best_cost = kInf;
  for (std::int64_t u = prev_hi; u >= prev_lo; --u) {
    const auto uu = static_cast<std::size_t>(u);
    if (prev[uu] < best_cost - 1e-12) {
      best_cost = prev[uu];
      best_u = uu;
    }
  }
  if (best_u == capacity) return result;  // infeasible in the window

  result.feasible = true;
  result.cost = best_cost;
  result.total_units = static_cast<std::int64_t>(best_u);
  result.choice.assign(n, -1);
  std::int64_t u = static_cast<std::int64_t>(best_u);
  for (std::size_t g = n; g-- > 0;) {
    const std::uint16_t item =
        parent[row[g] + static_cast<std::size_t>(u - band_lo[g])];
    result.choice[g] = static_cast<int>(item);
    u -= groups[g].items[item].weight_units;
  }
  return result;
}

}  // namespace klb::ilp
