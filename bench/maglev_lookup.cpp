// Dataplane pick-path scaling: weighted Maglev vs the 5-tuple modulo hash.
//
// Three properties let the maglev policy carry 10k-DIP pools:
//   1. pick cost: one hash + one array read of the built table
//      (MaglevTable::lookup, the Mux's per-pick cost), O(1) in the DIP
//      count — as cheap as HashTuple's pick from its cached usable list,
//      while honouring the programmed weights;
//   2. churn disruption: removing one DIP remaps a few percent of flows,
//      where `hash % n` remaps essentially all of them (every pinned flow
//      turns into a cross-DIP move once its affinity entry ages out);
//   3. build cost: each commit rebuilds the table (build_table, the one
//      build behind every published generation), so the control loop's
//      freshness pays it per dirty VIP. The bench prints the median and
//      quartiles of kBuilds timed builds per pool size, enough samples to
//      resolve a change of a few percent.
//
// Usage: bench_maglev_lookup [picks_per_size]   (default 2'000'000)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "lb/maglev.hpp"
#include "lb/pool_generation.hpp"
#include "lb/policy.hpp"
#include "net/five_tuple.hpp"
#include "testbed/report.hpp"
#include "util/rng.hpp"

namespace {

using klb::lb::BackendView;
using Clock = std::chrono::steady_clock;

std::vector<BackendView> make_views(std::size_t n, klb::util::Rng& rng) {
  std::vector<BackendView> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].addr = klb::net::IpAddr(static_cast<std::uint32_t>(0x0a800000 + i));
    // Heterogeneous weights, as the ILP would program them.
    out[i].weight_units =
        static_cast<std::int64_t>(50 + rng.uniform_int(std::uint64_t{150}));
  }
  return out;
}

klb::net::FiveTuple flow(std::uint64_t f) {
  klb::net::FiveTuple t;
  t.src_ip = klb::net::IpAddr(static_cast<std::uint32_t>(0x0a020000 + f / 50'000));
  t.dst_ip = klb::net::IpAddr{10, 0, 0, 1};
  t.src_port = static_cast<std::uint16_t>(f % 50'000);
  t.dst_port = 443;
  return t;
}

/// Picks/sec of `pick(f)` over `picks` distinct-ish flows (volatile sink
/// defeats DCE).
template <class Pick>
double measure_rate(std::uint64_t picks, Pick pick) {
  volatile std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t f = 0; f < picks; ++f) sink = sink + pick(f);
  const auto dt = std::chrono::duration<double>(Clock::now() - t0).count();
  return dt > 0 ? static_cast<double>(picks) / dt : 0.0;
}

/// The table a Mux serves over `views`: ids are DIP address values.
klb::lb::MaglevTable build(const std::vector<BackendView>& views,
                           std::size_t min_table_size) {
  std::vector<klb::lb::MaglevEntry> entries;
  for (const auto& v : views)
    entries.push_back({v.addr.value(), v.weight_units});
  klb::lb::MaglevTable table(min_table_size);
  table.build(entries);
  return table;
}

/// Timed build_table calls per pool size.
constexpr int kBuilds = 60;

/// Milliseconds of each of kBuilds build_table calls over `views` (after
/// one untimed warm-up build), sorted.
std::vector<double> build_times_ms(const std::vector<BackendView>& views,
                                   std::size_t min_table_size) {
  std::vector<klb::lb::GenBackend> pool(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    pool[i].addr = views[i].addr;
    pool[i].weight_units = views[i].weight_units;
  }
  volatile std::size_t sink = klb::lb::build_table(pool, min_table_size)
                                  ->table_size();
  std::vector<double> ms;
  for (int i = 0; i < kBuilds; ++i) {
    const auto t0 = Clock::now();
    const auto table = klb::lb::build_table(pool, min_table_size);
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    sink = sink + table->lookup(static_cast<std::uint64_t>(i));
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

/// The q-quantile of sorted `v` (nearest rank).
double quantile(const std::vector<double>& v, double q) {
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                    0.5)];
}

/// Fraction of flows (not routed to `removed`) that `after` routes to a
/// different DIP than `before` did.
template <class Before, class After>
double remap_fraction(Before before, After after, klb::net::IpAddr removed) {
  const std::uint64_t flows = 50'000;
  std::uint64_t moved = 0;
  std::uint64_t eligible = 0;
  for (std::uint64_t f = 0; f < flows; ++f) {
    const auto was = before(f);
    if (was == removed) continue;
    ++eligible;
    if (after(f) != was) ++moved;
  }
  return eligible ? static_cast<double>(moved) / static_cast<double>(eligible)
                  : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t picks = 2'000'000;
  if (argc > 1) picks = std::stoull(argv[1]);

  klb::testbed::banner("maglev vs 5-tuple-hash dataplane pick path");
  klb::testbed::Table table({"DIPs", "hash picks/s", "maglev picks/s",
                             "speedup", "hash remap", "maglev remap"});

  klb::util::Rng rng(42);
  for (const std::size_t dips : {100u, 1'000u, 10'000u}) {
    const auto views = make_views(dips, rng);

    auto shrunk = views;
    const auto removed = shrunk[dips / 2].addr;
    shrunk.erase(shrunk.begin() + static_cast<std::ptrdiff_t>(dips / 2));

    // Hash: the policy pick over the pool's views.
    klb::lb::HashTuple hash, hash_shrunk;
    const auto hash_pick = [&rng](klb::lb::HashTuple& p,
                                  const std::vector<BackendView>& pool,
                                  std::uint64_t f) {
      const auto i = p.pick(flow(f), pool, rng);
      return i == klb::lb::kNoBackend ? klb::net::IpAddr{} : pool[i].addr;
    };
    const double hash_rate = measure_rate(picks / 10, [&](std::uint64_t f) {
      return hash.pick(flow(f), views, rng);
    });
    const double hash_remap = remap_fraction(
        [&](std::uint64_t f) { return hash_pick(hash, views, f); },
        [&](std::uint64_t f) { return hash_pick(hash_shrunk, shrunk, f); },
        removed);

    // Maglev: what the Mux's table route pays per new connection — the
    // tuple hash and one slot read of the generation's built table.
    const auto size = std::max<std::size_t>(65'537, dips * 13);
    const auto maglev = build(views, size);
    const auto maglev_shrunk = build(shrunk, size);
    const double maglev_rate = measure_rate(picks, [&](std::uint64_t f) {
      return maglev.lookup(klb::net::hash_tuple(flow(f)));
    });
    const auto owner = [](const klb::lb::MaglevTable& t, std::uint64_t f) {
      const auto id = t.lookup_id(klb::net::hash_tuple(flow(f)));
      return klb::net::IpAddr(static_cast<std::uint32_t>(id));
    };
    const double maglev_remap = remap_fraction(
        [&](std::uint64_t f) { return owner(maglev, f); },
        [&](std::uint64_t f) { return owner(maglev_shrunk, f); }, removed);

    table.row({std::to_string(dips),
               klb::testbed::fmt(hash_rate / 1e6, 2) + "M",
               klb::testbed::fmt(maglev_rate / 1e6, 2) + "M",
               klb::testbed::fmt(maglev_rate / std::max(1.0, hash_rate), 1) + "x",
               klb::testbed::fmt_pct(hash_remap),
               klb::testbed::fmt_pct(maglev_remap)});
  }
  table.print();
  std::cout << "\nmaglev pick cost is flat in the DIP count (consistent-hash "
               "table lookup);\nhash remap ~100% on any membership change vs "
               "maglev's few percent.\n";

  klb::testbed::banner("maglev table build (build_table, " +
                       std::to_string(kBuilds) + " builds per size)");
  klb::testbed::Table builds({"DIPs", "slots", "p25 ms", "median ms",
                              "p75 ms"});
  for (const std::size_t dips : {30u, 100u, 1'000u, 10'000u}) {
    const auto views = make_views(dips, rng);
    const auto size = std::max<std::size_t>(65'537, dips * 13);
    const auto ms = build_times_ms(views, size);
    builds.row({std::to_string(dips),
                std::to_string(klb::lb::MaglevTable(size).table_size()),
                klb::testbed::fmt(quantile(ms, 0.25), 3),
                klb::testbed::fmt(quantile(ms, 0.5), 3),
                klb::testbed::fmt(quantile(ms, 0.75), 3)});
  }
  builds.print();
  return 0;
}
