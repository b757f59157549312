// Maglev consistent-hash dataplane tests: weighted slot apportionment,
// minimal flow remap under DIP churn, the MUX backend lifecycle through
// programs and failures (stable ids, affinity GC, weights applied
// literally), and end-to-end churn under the multi-VIP controller.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "lb/lb_controller.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "testbed/fleet.hpp"
#include "util/weight.hpp"

namespace klb::lb {
namespace {

using namespace util::literals;

std::int64_t sum_units(const std::vector<std::int64_t>& units) {
  return std::accumulate(units.begin(), units.end(), std::int64_t{0});
}

std::vector<MaglevEntry> equal_entries(std::size_t n,
                                       std::int64_t weight = 100) {
  std::vector<MaglevEntry> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = MaglevEntry{1000 + i, weight};
  return out;
}

/// Owner id per table slot (probing hash h in [0, M) hits slot h % M = h).
std::vector<std::uint64_t> owners(const MaglevTable& t) {
  std::vector<std::uint64_t> out(t.table_size());
  for (std::size_t s = 0; s < t.table_size(); ++s) out[s] = t.lookup_id(s);
  return out;
}

// --- MaglevTable -------------------------------------------------------------

TEST(MaglevTable, SizeRoundsUpToPrime) {
  EXPECT_EQ(MaglevTable(100).table_size(), 101u);
  EXPECT_EQ(MaglevTable(65'537).table_size(), 65'537u);
}

TEST(MaglevTable, SlotCountsProportionalToWeights) {
  MaglevTable t(10'007);
  const std::vector<MaglevEntry> entries{
      {1, 1000}, {2, 2000}, {3, 3000}, {4, 4000}};
  t.build(entries);

  const auto counts = t.slot_counts();
  ASSERT_EQ(counts.size(), entries.size());
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
            t.table_size());
  // Largest-remainder apportionment: exact to within one slot.
  const double m = static_cast<double>(t.table_size());
  EXPECT_NEAR(counts[0], m * 0.1, 1.0);
  EXPECT_NEAR(counts[1], m * 0.2, 1.0);
  EXPECT_NEAR(counts[2], m * 0.3, 1.0);
  EXPECT_NEAR(counts[3], m * 0.4, 1.0);
}

TEST(MaglevTable, ZeroWeightEntryOwnsNoSlots) {
  MaglevTable t(997);
  t.build({{1, 500}, {2, 0}, {3, 500}});
  const auto counts = t.slot_counts();
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[0] + counts[2], t.table_size());
}

TEST(MaglevTable, EmptyPoolMapsNothing) {
  MaglevTable t(997);
  t.build({});
  EXPECT_EQ(t.lookup(123), MaglevTable::kEmptySlot);
  EXPECT_EQ(t.lookup_id(123), MaglevTable::kNoId);
  t.build({{1, 0}});  // all weights zero behaves the same
  EXPECT_EQ(t.lookup(123), MaglevTable::kEmptySlot);
}

TEST(MaglevTable, SingleRemovalRemapsFewSlots) {
  MaglevTable before(65'537);
  MaglevTable after(65'537);
  auto entries = equal_entries(100);
  before.build(entries);
  const std::uint64_t removed = entries[50].id;
  entries.erase(entries.begin() + 50);
  after.build(entries);

  const auto a = owners(before);
  const auto b = owners(after);
  std::size_t moved = 0;  // slots that changed owner without having to
  for (std::size_t s = 0; s < a.size(); ++s)
    if (a[s] != removed && a[s] != b[s]) ++moved;
  // The removed DIP owned ~1% of slots; collateral churn must stay small.
  // `hash % n` would remap ~99% of them.
  EXPECT_LT(static_cast<double>(moved) / static_cast<double>(a.size()), 0.05);
}

TEST(MaglevTable, SingleAddRemapsFewSlots) {
  MaglevTable before(65'537);
  MaglevTable after(65'537);
  auto entries = equal_entries(100);
  before.build(entries);
  entries.push_back(MaglevEntry{9999, 100});
  after.build(entries);

  const auto a = owners(before);
  const auto b = owners(after);
  std::size_t moved = 0;  // changed owner but not to the newcomer
  for (std::size_t s = 0; s < a.size(); ++s)
    if (b[s] != 9999 && a[s] != b[s]) ++moved;
  EXPECT_LT(static_cast<double>(moved) / static_cast<double>(a.size()), 0.05);
}

TEST(MaglevTable, RebuildIsDeterministic) {
  MaglevTable t1(4999);
  MaglevTable t2(4999);
  const auto entries = equal_entries(20, 37);
  t1.build(entries);
  t2.build(entries);
  EXPECT_EQ(owners(t1), owners(t2));
}

// --- MaglevPolicy ------------------------------------------------------------

net::FiveTuple flow(std::uint32_t client, std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(0x0a020000 + client);
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
}

std::vector<BackendView> make_views(std::vector<std::int64_t> weights) {
  std::vector<BackendView> out;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    BackendView v;
    v.addr = net::IpAddr{10, 1, 0, static_cast<std::uint8_t>(i + 1)};
    v.weight_units = weights[i];
    out.push_back(v);
  }
  return out;
}

TEST(MaglevPolicy, FactoryBuildsIt) {
  const auto p = make_policy("maglev");
  EXPECT_EQ(p->name(), "maglev");
  EXPECT_NE(p->maglev_table(), nullptr);
}

TEST(MaglevPolicy, PicksAreAffineToTuple) {
  MaglevPolicy p;
  util::Rng rng(1);
  const auto views = make_views({5000, 3000, 2000});
  const auto t = flow(1, 12'345);
  const auto first = p.pick(t, views, rng);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.pick(t, views, rng), first);
}

TEST(MaglevPolicy, PickDistributionFollowsWeights) {
  MaglevPolicy p;
  util::Rng rng(1);
  const auto views = make_views({5000, 3000, 2000});
  std::map<std::size_t, int> counts;
  const int n = 30'000;
  for (int i = 0; i < n; ++i)
    counts[p.pick(flow(static_cast<std::uint32_t>(i / 100),
                       static_cast<std::uint16_t>(i % 100)),
                  views, rng)]++;
  EXPECT_NEAR(counts[0], n * 0.5, n * 0.02);
  EXPECT_NEAR(counts[1], n * 0.3, n * 0.02);
  EXPECT_NEAR(counts[2], n * 0.2, n * 0.02);
}

TEST(MaglevPolicy, DisabledBackendExcludedAfterInvalidate) {
  MaglevPolicy p;
  util::Rng rng(1);
  auto views = make_views({5000, 3000, 2000});
  views[1].enabled = false;
  p.invalidate();
  for (int i = 0; i < 200; ++i)
    EXPECT_NE(p.pick(flow(static_cast<std::uint32_t>(i), 80), views, rng), 1u);
}

TEST(MaglevPolicy, SingleDipRemovalRemapsFewFlows) {
  MaglevPolicy p;
  util::Rng rng(1);
  std::vector<std::int64_t> weights(50, 200);
  auto views = make_views(weights);

  const int flows = 20'000;
  std::vector<net::IpAddr> before(flows);
  for (int i = 0; i < flows; ++i)
    before[i] = views[p.pick(flow(static_cast<std::uint32_t>(i), 443),
                             views, rng)].addr;

  const auto removed = views[25].addr;
  views.erase(views.begin() + 25);
  p.invalidate();

  int moved = 0;
  for (int i = 0; i < flows; ++i) {
    const auto now = views[p.pick(flow(static_cast<std::uint32_t>(i), 443),
                                  views, rng)].addr;
    if (before[i] != removed && now != before[i]) ++moved;
  }
  EXPECT_LT(static_cast<double>(moved) / flows, 0.05);
}

// --- Mux lifecycle with the maglev policy ------------------------------------

struct ChurnFixture {
  sim::Simulation sim{17};
  net::Network net{sim};
  net::IpAddr vip{10, 0, 0, 1};
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2}, c{10, 1, 0, 3};

  /// Commit `entries` (address, weight units) as the whole pool.
  static void program(Mux& mux,
                      std::vector<std::pair<net::IpAddr, std::int64_t>> entries) {
    PoolProgram p(mux.issue_version());
    for (const auto& [addr, units] : entries) p.add(addr, units);
    mux.apply_program(p);
  }

  net::Message request(std::uint32_t client, std::uint16_t port) {
    net::Message m;
    m.type = net::MsgType::kHttpRequest;
    m.tuple = flow(client, port);
    return m;
  }

  net::Message fin(std::uint32_t client, std::uint16_t port) {
    net::Message m;
    m.type = net::MsgType::kFin;
    m.tuple = flow(client, port);
    return m;
  }
};

TEST(MuxChurn, StableIdsSurviveRemoval) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, 3334}, {f.b, 3333}, {f.c, 3333}});
  const auto id1 = mux.backend_id(0);
  const auto id2 = mux.backend_id(1);
  const auto id3 = mux.backend_id(2);
  EXPECT_NE(id1, id2);

  ChurnFixture::program(mux, {{f.b, 5000}, {f.c, 5000}});  // a omitted
  // Indices shifted, ids did not.
  EXPECT_EQ(mux.index_of_id(id2), std::optional<std::size_t>{0});
  EXPECT_EQ(mux.index_of_id(id3), std::optional<std::size_t>{1});
  EXPECT_FALSE(mux.index_of_id(id1).has_value());
}

TEST(MuxChurn, RemovedBackendDropsItsAffinityOnly) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, 5000}, {f.b, 5000}});

  for (std::uint32_t c = 0; c < 200; ++c)
    f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  ASSERT_EQ(mux.affinity_size(), 200u);
  const auto conns_kept = mux.active_connections(1);
  ASSERT_GT(conns_kept, 0u);

  PoolProgram removal(mux.issue_version());
  removal.add(f.a, 0, BackendState::kRemoved).add(f.b, util::kWeightScale);
  mux.apply_program(removal);
  EXPECT_EQ(mux.counters().flows_dropped_by_removal, 200u - conns_kept);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
  EXPECT_EQ(mux.affinity_size(), conns_kept);
  EXPECT_EQ(mux.active_connections(0), conns_kept);  // survivor, new index
}

TEST(MuxChurn, FailedBackendFlowsRetryOnSurvivors) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, 5000}, {f.b, 5000}});

  for (std::uint32_t c = 0; c < 100; ++c)
    f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  const auto on_failed = mux.active_connections(0);
  ASSERT_GT(on_failed, 0u);

  ASSERT_TRUE(mux.fail_backend(f.a));
  EXPECT_EQ(mux.counters().flows_reset_by_failure, on_failed);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);

  // The reset clients reconnect: all flows land on the survivor now.
  for (std::uint32_t c = 0; c < 100; ++c)
    f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  EXPECT_EQ(mux.active_connections(0), 100u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

TEST(MuxChurn, AffinityGcReclaimsIdleFlows) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, util::kWeightScale}});
  mux.set_affinity_idle_timeout(10_s);

  for (std::uint32_t c = 0; c < 5; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  ASSERT_EQ(mux.active_connections(0), 5u);

  f.sim.run_for(6_s);
  f.net.send(f.vip, f.request(0, 443));  // flow 0 stays active
  f.sim.run_all();
  f.sim.run_for(6_s);  // flows 1-4 now idle > 10 s, flow 0 idle ~6 s

  EXPECT_EQ(mux.gc_affinity(), 4u);
  EXPECT_EQ(mux.affinity_size(), 1u);
  EXPECT_EQ(mux.active_connections(0), 1u);
  EXPECT_EQ(mux.counters().flows_gced_idle, 4u);

  // A FIN for a reclaimed flow is a no-op, not an underflow.
  f.net.send(f.vip, f.fin(1, 443));
  f.sim.run_all();
  EXPECT_EQ(mux.active_connections(0), 1u);
}

TEST(MuxChurn, WeightsSteerAfterChurnWithMaglev) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, 5000}, {f.b, 3000}, {f.c, 2000}});
  ChurnFixture::program(mux, {{f.a, 5000}, {f.b, 3000}});  // c leaves

  // Survivors keep their programmed units (nothing rescales them); the
  // maglev table apportions by ratio, so new flows split 5:3.
  EXPECT_EQ(mux.weight_units(), (std::vector<std::int64_t>{5000, 3000}));
  for (std::uint32_t c = 0; c < 4000; ++c)
    f.net.send(f.vip, f.request(c, 8080));
  f.sim.run_all();
  const auto total = static_cast<double>(mux.new_connections(0) +
                                         mux.new_connections(1));
  EXPECT_NEAR(static_cast<double>(mux.new_connections(0)) / total, 0.625,
              0.03);
}

// --- churn under the multi-VIP controller ------------------------------------

TEST(FleetChurn, ScaleOutScaleInAndFailureKeepWeightsSound) {
  core::MultiVipConfig cfg;
  cfg.solver_threads = 1;
  testbed::SyntheticFleet fleet(2, 4, cfg, /*seed=*/7);

  fleet.tick_round();  // initial ILP over the injected curves
  auto& sink = fleet.lb(0);
  ASSERT_EQ(sink.last_units().size(), 4u);
  EXPECT_EQ(sum_units(sink.last_units()), util::kWeightScale);

  // Scale-out mid-run: the new DIP joins Ready and the ILP redistributes.
  const auto added = fleet.scale_out(0, /*wmax=*/0.4, /*l0=*/1.2);
  fleet.tick_round();
  EXPECT_EQ(sink.backend_count(), 5u);
  ASSERT_EQ(sink.last_units().size(), 5u);
  EXPECT_EQ(sum_units(sink.last_units()), util::kWeightScale);
  EXPECT_GT(sink.last_units()[added], 0);  // newcomer carries traffic

  // Scale-in: remove it again.
  fleet.scale_in(0, added);
  fleet.tick_round();
  EXPECT_EQ(sink.backend_count(), 4u);
  ASSERT_EQ(sink.last_units().size(), 4u);
  EXPECT_EQ(sum_units(sink.last_units()), util::kWeightScale);

  // Abrupt failure mid-run: the dead DIP leaves the desired pool entirely
  // (a restated kActive weight-0 entry would re-admit the corpse, which
  // unweighted policies still pick) and the survivors rerun.
  fleet.fail_dip(0, 1);
  fleet.tick_round();
  EXPECT_EQ(sink.backend_count(), 3u);
  ASSERT_EQ(sink.last_units().size(), 3u);
  EXPECT_EQ(sum_units(sink.last_units()), util::kWeightScale);

  // No transaction was ever discarded: the coordinator's programs commit
  // in issue order (size races are structurally unreachable now).
  EXPECT_EQ(sink.superseded_programs(), 0u);

  // Steady state after churn: a forced rerun reproduces the same weights —
  // untouched backends keep their programmed units exactly.
  const auto settled = sink.last_units();
  fleet.coordinator().controller(0).mark_dirty();
  fleet.tick_round();
  EXPECT_EQ(sink.last_units(), settled);

  // The neighbouring VIP never saw the churn.
  EXPECT_EQ(fleet.lb(1).backend_count(), 4u);
  EXPECT_EQ(sum_units(fleet.lb(1).last_units()), util::kWeightScale);
  EXPECT_EQ(fleet.lb(1).superseded_programs(), 0u);
}

}  // namespace
}  // namespace klb::lb
