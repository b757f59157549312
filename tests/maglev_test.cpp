// Maglev consistent-hash dataplane tests: weighted slot apportionment,
// minimal flow remap under DIP churn, the snapshot policy's picks, the one
// table build behind every publication, the MUX backend lifecycle through
// programs and failures (stable ids, affinity GC, weights applied
// literally), and end-to-end churn under the multi-VIP controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>

#include "lb/lb_controller.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "testbed/fleet.hpp"
#include "util/rng.hpp"
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

/// Owner id per table slot.
std::vector<std::uint64_t> owners(const MaglevTable& t) {
  std::vector<std::uint64_t> out(t.table_size());
  for (std::size_t s = 0; s < t.table_size(); ++s) out[s] = t.slot_owner(s);
  return out;
}

net::FiveTuple flow(std::uint32_t client, std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(0x0a020000 + client);
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
}

/// A pool as a generation carries it: backend i at 10.1.0.(i+1).
std::vector<GenBackend> make_pool(const std::vector<std::int64_t>& weights) {
  std::vector<GenBackend> out(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i].id = i + 1;
    out[i].addr = net::IpAddr{10, 1, 0, static_cast<std::uint8_t>(i + 1)};
    out[i].weight_units = weights[i];
  }
  return out;
}

std::vector<BackendView> views_of(const std::vector<GenBackend>& pool) {
  std::vector<BackendView> out;
  for (const auto& b : pool) out.push_back(b.view());
  return out;
}

// --- MaglevTable -------------------------------------------------------------

TEST(MaglevTable, SizeRoundsUpToPrime) {
  EXPECT_EQ(MaglevTable(100).table_size(), 101u);
  EXPECT_EQ(MaglevTable(65'537).table_size(), 65'537u);
  // The fill keeps slot positions in 32 bits.
  EXPECT_THROW(MaglevTable((std::size_t{1} << 31) + 1), std::length_error);
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

  // And so do the snapshot policy's picks over flows.
  const auto pool = make_pool({5000, 3000, 2000});
  MaglevPolicy p(build_table(pool, MaglevTable::kDefaultMinSize));
  const auto views = views_of(pool);
  util::Rng rng(1);
  std::map<std::size_t, int> picks;
  const int n = 30'000;
  for (int i = 0; i < n; ++i)
    picks[p.pick(flow(static_cast<std::uint32_t>(i / 100),
                      static_cast<std::uint16_t>(i % 100)),
                 views, rng)]++;
  EXPECT_NEAR(picks[0], n * 0.5, n * 0.02);
  EXPECT_NEAR(picks[1], n * 0.3, n * 0.02);
  EXPECT_NEAR(picks[2], n * 0.2, n * 0.02);
}

TEST(MaglevTable, ZeroWeightEntryOwnsNoSlots) {
  MaglevTable t(997);
  t.build({{1, 500}, {2, 0}, {3, 500}});
  const auto counts = t.slot_counts();
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[0] + counts[2], t.table_size());
}

// A drainer keeps its place in the pool at weight 0 until its drain
// completes. Slot ownership must not depend on whether a build lists it
// (at weight 0) or leaves it out, as build_table does: that is what lets a
// drain completion keep serving the snapshot it has.
TEST(MaglevTable, ZeroWeightDrainersOwnTheSameSlotsAsAnExcludedOne) {
  util::Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<MaglevEntry> kept, excluded;
    for (std::uint64_t d = 0; d < 30; ++d) {
      const bool drainer = rng.uniform() < 0.2;
      const auto units = 1 + static_cast<std::int64_t>(rng.uniform() * 500);
      kept.push_back({0x0a010000 + d, drainer ? 0 : units});
      if (!drainer) excluded.push_back({0x0a010000 + d, units});
    }
    MaglevTable with(4999), without(4999);
    with.build(kept);
    without.build(excluded);
    ASSERT_EQ(owners(with), owners(without)) << "trial " << trial;
  }
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

/// The textbook fill, kept as the reference: every probe takes
/// (offset + j * skip) % m. Same mixer, apportionment and round-robin
/// order as MaglevTable::build, so the two must agree slot for slot.
std::vector<std::uint64_t> reference_owners(
    const std::vector<MaglevEntry>& entries, std::size_t m) {
  const auto mix64 = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  };
  std::vector<std::uint64_t> out(m, MaglevTable::kNoId);
  std::vector<std::size_t> usable;
  std::vector<double> weights;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].weight_units <= 0) continue;
    usable.push_back(i);
    weights.push_back(static_cast<double>(entries[i].weight_units));
  }
  if (usable.empty()) return out;
  const auto targets =
      util::normalize_to_units(weights, static_cast<std::int64_t>(m));
  const std::size_t n = usable.size();
  std::vector<std::size_t> offset(n), skip(n), next(n, 0), taken(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t h = mix64(entries[usable[k]].id);
    offset[k] = h % m;
    skip[k] = 1 + mix64(h ^ 0x9e3779b97f4a7c15ull) % (m - 1);
  }
  std::size_t filled = 0;
  while (filled < m) {
    for (std::size_t k = 0; k < n && filled < m; ++k) {
      if (taken[k] >= static_cast<std::size_t>(targets[k])) continue;
      std::size_t pos;
      do {
        pos = (offset[k] + next[k] * skip[k]) % m;
        ++next[k];
      } while (out[pos] != MaglevTable::kNoId);
      out[pos] = entries[usable[k]].id;
      ++taken[k];
      ++filled;
    }
  }
  return out;
}

TEST(MaglevTable, FillMatchesTheModuloReferenceSlotForSlot) {
  util::Rng rng(20'261);
  for (const std::size_t m : {3u, 7u, 251u, 65'537u}) {
    for (int trial = 0; trial < 6; ++trial) {
      // 1-300 entries with random ids, a quarter of them at weight 0.
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
      std::vector<MaglevEntry> entries(n);
      for (auto& e : entries) {
        e.id = rng.next() >> 1;
        e.weight_units = rng.bernoulli(0.25) ? 0 : rng.uniform_int(1, 500);
      }
      MaglevTable t(m);
      ASSERT_EQ(t.table_size(), m);
      t.build(entries);
      EXPECT_EQ(owners(t), reference_owners(entries, m))
          << "m " << m << " trial " << trial << " entries " << n;
    }
  }
}

TEST(MaglevTable, ReusedTableMatchesAFreshBuild) {
  // The fill's occupancy state must not outlive a build: a second build on
  // the same object, over other ids and weights, equals a fresh table's.
  util::Rng rng(20'262);
  for (const std::size_t m : {7u, 251u, 65'537u}) {
    MaglevTable reused(m);
    reused.build(equal_entries(40, 13));
    std::vector<MaglevEntry> entries(static_cast<std::size_t>(
        rng.uniform_int(1, 120)));
    for (auto& e : entries) {
      e.id = rng.next() >> 1;
      e.weight_units = rng.uniform_int(1, 500);
    }
    reused.build(entries);
    MaglevTable fresh(m);
    fresh.build(entries);
    EXPECT_EQ(owners(reused), owners(fresh)) << "m " << m;
    EXPECT_EQ(owners(reused), reference_owners(entries, m)) << "m " << m;
    // A rebuild with no weight left empties the previously full table.
    for (auto& e : entries) e.weight_units = 0;
    reused.build(entries);
    MaglevTable empty(m);
    empty.build(entries);
    EXPECT_EQ(owners(reused), owners(empty)) << "m " << m;
    EXPECT_EQ(owners(reused),
              std::vector<std::uint64_t>(m, MaglevTable::kNoId))
        << "m " << m;
  }
}

// Shapes the random sweep above misses: many entries, more entries than
// slots (so some targets are 0), one entry holding ~99% of the weight (its
// walk runs long through a nearly full table), equal weights, a single
// entry, tables smaller than a refill's probe group, and a table twice the
// default size. Both ways to build a table must match the reference.
TEST(MaglevTable, RunAheadFillMatchesTheReferenceOnEdgeShapes) {
  util::Rng rng(20'263);
  const auto random_entries = [&rng](std::size_t n, std::int64_t max_units) {
    std::vector<MaglevEntry> out(n);
    for (auto& e : out) {
      e.id = rng.next() >> 1;
      e.weight_units = rng.uniform_int(1, max_units);
    }
    return out;
  };
  auto heavy = random_entries(30, 50);
  heavy[7].weight_units = 150'000;

  struct Shape {
    std::size_t m;
    std::vector<MaglevEntry> entries;
    const char* what;
  };
  const std::vector<Shape> shapes{
      {4'099, random_entries(1'000, 500), "1000 entries"},
      {65'537, random_entries(1'000, 500), "1000 entries"},
      {251, random_entries(300, 500), "more entries than slots"},
      {65'537, heavy, "one entry at ~99% of the weight"},
      {4'099, heavy, "one entry at ~99% of the weight"},
      {65'537, equal_entries(100), "equal weights"},
      {251, equal_entries(30), "equal weights"},
      {65'537, equal_entries(1), "a single entry"},
      {3, equal_entries(1), "a single entry"},
      {3, random_entries(2, 10), "fewer slots than a probe group"},
      {3, random_entries(5, 10), "fewer slots than a probe group"},
      {7, random_entries(3, 10), "fewer slots than a probe group"},
      {7, random_entries(20, 10), "fewer slots than a probe group"},
      {131'071, random_entries(100, 500), "twice the default size"},
  };
  for (const auto& shape : shapes) {
    const auto reference = reference_owners(shape.entries, shape.m);
    MaglevTable built(shape.m);
    ASSERT_EQ(built.table_size(), shape.m);
    built.build(shape.entries);
    EXPECT_EQ(owners(built), reference) << shape.what << ", m " << shape.m;
    const MaglevTable constructed(shape.m, shape.entries);
    EXPECT_EQ(owners(constructed), reference)
        << shape.what << ", m " << shape.m;
  }

  // The shapes exercise what they are named for.
  MaglevTable crowded(251);
  crowded.build(shapes[2].entries);
  const auto crowded_counts = crowded.slot_counts();
  EXPECT_GT(std::count(crowded_counts.begin(), crowded_counts.end(), 0u), 0);
  MaglevTable skewed(65'537);
  skewed.build(heavy);
  EXPECT_GT(static_cast<double>(skewed.slot_counts()[7]),
            0.99 * static_cast<double>(skewed.table_size()));
}

// build_table allocates its table without emptying it first, so a pool
// with no weight (every backend draining, or every weight 0) must still
// yield an all-empty table, even where the allocation reuses a full one.
TEST(MaglevTable, BuildTableOverAPoolWithNoWeightIsEmpty) {
  auto draining = make_pool({5000, 3000, 2000});
  for (auto& b : draining) b.draining = true;
  auto zero = make_pool({0, 0, 0});
  for (const auto* pool : {&draining, &zero}) {
    build_table(make_pool({5000, 3000, 2000}), 997).reset();
    const auto table = build_table(*pool, 997);
    EXPECT_EQ(owners(*table),
              std::vector<std::uint64_t>(table->table_size(),
                                         MaglevTable::kNoId));
    util::Rng rng(1);
    MaglevPolicy policy(table);
    EXPECT_EQ(policy.pick(flow(1, 80), views_of(*pool), rng), kNoBackend);
  }
}

// --- MaglevPolicy ------------------------------------------------------------

TEST(MaglevPolicy, FactoryGivesAnEmptyTableOfDefaultGeometry) {
  const auto p = make_policy("maglev");
  EXPECT_EQ(p->name(), "maglev");
  const auto table = p->maglev_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->table_size(), MaglevTable::kDefaultMinSize);
  util::Rng rng(1);
  EXPECT_EQ(p->pick(flow(1, 80), views_of(make_pool({5000})), rng),
            kNoBackend);
}

TEST(MaglevPolicy, PicksAreAffineToTuple) {
  const auto pool = make_pool({5000, 3000, 2000});
  MaglevPolicy p(build_table(pool, MaglevTable::kDefaultMinSize));
  util::Rng rng(1);
  const auto views = views_of(pool);
  const auto t = flow(1, 12'345);
  const auto first = p.pick(t, views, rng);
  ASSERT_NE(first, kNoBackend);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.pick(t, views, rng), first);
  // The pick is the table's owner, found by address.
  EXPECT_EQ(views[first].addr.value(),
            p.maglev_table()->lookup_id(net::hash_tuple(t)));
}

TEST(MaglevPolicy, DrainingBackendExcluded) {
  auto pool = make_pool({5000, 3000, 2000});
  pool[1].draining = true;
  MaglevPolicy p(build_table(pool, MaglevTable::kDefaultMinSize));
  util::Rng rng(1);
  const auto views = views_of(pool);
  for (int i = 0; i < 200; ++i)
    EXPECT_NE(p.pick(flow(static_cast<std::uint32_t>(i), 80), views, rng), 1u);
  const auto o = owners(*p.maglev_table());
  EXPECT_EQ(std::count(o.begin(), o.end(), pool[1].addr.value()), 0);
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

/// Backend `i`'s counters, read from one backends() snapshot.
std::shared_ptr<BackendCounters> counters_of(const Mux& mux, std::size_t i) {
  return mux.backends()[i].counters;
}

/// `mux` serves exactly a fresh build over its current pool's
/// non-draining backends, at the served table's geometry.
void expect_serves_fresh_build(const Mux& mux) {
  const auto served = mux.table_snapshot();
  ASSERT_NE(served, nullptr);
  std::vector<MaglevEntry> entries;
  for (const auto& b : mux.backends())
    if (!b.draining) entries.push_back({b.addr.value(), b.weight_units});
  MaglevTable fresh(served->table_size());
  fresh.build(entries);
  EXPECT_EQ(owners(*served), owners(fresh));
}

// Every publication of a standalone maglev Mux serves the one build over
// its pool: a program, a failure and a policy swap each build it, and a
// drain completion — whose drainer owned no slots — keeps the snapshot.
TEST(MuxChurn, EveryPublicationServesTheBuildOverItsPool) {
  ChurnFixture f;
  const net::IpAddr d{10, 1, 0, 4};
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux,
                        {{f.a, 4000}, {f.b, 3000}, {f.c, 2000}, {d, 1000}});
  expect_serves_fresh_build(mux);

  ASSERT_TRUE(mux.fail_backend(d));
  expect_serves_fresh_build(mux);

  const auto before_swap = mux.table_snapshot();
  mux.set_policy(make_policy("maglev"));
  EXPECT_NE(mux.table_snapshot(), before_swap);  // rebuilt, not the empty one
  expect_serves_fresh_build(mux);

  // Pin one flow, then drain its backend: the program's build leaves the
  // drainer out while the drainer keeps serving the pinned flow.
  f.net.send(f.vip, f.request(1, 443));
  f.sim.run_all();
  const auto pool = mux.backends();
  std::size_t owner = 0;
  while (pool[owner].counters->active == 0) ++owner;
  PoolProgram drain(mux.issue_version());
  for (const auto& b : pool)
    drain.add(b.addr, b.weight_units,
              b.addr == pool[owner].addr ? BackendState::kDraining
                                         : BackendState::kActive);
  mux.apply_program(drain);
  ASSERT_EQ(mux.draining_count(), 1u);
  expect_serves_fresh_build(mux);

  // The FIN empties the drainer and completes the drain: one more
  // publication, serving the pointer-equal snapshot.
  const auto before_completion = mux.table_snapshot();
  const auto published = mux.counters().generations_published;
  f.net.send(f.vip, f.fin(1, 443));
  f.sim.run_all();
  EXPECT_EQ(mux.counters().drains_completed, 1u);
  EXPECT_EQ(mux.counters().generations_published, published + 1);
  EXPECT_EQ(mux.backend_count(), 2u);
  EXPECT_EQ(mux.table_snapshot(), before_completion);
  expect_serves_fresh_build(mux);
}

TEST(MuxChurn, StableIdsSurviveRemoval) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, 3334}, {f.b, 3333}, {f.c, 3333}});
  const auto before = mux.backends();
  EXPECT_NE(before[0].id, before[1].id);

  ChurnFixture::program(mux, {{f.b, 5000}, {f.c, 5000}});  // a omitted
  // Indices shifted, ids did not.
  const auto after = mux.backends();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].id, before[1].id);
  EXPECT_EQ(after[1].id, before[2].id);
}

TEST(MuxChurn, RemovedBackendDropsItsAffinityOnly) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, 5000}, {f.b, 5000}});

  for (std::uint32_t c = 0; c < 200; ++c)
    f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  ASSERT_EQ(mux.affinity_size(), 200u);
  const auto conns_kept = counters_of(mux, 1)->active;
  ASSERT_GT(conns_kept, 0u);

  PoolProgram removal(mux.issue_version());
  removal.add(f.a, 0, BackendState::kRemoved).add(f.b, util::kWeightScale);
  mux.apply_program(removal);
  EXPECT_EQ(mux.counters().flows_dropped_by_removal, 200u - conns_kept);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
  EXPECT_EQ(mux.affinity_size(), conns_kept);
  // The survivor, at its new index.
  EXPECT_EQ(counters_of(mux, 0)->active, conns_kept);
}

TEST(MuxChurn, FailedBackendFlowsRetryOnSurvivors) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, 5000}, {f.b, 5000}});

  for (std::uint32_t c = 0; c < 100; ++c)
    f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  const auto on_failed = counters_of(mux, 0)->active;
  ASSERT_GT(on_failed, 0u);

  ASSERT_TRUE(mux.fail_backend(f.a));
  EXPECT_EQ(mux.counters().flows_reset_by_failure, on_failed);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);

  // The reset clients reconnect: all flows land on the survivor now.
  for (std::uint32_t c = 0; c < 100; ++c)
    f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  EXPECT_EQ(counters_of(mux, 0)->active, 100u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

TEST(MuxChurn, AffinityGcReclaimsIdleFlows) {
  ChurnFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  ChurnFixture::program(mux, {{f.a, util::kWeightScale}});
  mux.set_affinity_idle_timeout(10_s);

  for (std::uint32_t c = 0; c < 5; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  ASSERT_EQ(counters_of(mux, 0)->active, 5u);

  f.sim.run_for(6_s);
  f.net.send(f.vip, f.request(0, 443));  // flow 0 stays active
  f.sim.run_all();
  f.sim.run_for(6_s);  // flows 1-4 now idle > 10 s, flow 0 idle ~6 s

  EXPECT_EQ(mux.gc_affinity(), 4u);
  EXPECT_EQ(mux.affinity_size(), 1u);
  EXPECT_EQ(counters_of(mux, 0)->active, 1u);
  EXPECT_EQ(mux.counters().flows_gced_idle, 4u);

  // A FIN for a reclaimed flow is a no-op, not an underflow.
  f.net.send(f.vip, f.fin(1, 443));
  f.sim.run_all();
  EXPECT_EQ(counters_of(mux, 0)->active, 1u);
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
  const auto pool = mux.backends();
  const auto on_a = static_cast<double>(pool[0].counters->connections);
  const auto on_b = static_cast<double>(pool[1].counters->connections);
  EXPECT_NEAR(on_a / (on_a + on_b), 0.625, 0.03);
}

// --- churn under the multi-VIP controller ------------------------------------

TEST(FleetChurn, ScaleOutScaleInAndFailureKeepWeightsSound) {
  testbed::SyntheticFleet fleet(2, 4, core::MultiVipConfig{}, /*seed=*/7);

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
