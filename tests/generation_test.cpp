// Pool-generation publication tests: the EpochDomain reclamation
// primitive in isolation, the Mux's generation lifecycle counters through
// control-plane mutations, and the single-owner swap's contract checked
// after every publication while bursts of traffic run between programs,
// failures, drains and idle GC — park/reweight/drain programs and GC-driven
// drain completion (every generation whole, the superseded one gone),
// MuxPool::fail_backend condemnation (conservation + stale re-admission
// refusal), and fresh connections resolved from the current generation's
// table between reweighting and parking commits.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lb/epoch.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/mux_pool.hpp"
#include "lb/policy.hpp"
#include "lb/pool_generation.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "testbed/invariants.hpp"
#include "util/weight.hpp"

namespace klb::lb {
namespace {

net::FiveTuple flow(std::uint32_t client, std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(0x0a020000 + client);
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
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

net::IpAddr dip_addr(std::size_t d) {
  return net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d + 1));
}

PoolProgram equal_program(std::uint64_t version, std::size_t dips) {
  PoolProgram p(version);
  for (std::size_t d = 0; d < dips; ++d)
    p.add(dip_addr(d),
          static_cast<std::int64_t>(util::kWeightScale / dips));
  return p;
}

/// `equal_program` over `dips`, with DIP `parked` (if any) at weight 0.
PoolProgram parked_program(std::uint64_t version, std::size_t dips,
                           std::optional<std::size_t> parked) {
  PoolProgram p = equal_program(version, dips);
  if (parked) p.entries[*parked].weight_units = 0;
  return p;
}

// --- EpochDomain in isolation ------------------------------------------------

TEST(EpochDomainTest, RetireWithoutReadersReclaims) {
  EpochDomain dom;
  auto obj = std::make_shared<int>(42);
  std::weak_ptr<int> watch = obj;
  const auto e0 = dom.epoch();
  dom.retire(std::shared_ptr<const void>(std::move(obj)));
  EXPECT_EQ(dom.epoch(), e0 + 1);  // one bump per retire
  dom.reclaim();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(dom.pending_retired(), 0u);
  EXPECT_EQ(dom.retired_total(), 1u);
  EXPECT_EQ(dom.reclaimed_total(), 1u);
  EXPECT_EQ(dom.oldest_live_epoch(), dom.epoch());
}

TEST(EpochDomainTest, PinnedReaderDefersReclaim) {
  EpochDomain dom;
  auto guard = dom.pin();  // reader pinned at the pre-retire epoch
  ASSERT_TRUE(guard.active());
  EXPECT_EQ(dom.oldest_live_epoch(), dom.epoch());

  auto obj = std::make_shared<int>(7);
  std::weak_ptr<int> watch = obj;
  dom.retire(std::shared_ptr<const void>(std::move(obj)));

  // The pin predates the retire tag: the object must survive reclaim.
  EXPECT_EQ(dom.reclaim(), 0u);
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(dom.pending_retired(), 1u);
  EXPECT_LT(dom.oldest_live_epoch(), dom.epoch());

  guard.release();
  EXPECT_FALSE(guard.active());
  EXPECT_EQ(dom.reclaim(), 1u);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(dom.pending_retired(), 0u);
  EXPECT_EQ(dom.oldest_live_epoch(), dom.epoch());
}

TEST(EpochDomainTest, LaterPinDoesNotBlockEarlierRetire) {
  EpochDomain dom;
  auto early = dom.pin();
  auto obj = std::make_shared<int>(1);
  std::weak_ptr<int> watch = obj;
  dom.retire(std::shared_ptr<const void>(std::move(obj)));
  EXPECT_FALSE(watch.expired());  // the early pin holds it
  // Pinned *after* the retire bump: this reader can only see post-retire
  // state, so once the early pin goes it must not hold the object back.
  auto late = dom.pin();
  early.release();
  EXPECT_EQ(dom.reclaim(), 1u);
  EXPECT_TRUE(watch.expired());
}

TEST(EpochDomainTest, GuardMoveTransfersTheSlot) {
  EpochDomain dom;
  auto a = dom.pin();
  EXPECT_TRUE(a.active());
  EpochDomain::Guard b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): asserting it
  EXPECT_TRUE(b.active());
  auto obj = std::make_shared<int>(3);
  dom.retire(std::shared_ptr<const void>(std::move(obj)));
  EXPECT_EQ(dom.reclaim(), 0u);  // still pinned through b
  b.release();
  EXPECT_EQ(dom.reclaim(), 1u);
}

// --- Mux generation lifecycle ------------------------------------------------

// index_of / index_of_addr read flat arrays built once per generation:
// every carried id and address resolves to its position (a repeated
// address to its last), and anything else misses — with sparse 64-bit
// ids and enough backends that probe runs collide.
TEST(GenerationTest, IndexesResolveEveryBackendAndMissEverythingElse) {
  std::vector<GenBackend> backends;
  for (std::uint64_t i = 0; i < 100; ++i) {
    GenBackend b;
    b.id = (i * 0x9e3779b97f4a7c15ull) | 1;  // sparse, never 0
    b.addr = net::IpAddr{10, 1, static_cast<std::uint8_t>(i / 200),
                         static_cast<std::uint8_t>(1 + i % 200)};
    backends.push_back(b);
  }
  backends[99].addr = backends[3].addr;  // duplicate address: last wins
  const PoolGeneration gen(1, 1, backends, make_policy("rr"));
  for (std::size_t i = 0; i < backends.size(); ++i) {
    EXPECT_EQ(gen.index_of(backends[i].id), std::optional<std::size_t>(i));
    if (i != 3) {
      EXPECT_EQ(gen.index_of_addr(backends[i].addr.value()),
                std::optional<std::size_t>(i));
    }
  }
  EXPECT_EQ(gen.index_of_addr(backends[3].addr.value()),
            std::optional<std::size_t>(99));
  EXPECT_FALSE(gen.index_of(0).has_value());
  EXPECT_FALSE(gen.index_of(2).has_value());
  EXPECT_FALSE(gen.index_of_addr(net::IpAddr{10, 9, 9, 9}.value()).has_value());
  const PoolGeneration empty(2, 1, {}, make_policy("rr"));
  EXPECT_FALSE(empty.index_of(1).has_value());
  EXPECT_FALSE(empty.index_of_addr(0).has_value());
}

TEST(GenerationTest, EveryControlMutationPublishesAndDestroysItsPredecessor) {
  const auto live0 = PoolGeneration::live_count();
  {
    sim::Simulation sim(5);
    net::Network net(sim);
    net.set_blackhole(true);
    Mux mux(net, {10, 0, 0, 1}, make_policy("maglev"));

    // The constructor publishes generation 1 (empty pool).
    EXPECT_EQ(mux.counters().generations_published, 1u);
    EXPECT_EQ(mux.generation_seq(), 1u);

    mux.apply_program(equal_program(mux.issue_version(), 4));
    EXPECT_EQ(mux.counters().generations_published, 2u);

    // One publication per mutation: a program (grow, park, restore), a
    // failure, a policy swap.
    auto bump = [&mux](auto&& op) {
      const auto before = mux.counters().generations_published;
      op();
      EXPECT_EQ(mux.counters().generations_published, before + 1);
    };
    bump([&] { mux.apply_program(equal_program(mux.issue_version(), 5)); });
    bump([&] { mux.apply_program(parked_program(mux.issue_version(), 5, 0)); });
    bump([&] {
      mux.apply_program(parked_program(mux.issue_version(), 5, std::nullopt));
    });
    bump([&] { EXPECT_TRUE(mux.fail_backend(dip_addr(4))); });
    bump([&] { mux.set_policy(make_policy("maglev")); });

    // Only the current generation lives.
    testbed::InvariantChecker check;
    check.quiesced(mux, 0, 0);
    EXPECT_TRUE(check.ok()) << check.report();
    EXPECT_TRUE(mux.generation().self_check());
    EXPECT_EQ(PoolGeneration::live_count(), live0 + 1);
  }
  // The Mux's destructor must take its last generation with it.
  EXPECT_EQ(PoolGeneration::live_count(), live0);
}


/// Opens, mid-flow requests and FINs for `count` fresh clients starting at
/// `first`, as one burst: each flow sends an opener, `mid` more requests
/// and a FIN.
struct Burst {
  std::vector<net::Message> msgs;
  std::vector<const net::Message*> ptrs;

  Burst(std::uint32_t first, std::uint32_t count, std::uint32_t mid,
        std::uint16_t port, bool fin_too = true) {
    for (std::uint32_t q = 0; q <= mid; ++q)
      for (std::uint32_t c = first; c < first + count; ++c)
        msgs.push_back(request(c, port));
    if (fin_too)
      for (std::uint32_t c = first; c < first + count; ++c)
        msgs.push_back(fin(c, port));
    for (const auto& m : msgs) ptrs.push_back(&m);
  }
  void into(Mux& mux) const { mux.handle_batch(ptrs.data(), ptrs.size()); }
  void into(MuxPool& pool) const { pool.on_batch(ptrs.data(), ptrs.size()); }
};

/// What every publication must leave behind: the current generation is
/// whole (its structural checksum holds), its table routes only to its
/// own members that take new connections, and exactly `live_muxes`
/// generations exist beyond `live0` — the superseded one is gone.
void expect_whole(const Mux& mux, std::uint64_t live0,
                  std::uint64_t live_muxes, const std::string& where) {
  const auto& gen = mux.generation();
  EXPECT_TRUE(gen.self_check()) << where;
  if (const auto* table = gen.maglev_table()) {
    for (std::size_t s = 0; s < table->table_size(); ++s) {
      const auto owner = table->slot_owner(s);
      if (owner == MaglevTable::kNoId) continue;
      const auto idx = gen.index_of_addr(static_cast<std::uint32_t>(owner));
      ASSERT_TRUE(idx.has_value())
          << where << ": slot " << s << " routes to a non-member";
      const auto& b = gen.backends()[*idx];
      ASSERT_TRUE(!b.draining && b.weight_units > 0)
          << where << ": slot " << s << " routes to " << b.addr.str()
          << ", which takes no new connections";
    }
  }
  EXPECT_EQ(PoolGeneration::live_count(), live0 + live_muxes) << where;
  EXPECT_EQ(mux.pending_retired_generations(), 0u) << where;
}

void expect_whole(const MuxPool& pool, std::uint64_t live0,
                  std::uint64_t live_muxes, const std::string& where) {
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    expect_whole(pool.mux(k), live0, live_muxes,
                 where + ", member " + std::to_string(k));
}

// Programs park backends at weight 0, shuffle weights, drain backends and
// re-admit them, while bursts of flows run between them. A drainer's last
// flow goes either by idle GC (flows that never FIN) or by a FIN in the
// middle of a burst; both complete the drain from inside the packet path.
// Every publication, wherever it comes from, must leave a whole
// generation and destroy its predecessor.
TEST(GenerationTest, ProgramsDrainsAndIdleGcBetweenBurstsKeepGenerationsWhole) {
  constexpr std::size_t kDips = 8;
  const auto live0 = PoolGeneration::live_count();
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  Mux mux(net, {10, 0, 0, 1}, std::make_unique<MaglevPolicy>(251));
  mux.set_affinity_idle_timeout(util::SimTime::seconds(1));
  auto published = mux.counters().generations_published;
  auto check = [&](const std::string& where) {
    const auto now = mux.counters().generations_published;
    if (now != published) expect_whole(mux, live0, 1, where);
    published = now;
  };

  std::vector<std::int64_t> units(kDips, util::kWeightScale / kDips);
  auto program = [&](std::optional<std::size_t> parked,
                     std::optional<std::size_t> draining) {
    PoolProgram p(mux.issue_version());
    for (std::size_t d = 0; d < kDips; ++d) {
      if (draining == d) {
        p.add(dip_addr(d), 0, BackendState::kDraining);
      } else {
        p.add(dip_addr(d), parked == d ? 0 : units[d]);
      }
    }
    mux.apply_program(p);
    check("program");
  };

  // Connections a completed drain took with it: a removed backend's
  // counters leave the pool, so conservation counts only the survivors'.
  std::uint64_t sent = 0, opened = 0, drained_conns = 0;
  std::uint32_t client = 0;
  for (int k = 0; k < 120; ++k) {
    const auto i = static_cast<std::size_t>(k) % kDips;
    program(i, std::nullopt);
    Burst(client, 12, 2, 5000).into(mux);
    client += 12, sent += 36, opened += 12;
    check("burst after parking");
    if (k % 5 == 0) {
      for (std::size_t d = 0; d < kDips; ++d)
        units[d] = 64 + static_cast<std::int64_t>((d + k) % 7) * 8;
      program(i, std::nullopt);
    }
    if (k % 10 == 3) {
      // Flows that never FIN, then a drain of their backends' neighbour:
      // the drainer keeps its pinned flows until idle GC reclaims them.
      Burst(client, 16, 1, 6000, /*fin_too=*/false).into(mux);
      client += 16, sent += 32, opened += 16;
      check("unfinished burst");
      // Parked from the drain on, so its connection count is final (the
      // drain may complete inside the program, if no flow is pinned).
      for (const auto& b : mux.backends())
        if (b.addr == dip_addr((i + 1) % kDips))
          drained_conns += b.counters->connections;
      program(std::nullopt, (i + 1) % kDips);
      sim.run_for(util::SimTime::seconds(2));  // every open flow goes idle
      // Enough traffic to trigger the amortized inline GC on every shard.
      for (int b = 0; b < 24; ++b) {
        Burst(client, 16, 15, 7000).into(mux);
        client += 16, sent += 256, opened += 16;
        check("burst with inline GC");
      }
      mux.gc_affinity();
      check("explicit GC");
      EXPECT_EQ(mux.draining_count(), 0u) << "the idle drain completed";
    }
    if (k % 10 == 7) {
      // Open flows, drain a backend that holds some of them, then FIN them
      // all in one burst: the FIN that empties the drainer completes the
      // drain from inside the packet path, mid-burst.
      const auto j = (i + 2) % kDips;
      Burst(client, 32, 0, 8000, /*fin_too=*/false).into(mux);
      sent += 32, opened += 32;
      check("burst before the FIN drain");
      for (const auto& b : mux.backends())
        if (b.addr == dip_addr(j)) drained_conns += b.counters->connections;
      program(std::nullopt, j);
      std::vector<net::Message> fins;
      for (std::uint32_t c = client; c < client + 32; ++c)
        fins.push_back(fin(c, 8000));
      std::vector<const net::Message*> ptrs;
      for (const auto& m : fins) ptrs.push_back(&m);
      mux.handle_batch(ptrs.data(), ptrs.size());
      client += 32;
      check("FIN burst");
      EXPECT_EQ(mux.draining_count(), 0u) << "the FIN drain completed";
    }
    program(std::nullopt, std::nullopt);
    mux.poll();
    check("poll");
  }

  testbed::InvariantChecker inv;
  inv.quiesced(mux, sent, opened - drained_conns);
  EXPECT_TRUE(inv.ok()) << inv.report();
  EXPECT_GT(mux.counters().flows_gced_idle, 0u);
  EXPECT_GT(mux.counters().drains_completed, 0u);
}

// MuxPool::fail_backend between bursts: the condemnation (tombstone at the
// pool's issued-version watermark) commits on every member, conservation
// holds through the removal, and a stale pre-failure program cannot
// re-admit the corpse. Every member's generation stays whole at each
// step, and the members keep serving one shared table.
TEST(GenerationTest, PoolFailBackendBetweenBursts) {
  constexpr std::size_t kDips = 8;
  const auto live0 = PoolGeneration::live_count();
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  MuxPool pool(net, {10, 0, 0, 1}, 2, 251);
  pool.apply_program(equal_program(pool.issue_version(), kDips));
  expect_whole(pool, live0, 2, "bootstrap");
  ASSERT_EQ(pool.backend_count(), kDips);

  // Issued before the failure is observed: entries in a transaction at
  // this version predate the failure and must be refused later.
  const auto stale_version = pool.issue_version();

  std::uint64_t sent = 0;
  auto spray = [&](std::uint16_t port) {
    // 300 flows; each sends one request and FINs.
    Burst(0, 300, 0, port).into(pool);
    sent += 300;
  };
  spray(3000);
  // A flow left open across the failure: its pin on the victim (if it
  // landed there) is reset; elsewhere its FIN releases it later.
  Burst(400, 64, 0, 3001, /*fin_too=*/false).into(pool);
  sent += 64;

  const auto victim = dip_addr(3);
  EXPECT_TRUE(pool.fail_backend(victim));
  expect_whole(pool, live0, 2, "after fail_backend");
  EXPECT_EQ(pool.backend_count(), kDips - 1);
  spray(3002);

  // The stale program lists the corpse at full weight: version-admissible
  // pool-wide (newer than the last commit) but condemned per member.
  pool.apply_program(equal_program(stale_version, kDips));
  expect_whole(pool, live0, 2, "after the stale program");
  EXPECT_EQ(pool.backend_count(), kDips - 1);
  EXPECT_GE(pool.counters().stale_failed_admissions, 1u);
  spray(3003);

  std::vector<net::Message> fins;
  for (std::uint32_t c = 400; c < 464; ++c) fins.push_back(fin(c, 3001));
  for (const auto& m : fins) pool.on_message(m);
  pool.poll();

  // Every request either forwarded or (never, here) counted as dropped —
  // nothing vanishes across the failure commit.
  const auto c = pool.counters();
  EXPECT_EQ(c.total_forwarded + c.no_backend_drops, sent);
  EXPECT_EQ(c.no_backend_drops, 0u);
  EXPECT_EQ(pool.affinity_size(), 0u);
  EXPECT_EQ(pool.pending_retired_generations(), 0u);
  // Shared-build invariant survives the churn: members still serve the
  // same maglev snapshot.
  EXPECT_EQ(pool.table_snapshot(0).get(), pool.table_snapshot(1).get());

  // A genuinely new program may resurrect the address (deliberate
  // re-admission clears the tombstone).
  pool.apply_program(equal_program(pool.issue_version(), kDips));
  expect_whole(pool, live0, 2, "after re-admission");
  EXPECT_EQ(pool.backend_count(), kDips);
}

// Fresh connections between reweighting commits on the table route: bursts
// of distinct, never-seen flows (each one opener, one mid-flow request,
// one FIN) go to a maglev Mux and to a MuxPool while reweighting programs
// commit to both between them; every other commit parks one DIP at weight
// 0 and the next restores it. Every opener resolves from the generation
// current at its burst, so every one must be routed, counted once, and
// released by its FIN — no refused connection, no leaked pin. On the pool
// this needs each member's membership and shared table to land in one
// publication: a generation pairing the parked membership with the
// previous table would refuse the openers whose slot still names the
// parked DIP.
TEST(GenerationTest, FreshFlowsBetweenReweightingCommits) {
  constexpr std::uint32_t kBursts = 600, kBurst = 8;
  const auto live0 = PoolGeneration::live_count();
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  Mux mux(net, {10, 0, 0, 1}, std::make_unique<MaglevPolicy>(251));
  MuxPool pool(net, {10, 0, 0, 2}, 2, 251);
  // Three muxes live: the bare one and the pool's two members.
  constexpr std::uint64_t kLiveMuxes = 3;
  // Counters snapshotted after every commit: cumulative counters never
  // run backwards, and every commit publishes.
  DataplaneCounters mux_seen, pool_seen;
  auto snapshot_advanced = [](const DataplaneCounters& now,
                              DataplaneCounters& seen) {
    EXPECT_GE(now.total_forwarded, seen.total_forwarded);
    EXPECT_GT(now.generations_published, seen.generations_published);
    seen = now;
  };
  std::uint64_t commits = 0;
  auto commit = [&] {
    ++commits;
    const auto parked = commits % 2 == 0
                            ? std::optional<std::size_t>((commits / 2) % 8)
                            : std::nullopt;
    for (PoolProgrammer* dp : {static_cast<PoolProgrammer*>(&mux),
                               static_cast<PoolProgrammer*>(&pool)}) {
      PoolProgram p(dp->issue_version());
      for (std::size_t d = 0; d < 8; ++d)
        p.add(dip_addr(d),
              parked == d ? 0
                          : 64 + static_cast<std::int64_t>((d + commits) % 7));
      dp->apply_program(p);
    }
    snapshot_advanced(mux.counters(), mux_seen);
    snapshot_advanced(pool.counters(), pool_seen);
    expect_whole(mux, live0, kLiveMuxes,
                 "mux, commit " + std::to_string(commits));
    expect_whole(pool, live0, kLiveMuxes,
                 "pool, commit " + std::to_string(commits));
  };

  for (std::uint32_t b = 0; b < kBursts; ++b) {
    // The first commit lands before any traffic; later ones every few
    // bursts, so bursts see both fresh and aged generations.
    if (b % 3 == 0) commit();
    const Burst burst(b * kBurst, kBurst, 1, 4000);
    burst.into(mux);
    burst.into(pool);
  }
  mux.poll();
  pool.poll();

  // Conservation per dataplane: the bare Mux, and the pool's members summed.
  const std::uint64_t opens = std::uint64_t{kBursts} * kBurst;
  testbed::InvariantChecker check;
  check.quiesced(mux, 2 * opens, opens);
  check.quiesced(pool, 2 * opens, opens);
  EXPECT_TRUE(check.ok()) << check.report();
}

}  // namespace
}  // namespace klb::lb
