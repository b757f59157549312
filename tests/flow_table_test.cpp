// Sharded flow table: shard distribution uniformity, pin/erase semantics,
// GC under concurrent insert, and the Mux-level invariants on top of it —
// cross-shard drain completion, the flows_dropped_by_removal accounting,
// and reconnecting tuples landing on the current generation's table pick
// (no routing decision outlives the pool it was made for).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "lb/flow_table.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/policy.hpp"
#include "lb/pool_program.hpp"
#include "util/weight.hpp"

namespace klb::lb {
namespace {

using namespace util::literals;

/// Distinct tuples spread over ports and client addresses.
net::FiveTuple flow_tuple(std::uint64_t i) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(static_cast<std::uint32_t>(0x0a020000 + i / 50'000));
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = static_cast<std::uint16_t>(10'000 + i % 50'000);
  t.dst_port = 80;
  return t;
}

TEST(FlowTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlowTable(FlowTableConfig{1}).shard_count(), 1u);
  EXPECT_EQ(FlowTable(FlowTableConfig{5}).shard_count(), 8u);
  EXPECT_EQ(FlowTable(FlowTableConfig{16}).shard_count(), 16u);
  EXPECT_EQ(FlowTable(FlowTableConfig{0}).shard_count(), 1u);
}

TEST(FlowTable, ShardDistributionIsUniform) {
  FlowTable table(FlowTableConfig{16});
  const std::size_t flows = 64'000;
  for (std::uint64_t i = 0; i < flows; ++i)
    table.try_insert(flow_tuple(i), i % 7, util::SimTime::zero());
  ASSERT_EQ(table.size(), flows);
  const double mean =
      static_cast<double>(flows) / static_cast<double>(table.shard_count());
  for (std::size_t k = 0; k < table.shard_count(); ++k) {
    const auto n = static_cast<double>(table.shard_size(k));
    EXPECT_GT(n, 0.8 * mean) << "shard " << k << " underloaded";
    EXPECT_LT(n, 1.2 * mean) << "shard " << k << " overloaded";
  }
}

TEST(FlowTable, PinLifecycleAndRaceSemantics) {
  FlowTable table;
  const auto t = flow_tuple(1);
  EXPECT_EQ(table.lookup(t, 0_s).kind, FlowHit::Kind::kMiss);

  auto [owner, fresh] = table.try_insert(t, 42, 0_s);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(owner, 42u);
  // A concurrent same-tuple packet that lost the race keeps the winner.
  auto [owner2, fresh2] = table.try_insert(t, 99, 1_s);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(owner2, 42u);

  const auto hit = table.lookup(t, 2_s);
  EXPECT_EQ(hit.kind, FlowHit::Kind::kAffinity);
  EXPECT_EQ(hit.backend_id, 42u);

  EXPECT_EQ(table.erase(t), std::optional<std::uint64_t>(42));
  EXPECT_EQ(table.erase(t), std::nullopt);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, EraseBackendDropsEveryPinnedFlow) {
  FlowTable table(FlowTableConfig{8});
  for (std::uint64_t i = 0; i < 300; ++i)
    table.try_insert(flow_tuple(i), i % 3, 0_s);
  EXPECT_EQ(table.erase_backend(1), 100u);
  EXPECT_EQ(table.size(), 200u);
  table.for_each([](const net::FiveTuple&, std::uint64_t id, util::SimTime) {
    EXPECT_NE(id, 1u);
  });
}

TEST(FlowTable, GcReclaimsDeadAndIdleShardLocally) {
  FlowTable table(FlowTableConfig{8});
  // Backend 1 is dead; backend 2's flows are idle; backend 3's are fresh.
  for (std::uint64_t i = 0; i < 60; ++i)
    table.try_insert(flow_tuple(i), 1 + i % 3, i % 3 == 1 ? 1_s : 90_s);
  std::size_t dead = 0, idled = 0;
  const auto reclaimed = table.gc(
      100_s, 60_s, [](std::uint64_t id) { return id != 1; },
      [&](const net::FiveTuple&, std::uint64_t id, bool was_dead) {
        if (was_dead) {
          EXPECT_EQ(id, 1u);
          ++dead;
        } else {
          EXPECT_EQ(id, 2u);
          ++idled;
        }
      });
  EXPECT_EQ(reclaimed, 40u);
  EXPECT_EQ(dead, 20u);
  EXPECT_EQ(idled, 20u);
  EXPECT_EQ(table.size(), 20u);
  EXPECT_EQ(table.stats().gc_reclaimed, 40u);
}

// The reclaim callback runs after the shard lock drops: reentering the
// table from it must not deadlock (the Mux takes its pick mutex there).
TEST(FlowTable, GcReclaimCallbackMayReenterTable) {
  FlowTable table(FlowTableConfig{4});
  for (std::uint64_t i = 0; i < 40; ++i)
    table.try_insert(flow_tuple(i), i % 2, 0_s);
  std::size_t seen = 0;
  table.gc(
      100_s, 0_s, [](std::uint64_t id) { return id != 0; },
      [&](const net::FiveTuple&, std::uint64_t, bool) {
        ++seen;
        (void)table.size();  // deadlocks if invoked under the shard lock
      });
  EXPECT_EQ(seen, 20u);
}

TEST(FlowTable, TryFindIsReadOnly) {
  FlowTable table(FlowTableConfig{4});
  const auto t = flow_tuple(11);
  EXPECT_EQ(table.try_find(t), std::nullopt);
  table.try_insert(t, 7, 0_s);
  EXPECT_EQ(table.try_find(t), std::optional<std::uint64_t>(7));
  // No last-seen touch, no counter traffic.
  const auto before = table.stats();
  (void)table.try_find(t);
  (void)table.try_find(flow_tuple(12));
  const auto after = table.stats();
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.erases, before.erases);
  EXPECT_EQ(after.entries, 1u);
  table.for_each([](const net::FiveTuple&, std::uint64_t, util::SimTime seen) {
    EXPECT_EQ(seen, 0_s);
  });
  // lookup() is the touching probe.
  EXPECT_EQ(table.lookup(t, 5_s).kind, FlowHit::Kind::kAffinity);
  table.for_each([](const net::FiveTuple&, std::uint64_t, util::SimTime seen) {
    EXPECT_EQ(seen, 5_s);
  });
}

TEST(FlowTable, ExpectedFlowsHintPreReservesShards) {
  // Hinted: the buckets for the expected population exist up front, and
  // filling to that scale never rehashes (capacity is stable).
  FlowTableConfig hinted{8};
  hinted.expected_flows = 64'000;
  FlowTable table(hinted);
  std::vector<std::size_t> buckets_at_start(table.shard_count());
  for (std::size_t k = 0; k < table.shard_count(); ++k) {
    buckets_at_start[k] = table.shard_buckets(k);
    EXPECT_GE(buckets_at_start[k] * 2, 64'000u / table.shard_count())
        << "shard " << k << " not pre-reserved";
  }
  for (std::uint64_t i = 0; i < 64'000; ++i)
    table.try_insert(flow_tuple(i), i % 3, 0_s);
  for (std::size_t k = 0; k < table.shard_count(); ++k)
    EXPECT_EQ(table.shard_buckets(k), buckets_at_start[k])
        << "shard " << k << " rehashed despite the hint";

  // Unhinted default: starts near-empty (the hint is opt-in).
  FlowTable bare(FlowTableConfig{8});
  EXPECT_LT(bare.shard_buckets(0), buckets_at_start[0]);
}

TEST(FlowTable, MemoryTracksEntriesAndBuckets) {
  FlowTable table(FlowTableConfig{4});
  const auto empty = table.memory();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_GT(empty.approx_bytes, 0u);  // the shard structs
  for (std::uint64_t i = 0; i < 10'000; ++i)
    table.try_insert(flow_tuple(i), 1, 0_s);
  const auto full = table.memory();
  EXPECT_EQ(full.entries, 10'000u);
  EXPECT_GT(full.buckets, 0u);
  // Each entry costs at least its node; the ratio a bench gates on is
  // driven by this growth.
  EXPECT_GE(full.approx_bytes,
            empty.approx_bytes + 10'000u * sizeof(net::FiveTuple));
}

TEST(FlowTable, BudgetedGcSweepsIncrementally) {
  FlowTableConfig cfg{1};
  cfg.gc_scan_budget = 64;
  FlowTable table(cfg);
  constexpr std::uint64_t kFlows = 2'000;
  for (std::uint64_t i = 0; i < kFlows; ++i)
    table.try_insert(flow_tuple(i), i % 2, 0_s);

  // One budgeted call examines ~the budget, not the whole shard (bucket
  // granularity makes it approximate), and reclaims only what it saw.
  const auto alive = [](std::uint64_t id) { return id != 1; };
  const auto first = table.gc_shard(0, 0_s, util::SimTime::zero(), alive,
                                    nullptr, FlowTable::kScanBudgeted);
  const auto scanned_once = table.stats().gc_scanned;
  EXPECT_GE(scanned_once, 64u);
  EXPECT_LT(scanned_once, kFlows);
  EXPECT_LT(first, kFlows / 2);

  // Successive calls resume from the cursor and drain the shard fully.
  std::size_t reclaimed = first;
  for (int i = 0; i < 200 && reclaimed < kFlows / 2; ++i)
    reclaimed += table.gc_shard(0, 0_s, util::SimTime::zero(), alive, nullptr,
                                FlowTable::kScanBudgeted);
  EXPECT_EQ(reclaimed, kFlows / 2);
  EXPECT_EQ(table.size(), kFlows / 2);
  // An explicit full sweep overrides the budget in one call.
  for (std::uint64_t i = 0; i < kFlows; ++i)
    table.try_insert(flow_tuple(100'000 + i), 1, 0_s);
  EXPECT_EQ(table.gc_shard(0, 0_s, util::SimTime::zero(), alive, nullptr,
                           FlowTable::kScanAll),
            kFlows);
}

TEST(FlowTable, GcUnderConcurrentInsert) {
  FlowTable table(FlowTableConfig{16});
  constexpr std::uint64_t kPerThread = 20'000;
  constexpr std::uint64_t kThreads = 4;
  std::atomic<std::uint64_t> reclaimed{0};
  std::atomic<bool> stop{false};

  // GC continuously while writers insert: odd backend ids are "dead" and
  // reclaimable the moment they land.
  std::thread gc_thread([&] {
    while (!stop.load()) {
      reclaimed.fetch_add(table.gc(
          0_s, util::SimTime::zero(),
          [](std::uint64_t id) { return id % 2 == 0; }));
    }
  });
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const auto n = w * kPerThread + i;
        table.try_insert(flow_tuple(n), n % 4, 0_s);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  gc_thread.join();
  reclaimed.fetch_add(table.gc(
      0_s, util::SimTime::zero(),
      [](std::uint64_t id) { return id % 2 == 0; }));

  // Exactly the even-id flows survive, and the shard-local books balance:
  // every insert is either still present or was reclaimed.
  const auto st = table.stats();
  EXPECT_EQ(st.inserts, kThreads * kPerThread);
  EXPECT_EQ(st.entries, st.inserts - st.gc_reclaimed - st.erases);
  EXPECT_EQ(st.entries + reclaimed.load(), st.inserts);
  table.for_each([](const net::FiveTuple&, std::uint64_t id, util::SimTime) {
    EXPECT_EQ(id % 2, 0u);
  });
}

// --- Mux on top of the sharded table ----------------------------------------

net::FiveTuple port_tuple(std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr{10, 2, 0, 1};
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
}

struct MuxFlowFixture {
  sim::Simulation sim{17};
  net::Network net{sim};
  net::IpAddr vip{10, 0, 0, 1};
  net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};

  net::Message request(std::uint16_t port) {
    net::Message m;
    m.type = net::MsgType::kHttpRequest;
    m.tuple = port_tuple(port);
    return m;
  }
  net::Message fin(std::uint16_t port) {
    net::Message m;
    m.type = net::MsgType::kFin;
    m.tuple = port_tuple(port);
    return m;
  }
};

// A drainer's pinned flows land in many shards; the drain must complete
// exactly when the *last* flow across all shards goes — per-backend active
// counts make completion shard-local, no shard may complete it early.
TEST(MuxFlowTable, CrossShardDrainCompletion) {
  MuxFlowFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"), /*attach_to_vip=*/true,
          FlowTableConfig{8});
  PoolProgram v1(1);
  v1.add(f.a, 5000).add(f.b, 5000);
  mux.apply_program(v1);

  for (std::uint16_t p = 0; p < 200; ++p) mux.on_message(f.request(p));
  const auto id_a = mux.backend_id(0);
  std::vector<std::uint16_t> pinned_to_a;
  mux.flow_table().for_each(
      [&](const net::FiveTuple& t, std::uint64_t id, util::SimTime) {
        if (id == id_a) pinned_to_a.push_back(t.src_port);
      });
  ASSERT_GT(pinned_to_a.size(), 8u);  // enough flows to span shards
  std::set<std::size_t> shards;
  for (const auto p : pinned_to_a)
    shards.insert(mux.flow_table().shard_of(port_tuple(p)));
  ASSERT_GT(shards.size(), 1u) << "drainer's flows all in one shard";

  PoolProgram v2(2);
  v2.add(f.a, 0, BackendState::kDraining).add(f.b, util::kWeightScale);
  mux.apply_program(v2);
  ASSERT_TRUE(mux.backend_draining(0));

  // FIN all but the last pinned flow: every shard but one empties, and the
  // drain must still be running.
  for (std::size_t i = 0; i + 1 < pinned_to_a.size(); ++i)
    mux.on_message(f.fin(pinned_to_a[i]));
  EXPECT_EQ(mux.backend_count(), 2u);
  EXPECT_TRUE(mux.backend_draining(0));

  mux.on_message(f.fin(pinned_to_a.back()));
  EXPECT_EQ(mux.backend_count(), 1u);
  EXPECT_EQ(mux.backend_addr(0), f.b);
  EXPECT_EQ(mux.drains_completed(), 1u);
  EXPECT_EQ(mux.flows_reset_by_failure(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

/// The backend `t` is pinned to, by address (0.0.0.0 when unpinned).
net::IpAddr pinned_addr(const Mux& mux, const net::FiveTuple& t) {
  const auto id = mux.flow_table().try_find(t);
  const auto idx = id ? mux.index_of_id(*id) : std::nullopt;
  return idx ? mux.backend_addr(*idx) : net::IpAddr{};
}

// Reconnecting tuples land on the CURRENT generation's table pick — after
// a reweighting program and after fail_backend alike: no decision outlives
// the pool it was made for, so none can steer a client into a reweighted
// share or a tombstoned DIP. The expected picks come from a table built
// independently over the programmed pool.
TEST(MuxFlowTable, ReconnectLandsOnTheNewGenerationsTablePick) {
  MuxFlowFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"));
  constexpr std::uint16_t kPorts = 400;
  std::vector<net::IpAddr> before(kPorts);
  std::size_t moved = 0;
  auto reconnect_all = [&](const std::vector<MaglevEntry>& pool) {
    MaglevTable expect;
    expect.build(pool);
    for (std::uint16_t p = 0; p < kPorts; ++p) {
      mux.on_message(f.request(p));
      const auto now_on = pinned_addr(mux, port_tuple(p));
      EXPECT_EQ(now_on.value(),
                expect.lookup_id(net::hash_tuple(port_tuple(p))))
          << "port " << p;
      moved += before[p] != now_on ? 1 : 0;
      before[p] = now_on;
      mux.on_message(f.fin(p));
    }
  };
  PoolProgram v1(1);
  v1.add(f.a, 5000).add(f.b, 5000);
  mux.apply_program(v1);
  reconnect_all({{f.a.value(), 5000}, {f.b.value(), 5000}});

  moved = 0;
  PoolProgram v2(2);
  v2.add(f.a, 9000).add(f.b, 1000);
  mux.apply_program(v2);
  reconnect_all({{f.a.value(), 9000}, {f.b.value(), 1000}});
  EXPECT_GT(moved, 0u);  // the reweight moved real traffic

  ASSERT_TRUE(mux.fail_backend(f.a));  // a held no pins when it died
  reconnect_all({{f.b.value(), util::kWeightScale}});
  for (const auto& addr : before) EXPECT_EQ(addr, f.b);
  EXPECT_EQ(mux.no_backend_drops(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
  EXPECT_EQ(mux.flows_reset_by_failure(), 0u);
}

// Abrupt graceful-path removal (transactional kRemoved / omission) drops
// pinned flows; before ISSUE 5 they were counted nowhere.
TEST(MuxFlowTable, RemovalDropsAreCounted) {
  MuxFlowFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"), true, FlowTableConfig{4});
  PoolProgram v1(1);
  v1.add(f.a, 5000).add(f.b, 5000);
  mux.apply_program(v1);
  for (std::uint16_t p = 0; p < 100; ++p) mux.on_message(f.request(p));
  const auto pinned_a = mux.active_connections(0);
  const auto pinned_b = mux.active_connections(1);
  ASSERT_GT(pinned_a, 0u);
  ASSERT_GT(pinned_b, 0u);

  PoolProgram v2(2);  // a cut short, not drained
  v2.add(f.a, 0, BackendState::kRemoved).add(f.b, util::kWeightScale);
  mux.apply_program(v2);
  EXPECT_EQ(mux.flows_dropped_by_removal(), pinned_a);
  EXPECT_EQ(mux.flows_reset_by_failure(), 0u);

  PoolProgram v3(3);  // b omitted: same abrupt drop, same counter
  v3.add(net::IpAddr{10, 1, 0, 3}, util::kWeightScale);
  mux.apply_program(v3);
  EXPECT_EQ(mux.flows_dropped_by_removal(), pinned_a + pinned_b);
  EXPECT_EQ(mux.affinity_size(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

}  // namespace
}  // namespace klb::lb
