// Sharded flow table: shard distribution uniformity, pin/erase semantics,
// GC interleaved with inserts, and the Mux-level invariants on top of it —
// cross-shard drain completion, the flows_dropped_by_removal accounting,
// and reconnecting tuples landing on the current generation's table pick
// (no routing decision outlives the pool it was made for).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "lb/flow_table.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/policy.hpp"
#include "lb/pool_program.hpp"
#include "util/rng.hpp"
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
  // Hinted: the slots for the expected population exist up front, and
  // filling to that scale never grows the table (capacity is stable).
  FlowTableConfig hinted{8};
  hinted.expected_flows = 64'000;
  FlowTable table(hinted);
  std::vector<std::size_t> capacity_at_start(table.shard_count());
  for (std::size_t k = 0; k < table.shard_count(); ++k) {
    capacity_at_start[k] = table.shard_capacity(k);
    EXPECT_GE(capacity_at_start[k] * 2, 64'000u / table.shard_count())
        << "shard " << k << " not pre-reserved";
  }
  for (std::uint64_t i = 0; i < 64'000; ++i)
    table.try_insert(flow_tuple(i), i % 3, 0_s);
  for (std::size_t k = 0; k < table.shard_count(); ++k)
    EXPECT_EQ(table.shard_capacity(k), capacity_at_start[k])
        << "shard " << k << " grew despite the hint";

  // Unhinted default: starts near-empty (the hint is opt-in).
  FlowTable bare(FlowTableConfig{8});
  EXPECT_LT(bare.shard_capacity(0), capacity_at_start[0]);
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
  EXPECT_GT(full.slots, 0u);
  // Each entry costs at least its slot; the ratio a bench gates on is
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

// GC interleaved with inserts: odd backend ids are "dead" and reclaimable
// the moment they land. Budgeted one-shard sweeps run between insert
// bursts, cycling the shards like the Mux's inline GC, so entries are
// reclaimed while others keep landing in the same shards.
TEST(FlowTable, GcInterleavedWithInserts) {
  FlowTable table(FlowTableConfig{16, 0, 64});
  constexpr std::uint64_t kFlows = 80'000;
  constexpr std::uint64_t kBurst = 500;
  const auto alive = [](std::uint64_t id) { return id % 2 == 0; };
  std::uint64_t reclaimed = 0;
  std::size_t cursor = 0;
  for (std::uint64_t n = 0; n < kFlows; ++n) {
    table.try_insert(flow_tuple(n), n % 4, 0_s);
    if (n % kBurst == kBurst - 1)
      reclaimed += table.gc_shard(cursor++, 0_s, util::SimTime::zero(),
                                  alive, nullptr, FlowTable::kScanBudgeted);
  }
  reclaimed += table.gc(0_s, util::SimTime::zero(), alive);

  // Exactly the even-id flows survive, and the shard-local books balance:
  // every insert is either still present or was reclaimed.
  const auto st = table.stats();
  EXPECT_EQ(st.inserts, kFlows);
  EXPECT_EQ(st.entries, st.inserts - st.gc_reclaimed - st.erases);
  EXPECT_EQ(st.entries + reclaimed, st.inserts);
  EXPECT_EQ(st.entries, kFlows / 2);
  table.for_each([](const net::FiveTuple&, std::uint64_t id, util::SimTime) {
    EXPECT_EQ(id % 2, 0u);
  });
  // Every surviving flow is still found where its hash puts it.
  for (std::uint64_t n = 0; n < kFlows; n += 2)
    EXPECT_EQ(table.try_find(flow_tuple(n)),
              std::optional<std::uint64_t>(n % 4));
}

// --- the open-addressing shards against a reference map ---------------------

/// Distinct tuples whose hash has its low `bits` bits all set: in any
/// shard of at most 2^bits slots they share the LAST home slot, so their
/// probe run wraps the table's end and every erase among them shifts
/// entries back across it.
std::vector<net::FiveTuple> end_colliders(std::size_t count, int bits,
                                          std::uint64_t salt) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::vector<net::FiveTuple> out;
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    net::FiveTuple t = flow_tuple(salt + i);
    t.dst_port = 443;
    if ((net::hash_tuple(t) & mask) == mask) out.push_back(t);
  }
  return out;
}

struct RefFlow {
  std::uint64_t id;
  util::SimTime seen;
};
using RefTable = std::unordered_map<net::FiveTuple, RefFlow>;

/// The whole table equals the reference: same size, every reference flow
/// found with its pin and last-seen stamp, nothing else visited.
void expect_matches(const FlowTable& table, const RefTable& ref) {
  ASSERT_EQ(table.size(), ref.size());
  std::size_t visited = 0;
  table.for_each([&](const net::FiveTuple& t, std::uint64_t id,
                     util::SimTime seen) {
    ++visited;
    const auto it = ref.find(t);
    ASSERT_NE(it, ref.end()) << "table holds a flow the reference lacks";
    EXPECT_EQ(id, it->second.id);
    EXPECT_EQ(seen, it->second.seen);
  });
  ASSERT_EQ(visited, ref.size());
  for (const auto& [t, f] : ref)
    ASSERT_EQ(table.try_find(t), std::optional<std::uint64_t>(f.id));
}

// Random interleavings of every mutating operation, checked after each
// step against a std::unordered_map. A third of the tuple pool collides on
// the last home slot of every shard capacity up to 256, so probe runs wrap
// and backward-shift erase moves entries across the table's end; the
// table grows from empty through several doublings on the way.
TEST(FlowTableDifferential, RandomOpsMatchReferenceMap) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    util::Rng rng(shards * 1'000 + 7);
    FlowTableConfig cfg{shards};
    cfg.gc_scan_budget = 5;
    FlowTable table(cfg);
    RefTable ref;
    std::vector<net::FiveTuple> pool = end_colliders(120, 8, 1'000'000);
    for (std::uint64_t i = 0; i < 240; ++i) pool.push_back(flow_tuple(i));
    const auto pick = [&] { return pool[rng.uniform_int(pool.size())]; };
    const auto in_shard = [&](const net::FiveTuple& t, std::size_t k) {
      return table.shard_of(t) == k;
    };
    std::int64_t clock = 0;
    for (int step = 0; step < 6'000; ++step) {
      const auto now = util::SimTime::micros(++clock);
      const auto op = rng.uniform_int(std::uint64_t{20});
      if (op < 8) {
        const auto t = pick();
        const auto id = rng.uniform_int(std::uint64_t{6});
        const auto [owner, fresh] =
            table.try_insert(t, net::hash_tuple(t), id, now);
        const auto [it, inserted] = ref.emplace(t, RefFlow{id, now});
        ASSERT_EQ(fresh, inserted);
        ASSERT_EQ(owner, it->second.id);
      } else if (op < 11) {
        const std::size_t n = 1 + rng.uniform_int(std::uint64_t{40});
        std::vector<net::FiveTuple> keys(n);
        std::vector<FlowLookup> reqs(n);
        for (std::size_t i = 0; i < n; ++i) {
          keys[i] = pick();
          reqs[i].tuple = &keys[i];
          reqs[i].hash = net::hash_tuple(keys[i]);
        }
        table.lookup_batch(reqs.data(), n, now);
        for (std::size_t i = 0; i < n; ++i) {
          const auto it = ref.find(keys[i]);
          if (it == ref.end()) {
            ASSERT_EQ(reqs[i].hit.kind, FlowHit::Kind::kMiss);
          } else {
            ASSERT_EQ(reqs[i].hit.kind, FlowHit::Kind::kAffinity);
            ASSERT_EQ(reqs[i].hit.backend_id, it->second.id);
            it->second.seen = now;
          }
        }
      } else if (op < 15) {
        // Duplicates allowed: element-wise identical to erase() in order.
        const std::size_t n = 1 + rng.uniform_int(std::uint64_t{40});
        std::vector<net::FiveTuple> keys(n);
        std::vector<FlowErase> reqs(n);
        for (std::size_t i = 0; i < n; ++i) {
          keys[i] = pick();
          reqs[i].tuple = &keys[i];
          reqs[i].hash = net::hash_tuple(keys[i]);
        }
        table.erase_batch(reqs.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto it = ref.find(keys[i]);
          ASSERT_EQ(reqs[i].found, it != ref.end());
          if (it == ref.end()) continue;
          ASSERT_EQ(reqs[i].id, it->second.id);
          ref.erase(it);
        }
      } else if (op < 16) {
        const auto id = rng.uniform_int(std::uint64_t{6});
        std::set<std::pair<std::uint32_t, std::uint16_t>> dropped;
        const auto n = table.erase_backend(id, [&](const net::FiveTuple& t) {
          dropped.insert({t.src_ip.value(), t.dst_port});
          EXPECT_EQ(ref.count(t), 1u);
          EXPECT_EQ(ref.at(t).id, id);
        });
        std::size_t expect = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (it->second.id == id) {
            ++expect;
            it = ref.erase(it);
          } else {
            ++it;
          }
        }
        ASSERT_EQ(n, expect);
      } else {
        // GC one shard: dead ids are a random subset, idle cut-off random.
        const auto k = rng.uniform_int(shards);
        const auto dead_mask = rng.uniform_int(std::uint64_t{64});
        const auto alive = [dead_mask](std::uint64_t id) {
          return ((dead_mask >> id) & 1) == 0;
        };
        const auto idle =
            util::SimTime::micros(static_cast<std::int64_t>(
                rng.uniform_int(std::uint64_t{3'000})));
        const bool budgeted = op == 19;
        std::vector<std::pair<net::FiveTuple, bool>> gone;
        const auto n = table.gc_shard(
            k, now, idle, alive,
            [&](const net::FiveTuple& t, std::uint64_t id, bool dead) {
              gone.push_back({t, dead});
              const auto it = ref.find(t);
              ASSERT_NE(it, ref.end());
              EXPECT_EQ(it->second.id, id);
              EXPECT_EQ(dead, !alive(id));
            },
            budgeted ? FlowTable::kScanBudgeted : FlowTable::kScanAll);
        ASSERT_EQ(n, gone.size());
        if (budgeted) {
          ASSERT_LE(n, cfg.gc_scan_budget);
        }
        const auto doomed = [&](const RefFlow& f) {
          return !alive(f.id) ||
                 (idle > util::SimTime::zero() && f.seen + idle < now);
        };
        for (const auto& [t, dead] : gone) {
          ASSERT_TRUE(in_shard(t, k));
          ASSERT_TRUE(doomed(ref.at(t)));
          ref.erase(t);
        }
        if (!budgeted) {
          for (const auto& [t, f] : ref)
            ASSERT_FALSE(in_shard(t, k) && doomed(f))
                << "a full sweep left a doomed flow behind";
        }
      }
      expect_matches(table, ref);
      if (HasFatalFailure()) return;
    }
  }
}

// A hand-built wrap: ten flows homed on the last slot of a 16-slot shard
// occupy slots 15, 0, 1, ... 8. Erasing from the front, the middle and
// across the end must keep every survivor reachable from its home.
TEST(FlowTableDifferential, ProbeRunWrappingTheEndSurvivesErase) {
  FlowTable table(FlowTableConfig{1});
  const auto run = end_colliders(10, 4, 5'000'000);
  RefTable ref;
  for (std::size_t i = 0; i < run.size(); ++i) {
    table.try_insert(run[i], net::hash_tuple(run[i]), i, 0_s);
    ref[run[i]] = RefFlow{i, 0_s};
  }
  ASSERT_EQ(table.shard_capacity(0), 16u);  // 10 flows: no growth yet
  expect_matches(table, ref);
  for (const std::size_t victim : {0u, 5u, 1u, 9u, 2u}) {
    EXPECT_EQ(table.erase(run[victim]), std::optional<std::uint64_t>(victim));
    ref.erase(run[victim]);
    expect_matches(table, ref);
  }
  // Re-inserting into the holes the shifts left keeps the run consistent.
  for (const std::size_t back : {9u, 0u}) {
    table.try_insert(run[back], net::hash_tuple(run[back]), back, 1_s);
    ref[run[back]] = RefFlow{back, 1_s};
    expect_matches(table, ref);
  }
  // A full GC of the odd ids sweeps across the wrapped run in one lap.
  table.gc(2_s, util::SimTime::zero(),
           [](std::uint64_t id) { return id % 2 == 0; });
  for (auto it = ref.begin(); it != ref.end();)
    it = it->second.id % 2 ? ref.erase(it) : std::next(it);
  expect_matches(table, ref);
}

// Filling past the expected_flows hint grows the pre-sized shards by
// doubling; every flow stays reachable and memory() counts the real
// capacity.
TEST(FlowTableDifferential, GrowthPastTheReserveKeepsEveryFlow) {
  FlowTableConfig cfg{4};
  cfg.expected_flows = 1'000;
  FlowTable table(cfg);
  std::vector<std::size_t> reserved(table.shard_count());
  for (std::size_t k = 0; k < table.shard_count(); ++k)
    reserved[k] = table.shard_capacity(k);
  RefTable ref;
  for (std::uint64_t i = 0; i < 6'000; ++i) {
    const auto t = flow_tuple(i);
    table.try_insert(t, net::hash_tuple(t), i % 5, 0_s);
    ref[t] = RefFlow{i % 5, 0_s};
  }
  std::size_t slots = 0;
  for (std::size_t k = 0; k < table.shard_count(); ++k) {
    EXPECT_GT(table.shard_capacity(k), reserved[k]);
    EXPECT_LE(table.shard_size(k) * 4, table.shard_capacity(k) * 3);
    slots += table.shard_capacity(k);
  }
  expect_matches(table, ref);
  const auto mem = table.memory();
  EXPECT_EQ(mem.entries, 6'000u);
  EXPECT_EQ(mem.slots, slots);
  EXPECT_GE(mem.approx_bytes, slots * 32);
  // Erasing half leaves the capacity (no shrink) and the other half intact.
  for (std::uint64_t i = 0; i < 6'000; i += 2) {
    EXPECT_TRUE(table.erase(flow_tuple(i)).has_value());
    ref.erase(flow_tuple(i));
  }
  expect_matches(table, ref);
  EXPECT_EQ(table.memory().slots, slots);
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
  const auto id_a = mux.backends()[0].id;
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
  ASSERT_TRUE(mux.backends()[0].draining);

  // FIN all but the last pinned flow: every shard but one empties, and the
  // drain must still be running.
  for (std::size_t i = 0; i + 1 < pinned_to_a.size(); ++i)
    mux.on_message(f.fin(pinned_to_a[i]));
  EXPECT_EQ(mux.backend_count(), 2u);
  EXPECT_TRUE(mux.backends()[0].draining);

  mux.on_message(f.fin(pinned_to_a.back()));
  EXPECT_EQ(mux.backend_count(), 1u);
  EXPECT_EQ(mux.backend_addr(0), f.b);
  EXPECT_EQ(mux.counters().drains_completed, 1u);
  EXPECT_EQ(mux.counters().flows_reset_by_failure, 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

/// The backend `t` is pinned to, by address (0.0.0.0 when unpinned).
net::IpAddr pinned_addr(const Mux& mux, const net::FiveTuple& t) {
  const auto id = mux.flow_table().try_find(t);
  for (const auto& b : mux.backends())
    if (id && b.id == *id) return b.addr;
  return net::IpAddr{};
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
  EXPECT_EQ(mux.counters().no_backend_drops, 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
  EXPECT_EQ(mux.counters().flows_reset_by_failure, 0u);
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
  const auto pool = mux.backends();
  const auto pinned_a = pool[0].counters->active;
  const auto pinned_b = pool[1].counters->active;
  ASSERT_GT(pinned_a, 0u);
  ASSERT_GT(pinned_b, 0u);

  PoolProgram v2(2);  // a cut short, not drained
  v2.add(f.a, 0, BackendState::kRemoved).add(f.b, util::kWeightScale);
  mux.apply_program(v2);
  EXPECT_EQ(mux.counters().flows_dropped_by_removal, pinned_a);
  EXPECT_EQ(mux.counters().flows_reset_by_failure, 0u);

  PoolProgram v3(3);  // b omitted: same abrupt drop, same counter
  v3.add(net::IpAddr{10, 1, 0, 3}, util::kWeightScale);
  mux.apply_program(v3);
  EXPECT_EQ(mux.counters().flows_dropped_by_removal, pinned_a + pinned_b);
  EXPECT_EQ(mux.affinity_size(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

}  // namespace
}  // namespace klb::lb
