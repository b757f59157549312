// Pool-generation publication tests (ISSUE 6, ROADMAP item 1): the
// EpochDomain reclamation primitive in isolation, the Mux's generation
// lifecycle counters through control-plane mutations, and the concurrency
// contracts the RCU-style scheme must keep under a racing packet path —
// park/reweight programs from one thread while another drives picks (no
// torn generation ever observable), MuxPool::fail_backend condemnation
// under a concurrent reader (conservation + stale re-admission refusal),
// and fresh connections resolved lock-free from the pinned generation's
// table while reweighting and parking programs commit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
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

TEST(GenerationTest, EveryControlMutationPublishesAndPollReclaims) {
  const auto live0 = PoolGeneration::live_count();
  {
    sim::Simulation sim(5);
    net::Network net(sim);
    net.set_blackhole(true);
    Mux mux(net, {10, 0, 0, 1}, make_policy("maglev"));

    // The constructor publishes generation 1 (empty pool).
    EXPECT_EQ(mux.generations_published(), 1u);
    EXPECT_EQ(mux.generation_seq(), 1u);

    mux.apply_program(equal_program(mux.issue_version(), 4));
    EXPECT_EQ(mux.generations_published(), 2u);

    // One publication per mutation: a program (grow, park, restore), a
    // failure, a policy swap.
    auto bump = [&mux](auto&& op) {
      const auto before = mux.generations_published();
      op();
      EXPECT_EQ(mux.generations_published(), before + 1);
    };
    bump([&] { mux.apply_program(equal_program(mux.issue_version(), 5)); });
    bump([&] { mux.apply_program(parked_program(mux.issue_version(), 5, 0)); });
    bump([&] {
      mux.apply_program(parked_program(mux.issue_version(), 5, std::nullopt));
    });
    bump([&] { EXPECT_TRUE(mux.fail_backend(dip_addr(4))); });
    bump([&] { mux.set_policy(make_policy("maglev")); });

    // Quiesced: one poll reclaims everything but the current generation.
    mux.poll();
    EXPECT_EQ(mux.pending_retired_generations(), 0u);
    EXPECT_EQ(mux.generations_retired(), mux.generations_published() - 1);
    EXPECT_EQ(mux.oldest_live_epoch(), mux.current_epoch());
    EXPECT_TRUE(mux.debug_check_generation());
    EXPECT_EQ(PoolGeneration::live_count(), live0 + 1);
  }
  // The Mux's destructor must take its last generation with it.
  EXPECT_EQ(PoolGeneration::live_count(), live0);
}

// One thread drives picks while another parks backends at weight 0 and
// shuffles weights; a third keeps pinning the current generation and
// verifying its structural checksum. Any torn publication (a reader
// observing a half-built generation, or dereferencing a reclaimed one)
// fails the checksum or trips the conservation counters. Runs on a single
// core too — preemption still interleaves the threads.
TEST(GenerationTest, ConcurrentParkingNeverTearsAGeneration) {
  constexpr std::size_t kDips = 8;
  constexpr std::uint64_t kFlows = 200;
  constexpr std::uint64_t kReqPerFlow = 3;

  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  // Small maglev table: control mutations stay cheap, so the committer
  // actually races the packet path instead of lagging it.
  Mux mux(net, {10, 0, 0, 1}, std::make_unique<MaglevPolicy>(251));
  mux.apply_program(equal_program(mux.issue_version(), kDips));

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> opened{0};

  std::thread traffic([&] {
    std::uint64_t round = 0;
    do {
      for (std::uint64_t f = 0; f < kFlows; ++f) {
        mux.on_message(request(f, 2000));
        for (std::uint64_t q = 1; q < kReqPerFlow; ++q)
          mux.on_message(request(f, 2000));
        mux.on_message(fin(f, 2000));
      }
      sent.fetch_add(kFlows * kReqPerFlow, std::memory_order_relaxed);
      opened.fetch_add(kFlows, std::memory_order_relaxed);
      ++round;
    } while (!stop.load(std::memory_order_acquire) || round < 2);
  });

  std::thread checker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!mux.debug_check_generation())
        torn.store(true, std::memory_order_relaxed);
    }
  });

  // Control plane: park one backend at a time at weight 0 (never more than
  // one, so picks always succeed), shuffle weights while it is parked, and
  // restore it.
  std::vector<std::int64_t> units(kDips, util::kWeightScale / kDips);
  auto program = [&](std::optional<std::size_t> parked) {
    PoolProgram p(mux.issue_version());
    for (std::size_t d = 0; d < kDips; ++d)
      p.add(dip_addr(d), parked == d ? 0 : units[d]);
    mux.apply_program(p);
  };
  for (int k = 0; k < 400; ++k) {
    const auto i = static_cast<std::size_t>(k) % kDips;
    program(i);
    if (k % 5 == 0) {
      for (std::size_t d = 0; d < kDips; ++d)
        units[d] = 64 + static_cast<std::int64_t>((d + k) % 7) * 8;
      program(i);
    }
    program(std::nullopt);
  }
  stop.store(true, std::memory_order_release);
  traffic.join();
  checker.join();
  mux.poll();

  EXPECT_FALSE(torn.load()) << "a reader observed a torn generation";
  EXPECT_EQ(mux.total_forwarded(), sent.load());
  std::uint64_t conns = 0, active = 0;
  for (std::size_t d = 0; d < kDips; ++d) {
    conns += mux.new_connections(d);
    active += mux.active_connections(d);
  }
  EXPECT_EQ(conns, opened.load());
  EXPECT_EQ(active, 0u);
  EXPECT_EQ(mux.no_backend_drops(), 0u);
  EXPECT_EQ(mux.affinity_size(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
  EXPECT_EQ(mux.pending_retired_generations(), 0u);
  EXPECT_EQ(mux.generations_retired(), mux.generations_published() - 1);
  EXPECT_EQ(mux.oldest_live_epoch(), mux.current_epoch());
}

// MuxPool::fail_backend while a reader thread sprays the VIP: the
// condemnation (tombstone at the pool's issued-version watermark) commits
// on every member under traffic, conservation holds through the removal,
// and a stale pre-failure program cannot re-admit the corpse.
TEST(GenerationTest, PoolFailBackendUnderConcurrentReader) {
  constexpr std::size_t kDips = 8;
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  MuxPool pool(net, {10, 0, 0, 1}, 2, 251);
  {
    PoolProgram p = equal_program(pool.issue_version(), kDips);
    pool.apply_program(p);
  }
  ASSERT_EQ(pool.backend_count(), kDips);

  // Issued before the failure is observed: entries in a transaction at
  // this version predate the failure and must be refused later.
  const auto stale_version = pool.issue_version();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0};
  std::thread reader([&] {
    std::uint64_t round = 0;
    do {
      for (std::uint32_t f = 0; f < 300; ++f) {
        pool.on_message(request(f, 3000));
        pool.on_message(fin(f, 3000));
      }
      sent.fetch_add(300, std::memory_order_relaxed);
      ++round;
    } while (!stop.load(std::memory_order_acquire) || round < 2);
  });

  const auto victim = dip_addr(3);
  EXPECT_TRUE(pool.fail_backend(victim));
  EXPECT_EQ(pool.backend_count(), kDips - 1);

  // The stale program lists the corpse at full weight: version-admissible
  // pool-wide (newer than the last commit) but condemned per member.
  PoolProgram stale = equal_program(stale_version, kDips);
  pool.apply_program(stale);
  EXPECT_EQ(pool.backend_count(), kDips - 1);
  EXPECT_GE(pool.stale_failed_admissions(), 1u);

  stop.store(true, std::memory_order_release);
  reader.join();
  pool.poll();

  // Every request either forwarded or (never, here) counted as dropped —
  // nothing vanishes across the failure commit.
  EXPECT_EQ(pool.total_forwarded() + pool.no_backend_drops(), sent.load());
  EXPECT_EQ(pool.no_backend_drops(), 0u);
  EXPECT_EQ(pool.affinity_size(), 0u);
  EXPECT_EQ(pool.pending_retired_generations(), 0u);
  // Shared-build invariant survives the churn: members still serve the
  // same maglev snapshot.
  EXPECT_EQ(pool.table_snapshot(0).get(), pool.table_snapshot(1).get());

  // A genuinely new program may resurrect the address (deliberate
  // re-admission clears the tombstone).
  PoolProgram fresh = equal_program(pool.issue_version(), kDips);
  pool.apply_program(fresh);
  EXPECT_EQ(pool.backend_count(), kDips);
}

// Fresh connections race reweighting commits on the lock-free table route:
// worker threads open distinct, never-seen flows in bursts (each flow one
// opener, one mid-flow request, one FIN) on a maglev Mux and on a MuxPool
// while a committer publishes reweighting programs to both; every other
// commit parks one DIP at weight 0 and the next restores it. Every opener
// resolves from whichever generation its burst pinned, so every one must be
// routed, counted once, and released by its FIN — no refused connection,
// no leaked pin, no lost counter update. On the pool this needs each
// member's membership and shared table to land in one publication: a
// generation pairing the parked membership with the previous table would
// refuse the openers whose slot still names the parked DIP.
TEST(GenerationTest, FreshFlowsRaceReweightingCommits) {
  constexpr std::uint32_t kThreads = 3, kBursts = 200, kBurst = 8;
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  Mux mux(net, {10, 0, 0, 1}, std::make_unique<MaglevPolicy>(251));
  MuxPool pool(net, {10, 0, 0, 2}, 2, 251);
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
  };

  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> running{kThreads};
  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<net::Message> msgs(3 * kBurst);
      std::vector<const net::Message*> ptrs;
      for (const auto& m : msgs) ptrs.push_back(&m);
      for (std::uint32_t b = 0; b < kBursts; ++b) {
        for (std::uint32_t k = 0; k < kBurst; ++k) {
          const auto client = (w * kBursts + b) * kBurst + k;
          msgs[k] = msgs[kBurst + k] = request(client, 4000);
          msgs[2 * kBurst + k] = fin(client, 4000);
        }
        mux.handle_batch(ptrs.data(), ptrs.size());
        pool.on_batch(ptrs.data(), ptrs.size());
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // The first commit lands before any traffic, the rest race it.
  do {
    commit();
    go.store(true, std::memory_order_release);
    std::this_thread::yield();
  } while (running.load(std::memory_order_acquire) > 0);
  for (auto& t : workers) t.join();

  // Conservation per dataplane: the bare Mux, and the pool's members summed.
  const std::uint64_t opens = std::uint64_t{kThreads} * kBursts * kBurst;
  auto conserved = [opens](std::vector<const Mux*> members) {
    std::uint64_t conns = 0, active = 0, forwarded = 0, drops = 0, pins = 0;
    for (const auto* m : members) {
      for (std::size_t d = 0; d < m->backend_count(); ++d) {
        conns += m->new_connections(d);
        active += m->active_connections(d);
      }
      forwarded += m->total_forwarded();
      drops += m->no_backend_drops();
      pins += m->affinity_size();
    }
    EXPECT_EQ(conns, opens);
    EXPECT_EQ(active, 0u);
    EXPECT_EQ(forwarded, 2 * opens);
    EXPECT_EQ(drops, 0u);
    EXPECT_EQ(pins, 0u);
  };
  conserved({&mux});
  conserved({&pool.mux(0), &pool.mux(1)});
}

}  // namespace
}  // namespace klb::lb
