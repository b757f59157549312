// Stateless-fast-path subsystem tests (ISSUE 8, ROADMAP item 2): the
// GenerationDiff/ExceptionFilter engine in isolation (baseline, flagging,
// window aging, geometry guards), the SlotPinCounts floor, and the Mux
// routing contract end to end — a flow on an unchanged slot never grows a
// FlowTable entry across N publishes, a mid-flow packet whose slot's pick
// moved is adopted onto its previous owner (the break the subsystem
// exists to avoid), the resulting pin survives a later publish that
// un-changes its slot, and stateless drains wait out the adoption grace
// before auto-completing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "lb/consistency.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
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

net::Message request(std::uint32_t client, std::uint16_t port,
                     std::uint64_t req_id = 0) {
  net::Message m;
  m.type = net::MsgType::kHttpRequest;
  m.tuple = flow(client, port);
  m.req_id = req_id;  // <= 1 opens the connection; > 1 is mid-flow
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
    p.add(dip_addr(d), static_cast<std::int64_t>(util::kWeightScale / dips));
  return p;
}

/// Backend `i`'s counters, read from one backends() snapshot.
std::shared_ptr<BackendCounters> counters_of(const Mux& mux, std::size_t i) {
  return mux.backends()[i].counters;
}

/// The backend index that owns the single live flow (by connection count).
std::size_t owner_of_only_flow(const Mux& mux) {
  std::size_t owner = kNoBackend;
  const auto pool = mux.backends();
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (pool[i].counters->connections.load() > 0) owner = i;
  return owner;
}

/// An immutable table of `min_size`'s geometry over `entries`.
std::shared_ptr<const MaglevTable> built_table(
    std::size_t min_size, const std::vector<MaglevEntry>& entries) {
  auto t = std::make_shared<MaglevTable>(min_size);
  t->build(entries);
  return t;
}

// --- GenerationDiff / ExceptionFilter in isolation ---------------------------

TEST(GenerationDiffTest, BaselineAndIdenticalRebuildsFlagNothing) {
  GenerationDiff diff(ConsistencyConfig{});
  const std::vector<MaglevEntry> entries{{1, 100}, {2, 100}, {3, 100}};
  const auto table = built_table(251, entries);

  // First publish seeds the history: nothing to diff against, no flags.
  const auto f1 = diff.on_publish(table, 1);
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->seq(), 1u);
  EXPECT_EQ(f1->table_size(), table->table_size());
  EXPECT_EQ(f1->exception_slots(), 0u);

  // An identical rebuild moves no slots, so nothing is flagged and every
  // slot reads kNoOwner; nor does republishing the same snapshot (a drain
  // completion).
  const auto f2 = diff.on_publish(built_table(251, entries), 2);
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(f2->exception_slots(), 0u);
  EXPECT_EQ(diff.on_publish(table, 3)->exception_slots(), 0u);
  for (std::size_t s = 0; s < table->table_size(); ++s) {
    EXPECT_FALSE(f2->is_exception(s));
    EXPECT_EQ(f2->prev_owner(s), ExceptionFilter::kNoOwner);
  }
}

TEST(GenerationDiffTest, OwnerChangesAreFlaggedWithTheDisplacedOwner) {
  GenerationDiff diff(ConsistencyConfig{});
  const auto before = built_table(251, {{1, 100}, {2, 100}, {3, 100}});
  // id 2 leaves; its slots re-home
  const auto after = built_table(251, {{1, 100}, {3, 100}});
  const auto n = before->table_size();
  ASSERT_EQ(n, after->table_size());

  diff.on_publish(before, 1);
  const auto f = diff.on_publish(after, 2);
  ASSERT_NE(f, nullptr);

  std::size_t changed = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const auto was = before->slot_owner(s);
    if (was != after->slot_owner(s)) {
      ++changed;
      // Every moved slot is flagged and remembers who it displaced —
      // where that slot's pre-change stateless flows actually live.
      EXPECT_TRUE(f->is_exception(s)) << "slot " << s;
      EXPECT_EQ(f->prev_owner(s), was) << "slot " << s;
    } else {
      EXPECT_FALSE(f->is_exception(s)) << "slot " << s;
      EXPECT_EQ(f->prev_owner(s), ExceptionFilter::kNoOwner) << "slot " << s;
    }
  }
  // Removing one of three equal backends must move some slots (its whole
  // share) but not all of them (maglev's minimal disruption).
  EXPECT_GT(changed, 0u);
  EXPECT_LT(changed, n);
  EXPECT_EQ(f->exception_slots(), changed);
}

TEST(GenerationDiffTest, ChangesAgeOutOfTheHistoryWindow) {
  ConsistencyConfig cfg;
  cfg.history = 2;
  GenerationDiff diff(cfg);
  const auto before = built_table(251, {{1, 100}, {2, 100}});
  const auto after = built_table(251, {{1, 100}});

  diff.on_publish(before, 1);
  const auto changed = diff.on_publish(after, 2)->exception_slots();
  ASSERT_GT(changed, 0u);
  // The change stays visible for `history` publishes, then ages out.
  EXPECT_EQ(diff.on_publish(after, 3)->exception_slots(), changed);
  EXPECT_EQ(diff.on_publish(after, 4)->exception_slots(), 0u);
}

TEST(GenerationDiffTest, GeometryChangeDisengagesThatPublishOnly) {
  GenerationDiff diff(ConsistencyConfig{});
  const auto small = built_table(251, {{1, 100}});
  const auto large = built_table(509, {{1, 100}});

  ASSERT_NE(diff.on_publish(small, 1), nullptr);
  // Incomparable slot geometry: no filter for this publish (the Mux then
  // pins every flow of that generation — the classic dataplane), however
  // often it is offered.
  EXPECT_EQ(diff.on_publish(large, 2), nullptr);
  EXPECT_EQ(diff.on_publish(large, 3), nullptr);
  // A same-geometry publish re-engages.
  EXPECT_NE(diff.on_publish(small, 4), nullptr);
}

TEST(SlotPinCountsTest, CountsPerSlotAndDecrementFloorsAtZero) {
  SlotPinCounts pins(8);
  EXPECT_EQ(pins.size(), 8u);
  pins.inc(3);
  pins.inc(3);
  pins.inc(5);
  EXPECT_EQ(pins.count(3), 2u);
  EXPECT_EQ(pins.count(5), 1u);
  EXPECT_EQ(pins.total(), 3u);
  pins.dec(3);
  pins.dec(3);
  pins.dec(3);  // stray decrement: floored, never wraps
  EXPECT_EQ(pins.count(3), 0u);
  EXPECT_EQ(pins.total(), 1u);
}

// --- Mux routing contract ----------------------------------------------------

TEST(StatelessFastPath, UnchangedSlotFlowNeverPinsAcrossPublishes) {
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  ConsistencyConfig consistency;
  consistency.stateless = true;
  Mux mux(net, {10, 0, 0, 1}, std::make_unique<MaglevPolicy>(251),
          /*attach_to_vip=*/true, FlowTableConfig{}, consistency);
  ASSERT_TRUE(mux.stateless_engaged());
  mux.apply_program(equal_program(1, 8));
  EXPECT_EQ(mux.exception_slots(), 0u);  // empty -> owned is exempt

  // Opener: routed by hash, counted as a connection, never pinned.
  mux.on_message(request(7, 4242, /*req_id=*/1));
  EXPECT_EQ(mux.affinity_size(), 0u);
  EXPECT_EQ(mux.counters().stateless_picks, 1u);
  const auto owner = owner_of_only_flow(mux);
  ASSERT_NE(owner, kNoBackend);
  EXPECT_EQ(counters_of(mux, owner)->connections.load(), 1u);
  // Stateless flows hold no pin: `active` counts pins, which drains wait on.
  EXPECT_EQ(counters_of(mux, owner)->active.load(), 0u);

  // Identical re-publishes move no slots: every later packet keeps routing
  // by hash to the same backend, with the flow table untouched.
  for (std::uint64_t g = 2; g <= 6; ++g) {
    mux.apply_program(equal_program(g, 8));
    EXPECT_EQ(mux.exception_slots(), 0u);
    mux.on_message(request(7, 4242, /*req_id=*/g));
    EXPECT_EQ(mux.affinity_size(), 0u);
    EXPECT_EQ(counters_of(mux, owner)->forwarded.load(), g);
    // The opener is counted once.
    EXPECT_EQ(counters_of(mux, owner)->connections.load(), 1u);
  }
  EXPECT_EQ(mux.counters().stateless_picks, 6u);
  EXPECT_EQ(mux.counters().exception_pins, 0u);
  EXPECT_EQ(mux.live_exception_pins(), 0u);

  // The close is stateless too: nothing to erase, the FIN is forwarded to
  // the flow's table pick so the server closes out.
  const auto sent_before = net.messages_blackholed();
  mux.on_message(fin(7, 4242));
  EXPECT_EQ(net.messages_blackholed(), sent_before + 1);
  EXPECT_EQ(mux.affinity_size(), 0u);
  EXPECT_EQ(mux.counters().affinity_breaks, 0u);
}

TEST(StatelessFastPath, MidFlowAdoptionPinsToThePreviousOwner) {
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  ConsistencyConfig consistency;
  consistency.stateless = true;
  Mux mux(net, {10, 0, 0, 1}, std::make_unique<MaglevPolicy>(251),
          /*attach_to_vip=*/true, FlowTableConfig{}, consistency);
  mux.apply_program(equal_program(1, 8));

  // One stateless flow; remember who serves it.
  mux.on_message(request(1, 5555, /*req_id=*/1));
  const auto owner = owner_of_only_flow(mux);
  ASSERT_NE(owner, kNoBackend);
  const auto owner_addr = mux.backend_addr(owner);
  ASSERT_EQ(mux.affinity_size(), 0u);

  // Drain the owner: the table rebuilds without it, so the flow's slot is
  // flagged with the drainer as the displaced owner.
  {
    PoolProgram drain(2);
    for (std::size_t d = 0; d < 8; ++d) {
      const auto addr = dip_addr(d);
      if (addr == owner_addr)
        drain.add(addr, 0, BackendState::kDraining);
      else
        drain.add(addr, static_cast<std::int64_t>(util::kWeightScale / 7));
    }
    mux.apply_program(drain);
  }
  ASSERT_EQ(mux.draining_count(), 1u);
  EXPECT_GT(mux.exception_slots(), 0u);

  // Mid-flow packet: the pick moved away, so the flow is adopted — pinned
  // to the drainer it was opened on instead of breaking onto the new pick.
  mux.on_message(request(1, 5555, /*req_id=*/2));
  EXPECT_EQ(mux.counters().affinity_breaks_avoided, 1u);
  EXPECT_EQ(mux.counters().affinity_breaks, 0u);
  EXPECT_EQ(mux.affinity_size(), 1u);
  EXPECT_EQ(mux.counters().exception_pins, 1u);
  EXPECT_EQ(mux.live_exception_pins(), 1u);
  EXPECT_EQ(counters_of(mux, owner)->forwarded.load(), 2u);
  EXPECT_EQ(counters_of(mux, owner)->active.load(), 1u);
  // Adoption is not a new connection: the opener already counted it.
  EXPECT_EQ(counters_of(mux, owner)->connections.load(), 1u);

  // The pinned drainer cannot auto-complete while the flow lives.
  mux.poll();
  EXPECT_EQ(mux.draining_count(), 1u);
  EXPECT_EQ(mux.counters().drains_completed, 0u);

  // G+1 un-changes the slot: cancelling the drain hands the slot back to
  // the original owner. The pin must survive the publish — the next packet
  // is an affinity hit (not a stateless pick), still on the same backend.
  mux.apply_program(equal_program(3, 8));
  ASSERT_EQ(mux.draining_count(), 0u);
  const auto picks_before = mux.counters().stateless_picks;
  mux.on_message(request(1, 5555, /*req_id=*/3));
  EXPECT_EQ(mux.counters().stateless_picks, picks_before);
  EXPECT_EQ(mux.affinity_size(), 1u);
  EXPECT_EQ(mux.live_exception_pins(), 1u);
  EXPECT_EQ(counters_of(mux, owner)->forwarded.load(), 3u);

  // FIN unpins cleanly: slot counts drain back to zero, nothing dangles.
  mux.on_message(fin(1, 5555));
  EXPECT_EQ(mux.affinity_size(), 0u);
  EXPECT_EQ(mux.live_exception_pins(), 0u);
  EXPECT_EQ(counters_of(mux, owner)->active.load(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

TEST(StatelessFastPath, DrainWaitsOutTheAdoptionGrace) {
  sim::Simulation sim(5);
  net::Network net(sim);
  net.set_blackhole(true);
  ConsistencyConfig consistency;
  consistency.stateless = true;
  consistency.drain_grace_us = 10'000;
  Mux mux(net, {10, 0, 0, 1}, std::make_unique<MaglevPolicy>(251),
          /*attach_to_vip=*/true, FlowTableConfig{}, consistency);
  mux.apply_program(equal_program(1, 4));

  // A stateless flow holds no pin, so its backend's active count is zero —
  // which must NOT be read as "safe to remove" the instant a drain starts.
  mux.on_message(request(2, 6000, /*req_id=*/1));
  const auto owner = owner_of_only_flow(mux);
  ASSERT_NE(owner, kNoBackend);
  const auto owner_addr = mux.backend_addr(owner);
  {
    PoolProgram drain(2);
    for (std::size_t d = 0; d < 4; ++d) {
      const auto addr = dip_addr(d);
      if (addr == owner_addr)
        drain.add(addr, 0, BackendState::kDraining);
      else
        drain.add(addr, static_cast<std::int64_t>(util::kWeightScale / 3));
    }
    mux.apply_program(drain);
  }
  ASSERT_EQ(counters_of(mux, owner)->active.load(), 0u);
  // Inside the grace window: the drain holds, however often it is polled.
  mux.poll();
  EXPECT_EQ(mux.draining_count(), 1u);
  EXPECT_EQ(mux.backend_count(), 4u);

  // The window is exactly what the flow needs to adopt a pin mid-flow.
  mux.on_message(request(2, 6000, /*req_id=*/2));
  EXPECT_EQ(mux.counters().affinity_breaks_avoided, 1u);
  EXPECT_EQ(counters_of(mux, owner)->active.load(), 1u);

  // Once the pin drops AND the grace has elapsed, the drain completes.
  mux.on_message(fin(2, 6000));
  sim.run_for(util::SimTime::micros(consistency.drain_grace_us));
  mux.poll();
  EXPECT_EQ(mux.draining_count(), 0u);
  EXPECT_EQ(mux.backend_count(), 3u);
  EXPECT_EQ(mux.counters().drains_completed, 1u);
  EXPECT_EQ(mux.counters().affinity_breaks, 0u);
}

}  // namespace
}  // namespace klb::lb
