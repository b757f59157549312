// MuxPool tests: ECMP sharding over one VIP, the single-shared-maglev-build
// invariant (pointer-equal snapshots, identical program versions on every
// member), minimal flow remap across the pool under DIP churn, and the
// graceful-drain vs abrupt-failure lifecycle end to end.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "lb/lb_controller.hpp"
#include "lb/mux_pool.hpp"
#include "lb/pool_program.hpp"
#include "util/weight.hpp"

namespace klb::lb {
namespace {

using namespace util::literals;

net::FiveTuple flow(std::uint32_t client, std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(0x0a020000 + client);
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
}

/// DIP-side recorder: which flows (by src ip value) landed here.
class RecordingDip : public net::Node {
 public:
  void on_message(const net::Message& msg) override {
    if (msg.type == net::MsgType::kHttpRequest)
      seen_[msg.tuple.src_ip.value()] = true;
    ++messages_;
  }
  bool saw(std::uint32_t client_value) const { return seen_.count(client_value) > 0; }
  std::uint64_t messages() const { return messages_; }

 private:
  std::unordered_map<std::uint32_t, bool> seen_;
  std::uint64_t messages_ = 0;
};

struct PoolFixture {
  sim::Simulation sim{41};
  net::Network net{sim};
  net::IpAddr vip{10, 0, 0, 1};

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

  static std::vector<net::IpAddr> dip_addrs(std::size_t n) {
    std::vector<net::IpAddr> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(net::IpAddr(0x0a010000 + static_cast<std::uint32_t>(i) + 1));
    return out;
  }

  static PoolProgram equal_program(std::uint64_t version,
                                   const std::vector<net::IpAddr>& dips) {
    PoolProgram p(version);
    const auto units = util::normalize_to_units(
        std::vector<double>(dips.size(), 1.0));
    for (std::size_t i = 0; i < dips.size(); ++i) p.add(dips[i], units[i]);
    return p;
  }
};

// Acceptance: all K muxes serve identical program versions with ONE shared
// maglev build per version — snapshots pointer-equal across the pool.
TEST(MuxPool, SharedSnapshotPointerEqualAcrossMuxes) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 4);
  const auto dips = PoolFixture::dip_addrs(10);

  pool.apply_program(PoolFixture::equal_program(pool.issue_version(), dips));
  EXPECT_EQ(pool.shared_builds(), 1u);
  const auto snap1 = pool.table_snapshot(0);
  ASSERT_NE(snap1, nullptr);
  for (std::size_t k = 0; k < pool.mux_count(); ++k) {
    EXPECT_EQ(pool.table_snapshot(k), snap1);  // pointer-equal, not just equal
    EXPECT_EQ(pool.mux(k).applied_version(), pool.applied_version());
    EXPECT_EQ(pool.mux(k).backend_count(), dips.size());
  }

  // A new version swaps in a new snapshot — again one build, pool-wide.
  PoolProgram v2 = PoolFixture::equal_program(pool.issue_version(), dips);
  v2.entries[0].weight_units = 0;
  pool.apply_program(v2);
  EXPECT_EQ(pool.shared_builds(), 2u);
  const auto snap2 = pool.table_snapshot(0);
  EXPECT_NE(snap2, snap1);
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    EXPECT_EQ(pool.table_snapshot(k), snap2);
}

// A stale transaction is discarded pool-wide: no member applies it, no
// per-mux build happens, the snapshot pointer does not move. The pool's
// counters are its members' summed field-wise, except superseded_programs:
// the pool runs the one version check, so it counts the stale program once.
TEST(MuxPool, StaleProgramDiscardedPoolWide) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 3);
  const auto dips = PoolFixture::dip_addrs(4);
  std::vector<RecordingDip> sinks(dips.size());
  for (std::size_t i = 0; i < dips.size(); ++i) f.net.attach(dips[i], &sinks[i]);

  pool.apply_program(PoolFixture::equal_program(2, dips));
  const auto snap = pool.table_snapshot(0);
  for (std::uint32_t c = 0; c < 300; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();

  PoolProgram stale = PoolFixture::equal_program(1, dips);
  stale.entries.pop_back();  // stale view: 3-DIP pool
  pool.apply_program(stale);

  EXPECT_EQ(pool.counters().superseded_programs, 1u);
  EXPECT_EQ(pool.applied_version(), 2u);
  EXPECT_EQ(pool.shared_builds(), 1u);
  for (std::size_t k = 0; k < pool.mux_count(); ++k) {
    EXPECT_EQ(pool.table_snapshot(k), snap);
    EXPECT_EQ(pool.mux(k).applied_version(), 2u);
    EXPECT_EQ(pool.mux(k).backend_count(), 4u);
    // Never even offered.
    EXPECT_EQ(pool.mux(k).counters().superseded_programs, 0u);
  }

  // A failure resets pinned flows on every member that served them.
  EXPECT_TRUE(pool.fail_backend(dips[0]));
  DataplaneCounters members;
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    members += pool.mux(k).counters();
  EXPECT_EQ(members.total_forwarded, 300u);
  EXPECT_GT(members.flows_reset_by_failure, 0u);
  members.superseded_programs = 1;  // the pool's own version check
  EXPECT_EQ(pool.counters(), members);
}

// ECMP spreads flows across the members; every member serves traffic and
// the shard choice is stable per tuple.
TEST(MuxPool, EcmpShardsFlowsAcrossMuxes) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 4);
  const auto dips = PoolFixture::dip_addrs(8);
  std::vector<RecordingDip> sinks(dips.size());
  for (std::size_t i = 0; i < dips.size(); ++i) f.net.attach(dips[i], &sinks[i]);
  pool.apply_program(PoolFixture::equal_program(pool.issue_version(), dips));

  for (std::uint32_t c = 0; c < 4000; ++c) {
    EXPECT_EQ(pool.shard_of(flow(c, 443)), pool.shard_of(flow(c, 443)));
    f.net.send(f.vip, f.request(c, 443));
  }
  f.sim.run_all();

  EXPECT_EQ(pool.counters().total_forwarded, 4000u);
  for (std::size_t k = 0; k < pool.mux_count(); ++k)  // ~1000 +- spread
    EXPECT_GT(pool.mux(k).counters().total_forwarded, 500u);
  std::uint64_t landed = 0;
  for (const auto& s : sinks) landed += s.messages();
  EXPECT_EQ(landed, 4000u);
}

// Acceptance: flow remap on a single-DIP removal stays < 1% across the
// pool. The shared table resolves hashes to stable DIP ids, so this is
// measured on the snapshot the whole pool serves: slots that changed owner
// without belonging to the removed DIP are collateral churn.
TEST(MuxPool, SingleDipRemovalRemapsUnderOnePercent) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 3);
  const auto dips = PoolFixture::dip_addrs(100);

  pool.apply_program(PoolFixture::equal_program(pool.issue_version(), dips));
  const auto before = pool.table_snapshot(0);

  const auto removed = dips[50];
  PoolProgram v2(pool.issue_version());
  const auto units = util::normalize_to_units(
      std::vector<double>(dips.size() - 1, 1.0));
  std::size_t u = 0;
  for (const auto dip : dips)
    if (!(dip == removed)) v2.add(dip, units[u++]);
  pool.apply_program(v2);
  const auto after = pool.table_snapshot(0);

  ASSERT_EQ(before->table_size(), after->table_size());
  std::size_t moved = 0;
  for (std::size_t s = 0; s < before->table_size(); ++s) {
    const auto was = before->lookup_id(s);
    if (was == removed.value()) continue;  // had to move
    if (was != after->lookup_id(s)) ++moved;
  }
  EXPECT_LT(static_cast<double>(moved) /
                static_cast<double>(before->table_size()),
            0.01);
}

// Any two muxes pick the same DIP for the same 5-tuple (the reason the
// build is shared): replaying the pool's flows through each member's
// affinity-free pick path lands identically. Verified end to end — a flow
// re-sent after its FIN (no affinity left anywhere) still reaches the DIP
// it first landed on, whichever mux ECMP now assigns it to.
TEST(MuxPool, PicksConsistentAcrossMembers) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 5);
  const auto dips = PoolFixture::dip_addrs(20);
  std::vector<RecordingDip> sinks(dips.size());
  for (std::size_t i = 0; i < dips.size(); ++i) f.net.attach(dips[i], &sinks[i]);
  pool.apply_program(PoolFixture::equal_program(pool.issue_version(), dips));

  // First landing of each flow.
  for (std::uint32_t c = 0; c < 2000; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  std::map<std::uint32_t, std::size_t> first_dip;
  for (std::uint32_t c = 0; c < 2000; ++c)
    for (std::size_t i = 0; i < sinks.size(); ++i)
      if (sinks[i].saw(net::IpAddr(0x0a020000 + c).value())) {
        first_dip[c] = i;
        break;
      }
  ASSERT_EQ(first_dip.size(), 2000u);

  // Unpin everything, then replay: same tuple -> same DIP via the shared
  // table, no matter which member handles it.
  for (std::uint32_t c = 0; c < 2000; ++c) f.net.send(f.vip, f.fin(c, 443));
  f.sim.run_all();
  ASSERT_EQ(pool.affinity_size(), 0u);
  const auto forwarded_before = pool.counters().total_forwarded;
  for (std::uint32_t c = 0; c < 2000; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  EXPECT_EQ(pool.counters().total_forwarded, forwarded_before + 2000);
  std::uint64_t reconnections = 0;
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    for (const auto& b : pool.mux(k).backends())
      reconnections += b.counters->connections;
  EXPECT_EQ(reconnections, 4000u);  // 2000 first + 2000 replayed
  // Every replayed flow reached the DIP of its first landing: per-DIP new
  // connection counts doubled exactly.
  for (std::size_t i = 0; i < dips.size(); ++i) {
    std::uint64_t per_dip = pool.new_connections_to(dips[i]);
    std::uint64_t expected = 0;
    for (const auto& [c, d] : first_dip)
      if (d == i) expected += 2;
    EXPECT_EQ(per_dip, expected) << "dip " << i;
  }
}

// Acceptance: a Draining backend reaches Removed without dropping one
// pinned flow, pool-wide — while an abrupt fail_backend still resets them.
TEST(MuxPool, DrainCompletesWithoutDroppingPinnedFlows) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 3);
  const auto dips = PoolFixture::dip_addrs(4);
  std::vector<RecordingDip> sinks(dips.size());
  for (std::size_t i = 0; i < dips.size(); ++i) f.net.attach(dips[i], &sinks[i]);
  pool.apply_program(PoolFixture::equal_program(pool.issue_version(), dips));

  for (std::uint32_t c = 0; c < 400; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  const auto pinned_on_target = pool.new_connections_to(dips[0]);
  ASSERT_GT(pinned_on_target, 0u);

  // Drain DIP 0 in the same transaction that reweights the survivors.
  PoolProgram drain(pool.issue_version());
  drain.add(dips[0], 0, BackendState::kDraining);
  const auto units = util::normalize_to_units(std::vector<double>(3, 1.0));
  for (std::size_t i = 1; i < dips.size(); ++i) drain.add(dips[i], units[i - 1]);
  pool.apply_program(drain);

  // Pinned flows keep flowing to the drainer; new flows avoid it.
  const auto msgs_before = sinks[0].messages();
  for (std::uint32_t c = 0; c < 400; ++c)
    f.net.send(f.vip, f.request(c, 443));  // same flows: pinned
  for (std::uint32_t c = 1000; c < 1400; ++c)
    f.net.send(f.vip, f.request(c, 443));  // fresh flows: steered away
  f.sim.run_all();
  EXPECT_EQ(sinks[0].messages() - msgs_before, pinned_on_target);
  EXPECT_EQ(pool.new_connections_to(dips[0]), pinned_on_target);

  // FIN everything: the drain completes on every member without one reset.
  for (std::uint32_t c = 0; c < 400; ++c) f.net.send(f.vip, f.fin(c, 443));
  for (std::uint32_t c = 1000; c < 1400; ++c) f.net.send(f.vip, f.fin(c, 443));
  f.sim.run_all();
  const auto drained = pool.counters();
  EXPECT_EQ(drained.drains_completed, pool.mux_count());
  EXPECT_EQ(drained.flows_reset_by_failure, 0u);
  EXPECT_EQ(pool.backend_count(), 3u);
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    EXPECT_EQ(pool.mux(k).backend_count(), 3u);

  // Abrupt failure, for contrast: pinned flows are reset, loudly.
  for (std::uint32_t c = 2000; c < 2400; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  const auto pinned_on_failed = pool.new_connections_to(dips[1]) -
                                /*pre-drain connections*/ 0;
  ASSERT_GT(pinned_on_failed, 0u);
  const auto active_on_failed = [&] {
    std::uint64_t n = 0;
    for (std::size_t k = 0; k < pool.mux_count(); ++k)
      for (const auto& b : pool.mux(k).backends())
        if (b.addr == dips[1]) n += b.counters->active;
    return n;
  }();
  ASSERT_GT(active_on_failed, 0u);
  const auto snap_before_fail = pool.table_snapshot(0);
  EXPECT_TRUE(pool.fail_backend(dips[1]));
  EXPECT_EQ(pool.counters().flows_reset_by_failure, active_on_failed);
  EXPECT_EQ(pool.backend_count(), 2u);

  // The shared table rebuilt immediately: the dead DIP's hash space went
  // to the survivors, so the reset flows' retries are served, not
  // blackholed until the next control-plane program.
  EXPECT_NE(pool.table_snapshot(0), snap_before_fail);
  for (std::size_t k = 1; k < pool.mux_count(); ++k)
    EXPECT_EQ(pool.table_snapshot(k), pool.table_snapshot(0));
  const auto fwd_before_retry = pool.counters().total_forwarded;
  for (std::uint32_t c = 2000; c < 2400; ++c)
    f.net.send(f.vip, f.request(c, 443));  // the reset clients reconnect
  f.sim.run_all();
  EXPECT_EQ(pool.counters().total_forwarded, fwd_before_retry + 400);
  EXPECT_EQ(pool.new_connections_to(dips[1]), 0u);  // dead DIP reset counters gone with it
}

// One commit is one publication per member: the new membership and the
// new shared table land together, so a drain commit never pairs the
// drainer's parked entry with a table that still routes to it.
TEST(MuxPool, OneCommitPublishesOnceAndDrainsDropNothing) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 3);
  const auto dips = PoolFixture::dip_addrs(4);
  std::vector<RecordingDip> sinks(dips.size());
  for (std::size_t i = 0; i < dips.size(); ++i) f.net.attach(dips[i], &sinks[i]);

  auto published = pool.counters().generations_published;
  pool.apply_program(PoolFixture::equal_program(pool.issue_version(), dips));
  EXPECT_EQ(pool.counters().generations_published,
            published + pool.mux_count());

  for (std::uint32_t c = 0; c < 400; ++c) f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();

  PoolProgram drain(pool.issue_version());
  drain.add(dips[0], 0, BackendState::kDraining);
  const auto units = util::normalize_to_units(std::vector<double>(3, 1.0));
  for (std::size_t i = 1; i < dips.size(); ++i) drain.add(dips[i], units[i - 1]);
  published = pool.counters().generations_published;
  pool.apply_program(drain);
  EXPECT_EQ(pool.counters().generations_published,
            published + pool.mux_count());
  EXPECT_EQ(pool.shared_builds(), 2u);
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    EXPECT_EQ(pool.table_snapshot(k), pool.table_snapshot(0));

  for (std::uint32_t c = 0; c < 400; ++c) f.net.send(f.vip, f.request(c, 443));
  for (std::uint32_t c = 1000; c < 1400; ++c)
    f.net.send(f.vip, f.request(c, 443));
  f.sim.run_all();
  const auto c = pool.counters();
  EXPECT_EQ(c.total_forwarded, 1200u);
  EXPECT_EQ(c.no_backend_drops, 0u);
}

// The delayed control plane drives a pool exactly like a single mux: one
// transaction, committed on every member after the delay.
TEST(MuxPool, LbControllerProgramsWholePool) {
  PoolFixture f;
  MuxPool pool(f.net, f.vip, 3);
  const auto dips = PoolFixture::dip_addrs(3);
  pool.apply_program(PoolFixture::equal_program(pool.issue_version(), dips));
  LbController ctrl(f.sim, pool, 200_ms);

  PoolProgram p(ctrl.issue_version());
  p.add(dips[0], 5000).add(dips[1], 3000).add(dips[2], 2000);
  ctrl.apply_program(p);
  f.sim.run_until(100_ms);
  EXPECT_NE(pool.mux(0).weight_units()[0], 5000);  // not yet
  f.sim.run_until(300_ms);
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    EXPECT_EQ(pool.mux(k).weight_units(),
              (std::vector<std::int64_t>{5000, 3000, 2000}));
  EXPECT_EQ(pool.applied_version(), p.version);
}

}  // namespace
}  // namespace klb::lb
