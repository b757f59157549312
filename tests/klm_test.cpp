// KLM tests: periodic probing writes samples to the store over RESP, error
// and timeout accounting, failure visibility, ping prober behaviour, and
// destruction with callbacks still scheduled.
#include <gtest/gtest.h>

#include "klm/klm.hpp"
#include "server/dip_server.hpp"
#include "store/kv_server.hpp"

namespace klb::klm {
namespace {

using namespace util::literals;

struct Fixture {
  sim::Simulation sim{41};
  net::Network net{sim};
  net::IpAddr vip{10, 0, 0, 1};
  net::IpAddr store_addr{10, 3, 0, 2};
  std::shared_ptr<store::KvEngine> engine =
      std::make_shared<store::KvEngine>([this] { return sim.now(); });
  store::KvServer kv_server{net, store_addr, engine};
  store::LatencyStore lat_store{engine};
};

KlmConfig fast_cfg() {
  KlmConfig cfg;
  cfg.probes_per_round = 20;
  cfg.period = 1_s;
  cfg.spread_fraction = 0.5;
  return cfg;
}

TEST(Klm, WritesSamplesToStore) {
  Fixture f;
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, {});
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip.address()},
          f.store_addr, fast_cfg());
  klm.start();
  f.sim.run_until(3500_ms);
  klm.stop();

  const auto samples = f.lat_store.recent(f.vip, dip.address(), 10);
  ASSERT_GE(samples.size(), 3u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.probes, 20u);
    EXPECT_EQ(s.errors, 0u);
    EXPECT_EQ(s.timeouts, 0u);
    // Unloaded DIP: ~RTT + service time.
    EXPECT_NEAR(s.avg_latency_ms, 3.4, 1.0);
  }
  // Samples are newest-first.
  EXPECT_GT(samples[0].at, samples[1].at);
}

TEST(Klm, ProbesAllDipsEachRound) {
  Fixture f;
  server::DipServer dip1(f.net, net::IpAddr{10, 1, 0, 1}, {});
  server::DipServer dip2(f.net, net::IpAddr{10, 1, 0, 2}, {});
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip,
          {dip1.address(), dip2.address()}, f.store_addr, fast_cfg());
  klm.start();
  f.sim.run_until(2500_ms);
  EXPECT_GE(f.lat_store.recent(f.vip, dip1.address(), 10).size(), 2u);
  EXPECT_GE(f.lat_store.recent(f.vip, dip2.address(), 10).size(), 2u);
}

TEST(Klm, DeadDipYieldsAllTimeouts) {
  Fixture f;
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, {});
  dip.set_alive(false);
  auto cfg = fast_cfg();
  cfg.probe_timeout = 500_ms;
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip.address()},
          f.store_addr, cfg);
  klm.start();
  f.sim.run_until(2_s);
  const auto sample = f.lat_store.latest(f.vip, dip.address());
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(sample->all_failed());
  EXPECT_EQ(sample->timeouts, 20u);
}

TEST(Klm, OverloadedDipShowsErrors) {
  Fixture f;
  server::DipConfig dcfg;
  dcfg.backlog_per_core = 2;  // tiny backlog: probes themselves overflow it
  dcfg.demand_core_ms = 400.0;  // very slow: 2.5 rps capacity
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, dcfg);
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip.address()},
          f.store_addr, fast_cfg());
  klm.start();
  f.sim.run_until(3_s);
  const auto sample = f.lat_store.latest(f.vip, dip.address());
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(sample->saw_drops());
  EXPECT_GT(sample->errors, 0u);
}

TEST(Klm, ProbeOnceReportsSingleRound) {
  Fixture f;
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, {});
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip.address()},
          f.store_addr, fast_cfg());
  klm.probe_once(dip.address(), 5);
  f.sim.run_all();
  const auto sample = f.lat_store.latest(f.vip, dip.address());
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->probes, 5u);
}

// Removing a DIP mid-round must drop the round outright: its scheduled
// probes become no-ops and its pending timeouts are cancelled, so no stale
// (all-timeout) sample is ever written for a DIP nobody owns anymore.
TEST(Klm, RemoveDipMidRoundWritesNoStaleSample) {
  Fixture f;
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, {});
  dip.set_alive(false);  // every probe of the round would time out
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip.address()},
          f.store_addr, fast_cfg());
  klm.start();
  f.sim.run_until(300_ms);  // mid-round: some probes sent, none resolved
  EXPECT_EQ(klm.rounds_in_flight(), 1u);
  EXPECT_GT(klm.probes_outstanding(), 0u);

  klm.remove_dip(dip.address());
  EXPECT_EQ(klm.rounds_in_flight(), 0u);
  EXPECT_EQ(klm.probes_outstanding(), 0u);
  EXPECT_EQ(klm.rounds_dropped(), 1u);

  f.sim.run_until(5_s);  // all former timeouts would have fired by now
  klm.stop();
  EXPECT_TRUE(f.lat_store.recent(f.vip, dip.address(), 10).empty());
  EXPECT_EQ(klm.rounds_completed(), 0u);
}

// A removed DIP's in-flight probes must not resurrect the round via a late
// reply either: the live-DIP variant of the test above.
TEST(Klm, RemoveDipMidRoundIgnoresLateReplies) {
  Fixture f;
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, {});
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip.address()},
          f.store_addr, fast_cfg());
  klm.start();
  f.sim.run_until(200_ms);
  klm.remove_dip(dip.address());
  f.sim.run_until(3_s);
  klm.stop();
  EXPECT_TRUE(f.lat_store.recent(f.vip, dip.address(), 10).empty());
  EXPECT_EQ(klm.rounds_in_flight(), 0u);
}

// probe_once with a non-positive count would insert a round no resolution
// event can ever finish — it must be rejected, not leaked in flight.
TEST(Klm, ProbeOnceRejectsNonPositiveCount) {
  Fixture f;
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, {});
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip.address()},
          f.store_addr, fast_cfg());
  klm.probe_once(dip.address(), 0);
  klm.probe_once(dip.address(), -5);
  EXPECT_EQ(klm.rounds_in_flight(), 0u);
  EXPECT_EQ(klm.rejected_probe_requests(), 2u);
  f.sim.run_all();
  EXPECT_TRUE(f.lat_store.recent(f.vip, dip.address(), 10).empty());

  klm.probe_once(dip.address(), 3);  // sane requests still work
  f.sim.run_all();
  const auto sample = f.lat_store.latest(f.vip, dip.address());
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->probes, 3u);
}

// A DIP added mid-run joins the next periodic round.
TEST(Klm, AddDipMidRunStartsProbingNextRound) {
  Fixture f;
  server::DipServer dip1(f.net, net::IpAddr{10, 1, 0, 1}, {});
  server::DipServer dip2(f.net, net::IpAddr{10, 1, 0, 2}, {});
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip1.address()},
          f.store_addr, fast_cfg());
  klm.start();
  f.sim.run_until(1200_ms);  // round 1 (dip1 only) is over
  EXPECT_TRUE(f.lat_store.recent(f.vip, dip2.address(), 10).empty());

  klm.add_dip(dip2.address());
  f.sim.run_until(2900_ms);  // round 2 fires at 2 s and completes
  klm.stop();
  const auto samples = f.lat_store.recent(f.vip, dip2.address(), 10);
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.front().probes, 20u);
  EXPECT_EQ(samples.front().timeouts, 0u);
}

TEST(Klm, AddRemoveDip) {
  Fixture f;
  server::DipServer dip1(f.net, net::IpAddr{10, 1, 0, 1}, {});
  server::DipServer dip2(f.net, net::IpAddr{10, 1, 0, 2}, {});
  Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip, {dip1.address()},
          f.store_addr, fast_cfg());
  klm.add_dip(dip2.address());
  klm.remove_dip(dip1.address());
  klm.start();
  f.sim.run_until(1500_ms);
  EXPECT_TRUE(f.lat_store.recent(f.vip, dip1.address(), 10).empty());
  EXPECT_FALSE(f.lat_store.recent(f.vip, dip2.address(), 10).empty());
}

// A KLM destroyed mid-round must take its paced probe sends with it: the
// round's send_probe callbacks capture the KLM and are scheduled up to the
// spread window ahead. Without the cancel, running on calls into freed
// memory (ASan: stack-use-after-scope) and leaves the events queued.
TEST(Klm, DestroyedMidRoundLeavesNoEventBehind) {
  Fixture f;
  const auto before = f.sim.pending_events();
  {
    Klm klm(f.net, net::IpAddr{10, 3, 0, 1}, f.vip,
            {net::IpAddr{10, 1, 0, 9}},  // unattached: every probe times out
            f.store_addr);
    klm.start();
    f.sim.run_for(10_ms);
    EXPECT_GT(f.sim.pending_events(), before);
  }
  EXPECT_EQ(f.sim.pending_events(), before);
  f.sim.run_for(3_s);
}

TEST(PingProber, DestroyedMidRunLeavesNoEventBehind) {
  Fixture f;
  const auto before = f.sim.pending_events();
  {
    PingProber prober(f.net, net::IpAddr{10, 3, 0, 3});
    prober.ping(net::IpAddr{10, 9, 9, 9}, 5);  // nobody home: 2 s loss timers
    f.sim.run_for(25_ms);
    EXPECT_GT(f.sim.pending_events(), before);
  }
  EXPECT_EQ(f.sim.pending_events(), before);
  f.sim.run_for(3_s);
}

TEST(PingProber, MeasuresKernelRtt) {
  Fixture f;
  server::DipServer dip(f.net, net::IpAddr{10, 1, 0, 1}, {});
  PingProber prober(f.net, net::IpAddr{10, 3, 0, 3});
  prober.ping(dip.address(), 20);
  f.sim.run_all();
  EXPECT_EQ(prober.rtt_ms().count(), 20u);
  EXPECT_EQ(prober.lost(), 0u);
  // Two fabric hops + kernel handling: well under 1 ms.
  EXPECT_LT(prober.rtt_ms().mean(), 1.0);
}

TEST(PingProber, LostPingsCounted) {
  Fixture f;
  PingProber prober(f.net, net::IpAddr{10, 3, 0, 3});
  prober.ping(net::IpAddr{10, 9, 9, 9}, 5);  // nobody home
  f.sim.run_all();
  EXPECT_EQ(prober.lost(), 5u);
  EXPECT_EQ(prober.rtt_ms().count(), 0u);
}

}  // namespace
}  // namespace klb::klm
