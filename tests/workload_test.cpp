// Workload module tests: traffic patterns, the latency recorder, and
// client behaviour — open-loop rate accuracy, closed-loop concurrency
// caps, session/FIN lifecycle, timeout handling, and per-DIP attribution
// from the Server response header.
#include <gtest/gtest.h>

#include "lb/dns_lb.hpp"
#include "server/dip_server.hpp"
#include "workload/client.hpp"
#include "workload/recorder.hpp"
#include "workload/traffic.hpp"

namespace klb::workload {
namespace {

using namespace util::literals;

TEST(TrafficPattern, ConstantRate) {
  const TrafficPattern p(100.0);
  EXPECT_EQ(p.rate_at(util::SimTime::zero()), 100.0);
  EXPECT_EQ(p.rate_at(util::SimTime::minutes(60)), 100.0);
}

TEST(TrafficPattern, PiecewiseSteps) {
  TrafficPattern p(50.0);
  p.add_piece(10_s, 100.0);
  p.add_piece(20_s, 25.0);
  EXPECT_EQ(p.rate_at(5_s), 50.0);
  EXPECT_EQ(p.rate_at(10_s), 100.0);
  EXPECT_EQ(p.rate_at(15_s), 100.0);
  EXPECT_EQ(p.rate_at(25_s), 25.0);
}

TEST(TrafficPattern, ScaleMultipliesAllPieces) {
  TrafficPattern p(50.0);
  p.add_piece(10_s, 100.0);
  p.scale(2.0);
  EXPECT_EQ(p.rate_at(0_s), 100.0);
  EXPECT_EQ(p.rate_at(11_s), 200.0);
}

TEST(TrafficPattern, UnsortedPiecesAreSorted) {
  TrafficPattern p(std::vector<std::pair<util::SimTime, double>>{});
  p.add_piece(20_s, 30.0);
  p.add_piece(5_s, 10.0);
  EXPECT_EQ(p.rate_at(6_s), 10.0);
  EXPECT_EQ(p.rate_at(21_s), 30.0);
}

TEST(LatencyRecorder, TracksPerDipAndOverall) {
  LatencyRecorder rec;
  const net::IpAddr a{10, 1, 0, 1};
  const net::IpAddr b{10, 1, 0, 2};
  rec.record_success(a, 2.0);
  rec.record_success(a, 4.0);
  rec.record_success(b, 10.0);
  rec.record_error(b);
  rec.record_timeout();

  EXPECT_EQ(rec.overall().count(), 3u);
  EXPECT_NEAR(rec.overall().mean(), 16.0 / 3.0, 1e-9);
  EXPECT_NEAR(rec.per_dip().at(a).mean(), 3.0, 1e-9);
  EXPECT_EQ(rec.errors(), 1u);
  EXPECT_EQ(rec.errors_for(b), 1u);
  EXPECT_EQ(rec.errors_for(a), 0u);
  EXPECT_EQ(rec.timeouts(), 1u);
  EXPECT_EQ(rec.raw_latencies_ms().size(), 3u);

  rec.reset();
  EXPECT_EQ(rec.overall().count(), 0u);
  EXPECT_TRUE(rec.per_dip().empty());
}

struct Fixture {
  sim::Simulation sim{51};
  net::Network net{sim};
  server::DipServer dip{net, net::IpAddr{10, 1, 0, 1}, server::DipConfig{}};
};

TEST(ClientPool, OpenLoopRateIsAccurate) {
  Fixture f;
  ClientConfig cfg;
  cfg.requests_per_session = 1.0;
  ClientPool clients(f.net, net::IpAddr{10, 2, 0, 1}, f.dip.address(),
                     TrafficPattern(200.0), cfg);
  clients.start();
  f.sim.run_until(20_s);
  clients.stop();
  // 200 rps for 20 s = ~4000 requests (Poisson: ±5%).
  EXPECT_NEAR(static_cast<double>(clients.requests_sent()), 4000.0, 200.0);
  EXPECT_GT(clients.recorder().overall().count(), 3500u);
}

TEST(ClientPool, SessionsIssueMultipleRequests) {
  Fixture f;
  ClientConfig cfg;
  cfg.requests_per_session = 4.0;
  ClientPool clients(f.net, net::IpAddr{10, 2, 0, 1}, f.dip.address(),
                     TrafficPattern(100.0), cfg);
  clients.start();
  f.sim.run_until(10_s);
  clients.stop();
  f.sim.run_for(2_s);
  const double per_session = static_cast<double>(clients.requests_sent()) /
                             static_cast<double>(clients.sessions_started());
  EXPECT_NEAR(per_session, 4.0, 0.5);
}

TEST(ClientPool, ClosedLoopCapsConcurrency) {
  // A deliberately overloaded slow DIP with a concurrency cap: in-flight
  // requests at the server can never exceed the cap.
  sim::Simulation sim(52);
  net::Network net(sim);
  server::DipConfig dcfg;
  dcfg.demand_core_ms = 50.0;  // 20 rps capacity
  server::DipServer dip(net, net::IpAddr{10, 1, 0, 1}, dcfg);

  ClientConfig cfg;
  cfg.requests_per_session = 1.0;
  cfg.max_outstanding_sessions = 8;
  ClientPool clients(net, net::IpAddr{10, 2, 0, 1}, dip.address(),
                     TrafficPattern(500.0), cfg);
  clients.start();

  std::uint64_t max_in_flight = 0;
  for (int i = 0; i < 200; ++i) {
    sim.run_for(50_ms);
    max_in_flight = std::max(max_in_flight, dip.in_flight());
  }
  clients.stop();
  EXPECT_LE(max_in_flight, 8u);
  EXPECT_GT(max_in_flight, 4u);  // the cap is actually exercised
}

TEST(ClientPool, TimeoutAbortsSession) {
  // No server attached: every request times out.
  sim::Simulation sim(53);
  net::Network net(sim);
  ClientConfig cfg;
  cfg.requests_per_session = 3.0;
  cfg.request_timeout = 500_ms;
  ClientPool clients(net, net::IpAddr{10, 2, 0, 1}, net::IpAddr{10, 9, 9, 9},
                     TrafficPattern(50.0), cfg);
  clients.start();
  sim.run_until(5_s);
  clients.stop();
  sim.run_for(1_s);
  EXPECT_GT(clients.recorder().timeouts(), 60u);  // ~83 sessions at 50/3 per s
  EXPECT_EQ(clients.recorder().overall().count(), 0u);
  // Aborted sessions send exactly one request (no retries after timeout).
  EXPECT_EQ(clients.requests_sent(), clients.recorder().timeouts());
}

TEST(ClientPool, ErrorResponsesRecorded) {
  sim::Simulation sim(54);
  net::Network net(sim);
  server::DipConfig dcfg;
  dcfg.demand_core_ms = 100.0;
  dcfg.backlog_per_core = 1;  // almost everything overflows
  server::DipServer dip(net, net::IpAddr{10, 1, 0, 1}, dcfg);

  ClientConfig cfg;
  cfg.requests_per_session = 1.0;
  ClientPool clients(net, net::IpAddr{10, 2, 0, 1}, dip.address(),
                     TrafficPattern(200.0), cfg);
  clients.start();
  sim.run_until(5_s);
  clients.stop();
  sim.run_for(1_s);
  EXPECT_GT(clients.recorder().errors(), 100u);
}

TEST(ClientPool, AttributesResponsesToTheServerHeader) {
  // Two DIPs behind DNS, one healthy and one so overloaded that most of
  // its requests overflow into 503s. The recorder must credit each
  // success and each error to the DIP that named itself in the response's
  // Server header, which the servers' own counters confirm one for one.
  sim::Simulation sim(55);
  net::Network net(sim);
  server::DipServer healthy(net, net::IpAddr{10, 1, 0, 1},
                            server::DipConfig{});
  server::DipConfig slow;
  slow.demand_core_ms = 100.0;
  slow.backlog_per_core = 1;
  server::DipServer overloaded(net, net::IpAddr{10, 1, 0, 2}, slow);
  lb::DnsTrafficManager dns(sim, {healthy.address(), overloaded.address()});

  ClientConfig cfg;
  cfg.requests_per_session = 1.0;
  ClientPool clients(net, net::IpAddr{10, 2, 0, 1}, dns,
                     TrafficPattern(200.0), cfg);
  clients.start();
  sim.run_until(10_s);
  clients.stop();
  sim.run_for(2_s);  // every in-flight request is answered

  const auto& rec = clients.recorder();
  ASSERT_EQ(rec.timeouts(), 0u);
  EXPECT_GT(overloaded.dropped(), 50u);
  EXPECT_EQ(rec.errors_for(overloaded.address()), overloaded.dropped());
  EXPECT_EQ(rec.errors_for(healthy.address()), 0u);
  EXPECT_EQ(rec.errors(), overloaded.dropped());  // none unattributed
  EXPECT_EQ(rec.per_dip().size(), 2u);
  EXPECT_EQ(rec.per_dip().at(healthy.address()).count(), healthy.completed());
  EXPECT_EQ(rec.per_dip().at(overloaded.address()).count(),
            overloaded.completed());
  EXPECT_EQ(rec.overall().count(),
            healthy.completed() + overloaded.completed());
}

TEST(ClientPool, PatternChangeTakesEffect) {
  Fixture f;
  ClientConfig cfg;
  cfg.requests_per_session = 1.0;
  ClientPool clients(f.net, net::IpAddr{10, 2, 0, 1}, f.dip.address(),
                     TrafficPattern(100.0), cfg);
  clients.start();
  f.sim.run_until(10_s);
  const auto before = clients.requests_sent();
  clients.set_pattern(TrafficPattern(300.0));
  f.sim.run_until(20_s);
  clients.stop();
  const auto after = clients.requests_sent() - before;
  EXPECT_NEAR(static_cast<double>(after), 3000.0, 300.0);
}

}  // namespace
}  // namespace klb::workload
