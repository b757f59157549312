// Workload module tests: traffic patterns, the latency recorder, and
// client behaviour — open-loop rate accuracy, closed-loop concurrency
// caps, session/FIN lifecycle, timeout handling, and per-DIP attribution
// from the Server response header.
#include <gtest/gtest.h>

#include <map>
#include <vector>

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
  rec.record_success(a, 2_ms);
  rec.record_success(a, 4_ms);
  rec.record_success(b, 10_ms);
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

/// Swallows every message, logging what arrived and when.
class Sink : public net::Node {
 public:
  struct Seen {
    net::MsgType type;
    std::uint64_t conn_id;
    util::SimTime at;
  };
  explicit Sink(sim::Simulation& sim) : sim_(sim) {}
  void on_message(const net::Message& m) override {
    seen.push_back(Seen{m.type, m.conn_id, sim_.now()});
  }
  std::vector<Seen> seen;

 private:
  sim::Simulation& sim_;
};

/// Answers every request with a 200 `hold` after it arrives.
class DelayedResponder : public net::Node {
 public:
  DelayedResponder(net::Network& net, util::SimTime hold)
      : net_(net), hold_(hold) {}
  void on_message(const net::Message& m) override {
    ++received;
    if (m.type != net::MsgType::kHttpRequest) return;
    net::Message r;
    r.type = net::MsgType::kHttpResponse;
    r.tuple = m.tuple;
    r.conn_id = m.conn_id;
    r.req_id = m.req_id;
    net::write_response(r.payload, 200, "klb-dip/10.1.0.1", "ok");
    if (hold_ == util::SimTime::zero()) {
      net_.send(m.tuple.src_ip, std::move(r));
      return;
    }
    net_.sim().schedule_in(hold_, [this, r = std::move(r)] {
      net_.send(r.tuple.src_ip, r);
    });
  }
  std::uint64_t received = 0;

 private:
  net::Network& net_;
  util::SimTime hold_;
};

/// Every hop takes exactly `hop`: no jitter, so deadlines are exact.
net::FabricConfig fixed_hop(util::SimTime hop) {
  net::FabricConfig f;
  f.base_latency = hop;
  f.jitter_mean = util::SimTime::zero();
  return f;
}

TEST(ClientPool, SilentDipTimesOutEachRequestAtItsDeadline) {
  // One session at a time against a DIP that never answers: each request
  // times out at exactly sent_at + request_timeout, which sends one FIN
  // and starts the next deferred session at that same instant.
  sim::Simulation sim(57);
  const auto hop = 100_us;
  net::Network net(sim, fixed_hop(hop));
  const net::IpAddr vip{10, 1, 0, 1};
  Sink sink(sim);
  net.attach(vip, &sink);

  ClientConfig cfg;
  cfg.requests_per_session = 3.0;
  cfg.request_timeout = 50_ms;
  cfg.max_outstanding_sessions = 1;
  ClientPool clients(net, net::IpAddr{10, 2, 0, 1}, vip,
                     TrafficPattern(200.0), cfg);
  clients.start();
  sim.run_until(2_s);
  clients.stop();

  std::map<std::uint64_t, util::SimTime> request_at;
  std::map<std::uint64_t, std::vector<util::SimTime>> fins;
  for (const auto& s : sink.seen) {
    if (s.type == net::MsgType::kHttpRequest) {
      ASSERT_EQ(request_at.count(s.conn_id), 0u)
          << "conn " << s.conn_id << " sent a second request";
      request_at[s.conn_id] = s.at;
    } else {
      ASSERT_EQ(s.type, net::MsgType::kFin);
      fins[s.conn_id].push_back(s.at);
    }
  }
  ASSERT_GT(fins.size(), 30u);  // ~39 timeouts in 2 s
  EXPECT_EQ(clients.recorder().timeouts(), fins.size());
  EXPECT_EQ(clients.recorder().overall().count(), 0u);
  for (const auto& [conn, at] : fins) {
    ASSERT_EQ(at.size(), 1u) << "conn " << conn;
    // Both hops take `hop`, so arrival times differ by the timeout.
    EXPECT_EQ(at[0] - request_at.at(conn), cfg.request_timeout)
        << "conn " << conn;
    // The deferred session's first request left with the FIN.
    ASSERT_EQ(request_at.count(conn + 1), 1u) << "conn " << conn;
    EXPECT_EQ(request_at.at(conn + 1), at[0]) << "conn " << conn;
  }
}

TEST(ClientPool, ResponseAtTheDeadlineIsATimeout) {
  // The tie rule: a response that reaches the client 1 us before
  // sent_at + request_timeout is a success; one that reaches it exactly
  // at the deadline counts as a timeout.
  const auto hop = 100_us;
  const auto timeout = 20_ms;
  for (const bool at_deadline : {false, true}) {
    SCOPED_TRACE(at_deadline ? "at the deadline" : "1 us before");
    sim::Simulation sim(58);
    net::Network net(sim, fixed_hop(hop));
    const net::IpAddr vip{10, 1, 0, 1};
    const auto early = at_deadline ? 0_us : 1_us;
    DelayedResponder dip(net, timeout - hop - hop - early);
    net.attach(vip, &dip);

    ClientConfig cfg;
    cfg.requests_per_session = 1.0;
    cfg.request_timeout = timeout;
    ClientPool clients(net, net::IpAddr{10, 2, 0, 1}, vip,
                       TrafficPattern(500.0), cfg);
    clients.start();
    sim.run_until(1_s);
    clients.stop();
    sim.run_for(1_s);

    const auto& rec = clients.recorder();
    ASSERT_GT(clients.requests_sent(), 400u);
    if (at_deadline) {
      EXPECT_EQ(rec.overall().count(), 0u);
      EXPECT_EQ(rec.timeouts(), clients.requests_sent());
    } else {
      EXPECT_EQ(rec.timeouts(), 0u);
      const auto raw = rec.raw_latencies_ms();
      ASSERT_EQ(raw.size(), clients.requests_sent());
      for (std::size_t i = 0; i < raw.size(); ++i)
        ASSERT_EQ(raw[i], (timeout - 1_us).ms()) << "request " << i;
    }
  }
}

TEST(ClientPool, AnsweredRequestsLeaveOneClientTimer) {
  // Every request is answered, with ~80 in flight at a time (40 ms round
  // trips at 2000 rps). Besides the hops in flight, the queue holds only
  // the arrival event and at most one deadline timer: no per-request
  // timeout events.
  sim::Simulation sim(59);
  net::Network net(sim, fixed_hop(20_ms));
  const net::IpAddr vip{10, 1, 0, 1};
  DelayedResponder dip(net, util::SimTime::zero());
  net.attach(vip, &dip);

  ClientConfig cfg;
  cfg.requests_per_session = 1.0;
  ClientPool clients(net, net::IpAddr{10, 2, 0, 1}, vip,
                     TrafficPattern(2000.0), cfg);
  clients.start();
  std::uint64_t max_hops = 0;
  for (int i = 0; i < 2000; ++i) {
    sim.run_for(3_ms);
    const std::uint64_t delivered =
        dip.received + clients.recorder().overall().count();
    const std::uint64_t hops = net.messages_sent() - delivered;
    max_hops = std::max(max_hops, hops);
    ASSERT_LE(sim.pending_events(), hops + 2) << "at " << sim.now().str();
  }
  clients.stop();
  EXPECT_GT(max_hops, 100u);  // the in-flight set is large
  EXPECT_EQ(clients.recorder().timeouts(), 0u);
}

TEST(ClientPool, DestroyedPoolLeavesNoEventBehind) {
  // A pool with requests in flight to an unattached VIP is destroyed
  // while the Simulation runs on: none of its deadlines may fire into
  // the freed pool (ASan reports it if one does).
  sim::Simulation sim(60);
  net::Network net(sim);
  {
    ClientConfig cfg;
    cfg.requests_per_session = 1.0;
    ClientPool clients(net, net::IpAddr{10, 2, 0, 1},
                       net::IpAddr{10, 9, 9, 9}, TrafficPattern(1000.0), cfg);
    clients.start();
    sim.run_for(50_ms);
    ASSERT_GT(clients.requests_sent(), 20u);
  }
  sim.run_for(1_ms);  // the last hops land (unreachable)
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_for(3_s);  // past every deadline the pool had set
  EXPECT_EQ(net.messages_unreachable(), net.messages_sent());
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
