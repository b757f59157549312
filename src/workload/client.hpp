// Open-loop client population.
//
// One ClientPool stands in for the paper's 8 client VMs: sessions (TCP
// connections) arrive as a Poisson process at the TrafficPattern's rate
// divided by requests-per-session; each session issues its requests
// sequentially on one connection, then closes with a FIN. Arrivals are
// open-loop — a slow server does not slow the arrival rate, it builds
// queue — which is what makes overload visible as latency (§2.1).
//
// Targets: a VIP behind a Mux, or a DNS traffic manager (resolve-per-
// session with per-client TTL caching), matching §6.5's two integration
// modes.
//
// Timeouts: every request's deadline joins one sim::DeadlineList per pool
// (request_timeout is fixed), so the event queue holds one client timer
// however many requests are in flight, and a response cancels nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "lb/dns_lb.hpp"
#include "net/fabric.hpp"
#include "net/http.hpp"
#include "sim/deadline_list.hpp"
#include "workload/recorder.hpp"
#include "workload/traffic.hpp"

namespace klb::workload {

struct ClientConfig {
  /// Number of simulated client VMs (spread across source IPs).
  int client_ips = 8;
  /// Mean requests per connection (geometric, >= 1). >1 exercises
  /// connection affinity and §4.7 draining.
  double requests_per_session = 4.0;
  /// Per-request timeout; expiry counts as a timeout and aborts the session.
  util::SimTime request_timeout = util::SimTime::seconds(2);
  std::string url = "/work";
  /// Closed-loop cap: at most this many sessions in flight (0 = open
  /// loop). Arrivals beyond the cap defer until a session finishes --
  /// the fixed-concurrency behaviour of real load generators, which keeps
  /// overload latency finite the way the paper's clients did.
  std::uint64_t max_outstanding_sessions = 0;
};

class ClientPool : public net::Node {
 public:
  /// VIP mode: requests go to `vip` (the Mux).
  ClientPool(net::Network& net, net::IpAddr first_client_ip, net::IpAddr vip,
             TrafficPattern pattern, ClientConfig cfg = {});

  /// DNS mode: sessions resolve through the traffic manager and connect
  /// directly to the resolved DIP.
  ClientPool(net::Network& net, net::IpAddr first_client_ip,
             lb::DnsTrafficManager& dns, TrafficPattern pattern,
             ClientConfig cfg = {});

  ~ClientPool() override;

  void start();
  void stop();

  LatencyRecorder& recorder() { return recorder_; }
  const LatencyRecorder& recorder() const { return recorder_; }

  /// Replace the offered-load pattern (takes effect at the next arrival).
  void set_pattern(TrafficPattern pattern) { pattern_ = std::move(pattern); }

  std::uint64_t sessions_started() const { return sessions_started_; }
  std::uint64_t requests_sent() const { return requests_sent_; }

  // --- net::Node -------------------------------------------------------------
  void on_message(const net::Message& msg) override;

 private:
  struct Session {
    net::FiveTuple tuple;
    net::IpAddr target;        // VIP or resolved DIP
    std::uint64_t conn_id = 0;
    std::uint64_t requests_left = 0;
    std::uint64_t next_req_id = 1;
    util::SimTime sent_at = util::SimTime::zero();
  };
  /// A sent request, as the deadline list knows it.
  struct RequestKey {
    std::uint64_t conn_id;
    std::uint64_t req_id;
  };

  void schedule_next_arrival();
  void start_session();
  void send_request(Session& s);
  void finish_session(Session& s);
  /// The session's request `key.req_id` is still unanswered.
  bool awaiting(const RequestKey& key) const;
  void on_timeout(const RequestKey& key);
  net::IpAddr pick_client_ip();

  net::Network& net_;
  net::IpAddr first_ip_;
  net::IpAddr vip_;
  lb::DnsTrafficManager* dns_ = nullptr;
  TrafficPattern pattern_;
  ClientConfig cfg_;
  util::Rng rng_;

  bool running_ = false;
  sim::EventId arrival_event_ = sim::kInvalidEvent;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::uint64_t next_conn_id_ = 1;
  std::uint16_t next_port_ = 10'000;
  int next_ip_offset_ = 0;
  std::uint64_t deferred_sessions_ = 0;
  sim::DeadlineList<RequestKey> deadlines_;

  LatencyRecorder recorder_;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t requests_sent_ = 0;
};

}  // namespace klb::workload
