#include "workload/client.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace klb::workload {

ClientPool::ClientPool(net::Network& net, net::IpAddr first_client_ip,
                       net::IpAddr vip, TrafficPattern pattern,
                       ClientConfig cfg)
    : net_(net), first_ip_(first_client_ip), vip_(vip),
      pattern_(std::move(pattern)), cfg_(cfg), rng_(net.sim().rng().fork()),
      deadlines_(
          net.sim(), cfg_.request_timeout,
          [this](const RequestKey& k) { return awaiting(k); },
          [this](const RequestKey& k) { on_timeout(k); }) {
  for (int i = 0; i < cfg_.client_ips; ++i)
    net_.attach(first_ip_.next(static_cast<std::uint32_t>(i)), this);
}

ClientPool::ClientPool(net::Network& net, net::IpAddr first_client_ip,
                       lb::DnsTrafficManager& dns, TrafficPattern pattern,
                       ClientConfig cfg)
    : net_(net), first_ip_(first_client_ip), dns_(&dns),
      pattern_(std::move(pattern)), cfg_(cfg), rng_(net.sim().rng().fork()),
      deadlines_(
          net.sim(), cfg_.request_timeout,
          [this](const RequestKey& k) { return awaiting(k); },
          [this](const RequestKey& k) { on_timeout(k); }) {
  for (int i = 0; i < cfg_.client_ips; ++i)
    net_.attach(first_ip_.next(static_cast<std::uint32_t>(i)), this);
}

ClientPool::~ClientPool() {
  stop();
  for (int i = 0; i < cfg_.client_ips; ++i)
    net_.attach(first_ip_.next(static_cast<std::uint32_t>(i)), nullptr);
}

void ClientPool::start() {
  if (running_) return;
  running_ = true;
  schedule_next_arrival();
}

void ClientPool::stop() {
  running_ = false;
  if (arrival_event_ != sim::kInvalidEvent) {
    net_.sim().cancel(arrival_event_);
    arrival_event_ = sim::kInvalidEvent;
  }
}

void ClientPool::schedule_next_arrival() {
  if (!running_) return;
  const double rps = pattern_.rate_at(net_.sim().now());
  const double session_rate =
      rps / std::max(1.0, cfg_.requests_per_session);
  if (session_rate <= 0.0) {
    // No load right now: poll the pattern again shortly.
    arrival_event_ = net_.sim().schedule_in(
        util::SimTime::millis(100), [this] { schedule_next_arrival(); });
    return;
  }
  const double gap_s = rng_.exponential(1.0 / session_rate);
  arrival_event_ =
      net_.sim().schedule_in(util::SimTime::seconds(gap_s), [this] {
        start_session();
        schedule_next_arrival();
      });
}

net::IpAddr ClientPool::pick_client_ip() {
  const auto ip = first_ip_.next(static_cast<std::uint32_t>(next_ip_offset_));
  next_ip_offset_ = (next_ip_offset_ + 1) % std::max(1, cfg_.client_ips);
  return ip;
}

void ClientPool::start_session() {
  if (cfg_.max_outstanding_sessions > 0 &&
      sessions_.size() >= cfg_.max_outstanding_sessions) {
    ++deferred_sessions_;  // closed loop: wait for a slot
    return;
  }
  Session s;
  s.conn_id = next_conn_id_++;
  // Geometric with mean requests_per_session, support >= 1.
  const double p = 1.0 / std::max(1.0, cfg_.requests_per_session);
  std::uint64_t k = 1;
  while (!rng_.bernoulli(p) && k < 1000) ++k;
  s.requests_left = k;

  s.target = dns_ ? dns_->resolve_cached(s.conn_id % 64)  // ~64 cached stubs
                  : vip_;
  s.tuple.src_ip = pick_client_ip();
  s.tuple.dst_ip = dns_ ? s.target : vip_;
  s.tuple.src_port = next_port_;
  next_port_ = (next_port_ == 65'535) ? 10'000 : next_port_ + 1;
  s.tuple.dst_port = 80;

  ++sessions_started_;
  send_request(sessions_.emplace(s.conn_id, s).first->second);
}

void ClientPool::send_request(Session& s) {
  net::Message msg;
  msg.type = net::MsgType::kHttpRequest;
  msg.tuple = s.tuple;
  msg.conn_id = s.conn_id;
  msg.req_id = s.next_req_id++;
  net::write_get_request(msg.payload, cfg_.url, s.tuple.dst_ip);

  s.sent_at = net_.sim().now();
  ++requests_sent_;
  deadlines_.push(RequestKey{s.conn_id, msg.req_id});

  net_.send(s.target, std::move(msg));
}

void ClientPool::on_message(const net::Message& msg) {
  if (msg.type != net::MsgType::kHttpResponse) return;
  const auto it = sessions_.find(msg.conn_id);
  if (it == sessions_.end()) return;  // late response after timeout
  Session& s = it->second;

  const auto latency = net_.sim().now() - s.sent_at;
  const auto head = net::read_response_head(msg.payload);
  const bool ok = head && head->ok();

  // Attribute the response to the DIP from the Server header
  // ("klb-dip/<addr>").
  net::IpAddr dip;
  if (head) {
    const auto slash = head->server.find('/');
    if (slash != std::string_view::npos) {
      if (const auto a = net::IpAddr::parse(head->server.substr(slash + 1)))
        dip = *a;
    }
  }

  if (ok) {
    recorder_.record_success(dip, latency);
  } else {
    recorder_.record_error(dip);
  }

  --s.requests_left;
  if (s.requests_left == 0 || !ok) {
    finish_session(s);
  } else {
    send_request(s);
  }
}

void ClientPool::finish_session(Session& s) {
  net::Message fin;
  fin.type = net::MsgType::kFin;
  fin.tuple = s.tuple;
  fin.conn_id = s.conn_id;
  // In DNS mode there is no MUX: the FIN goes straight to the DIP.
  net_.send(dns_ ? s.target : vip_, std::move(fin));
  sessions_.erase(s.conn_id);
  if (deferred_sessions_ > 0 && running_) {
    --deferred_sessions_;
    start_session();
  }
}

bool ClientPool::awaiting(const RequestKey& key) const {
  const auto it = sessions_.find(key.conn_id);
  return it != sessions_.end() && it->second.next_req_id - 1 == key.req_id;
}

void ClientPool::on_timeout(const RequestKey& key) {
  recorder_.record_timeout();
  finish_session(sessions_.at(key.conn_id));
}

}  // namespace klb::workload
