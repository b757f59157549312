#include "server/dip_server.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace klb::server {

DipServer::DipServer(net::Network& net, net::IpAddr addr, DipConfig cfg)
    : net_(net),
      addr_(addr),
      cfg_(cfg),
      rng_(net.sim().rng().fork()),
      server_header_("klb-dip/" + addr.str()) {
  net_.attach(addr_, this);
  busy_tw_.set(net_.sim().now().sec(), 0.0);
}

DipServer::~DipServer() { net_.attach(addr_, nullptr); }

void DipServer::set_capacity_factor(double f) {
  capacity_factor_ = std::clamp(f, 0.05, 1.0);
}

void DipServer::set_stolen_cores(double cores) {
  stolen_cores_ = std::clamp(cores, 0.0, static_cast<double>(cfg_.vm.cores) - 0.25);
}

void DipServer::set_alive(bool alive) {
  if (alive == alive_) return;
  alive_ = alive;
  if (alive_) {
    net_.attach(addr_, this);
    touch_cpu_accounting();
  } else {
    net_.attach(addr_, nullptr);
    // A crashed server loses its queue and connections; in-flight
    // completions are invalidated via the epoch.
    ++epoch_;
    queue_.clear();
    busy_workers_ = 0;
    active_conns_ = 0;
    touch_cpu_accounting();
  }
}

double DipServer::effective_rate() const {
  const double share =
      (static_cast<double>(cfg_.vm.cores) - stolen_cores_) /
      static_cast<double>(cfg_.vm.cores);
  return cfg_.vm.speed * capacity_factor_ * share;
}

double DipServer::capacity_rps() const {
  const double per_worker_rate = effective_rate() / (cfg_.demand_core_ms / 1e3);
  return per_worker_rate * static_cast<double>(worker_count());
}

double DipServer::cpu_utilization() const {
  const double avg_busy = busy_tw_.average(net_.sim().now().sec());
  const double util =
      (avg_busy + stolen_cores_) / static_cast<double>(cfg_.vm.cores);
  return std::clamp(util, 0.0, 1.0);
}

double DipServer::cpu_utilization_now() const {
  const double util = (static_cast<double>(busy_workers_) + stolen_cores_) /
                      static_cast<double>(cfg_.vm.cores);
  return std::clamp(util, 0.0, 1.0);
}

void DipServer::reset_stats() {
  completed_ = 0;
  dropped_ = 0;
  latency_ms_.reset();
  busy_tw_.reset_window(net_.sim().now().sec());
}

void DipServer::on_message(const net::Message& msg) {
  if (!alive_) return;
  switch (msg.type) {
    case net::MsgType::kHttpRequest:
      handle_request(msg);
      break;
    case net::MsgType::kFin:
      handle_fin(msg);
      break;
    case net::MsgType::kPing:
      handle_ping(msg);
      break;
    default:
      break;  // servers ignore stray responses / store traffic
  }
}

void DipServer::handle_request(const net::Message& msg) {
  // The first request of a connection (req_id counts from 1) establishes
  // it; conn-less probes (req_id 0) are counted as one-shot connections.
  if (msg.req_id <= 1) ++active_conns_;

  const RequestRoute route{msg.tuple, msg.conn_id, msg.req_id};
  if (static_cast<int>(queue_.size()) >= backlog_limit()) {
    ++dropped_;
    send_response(route, 503, cfg_.kernel_latency);
    return;
  }
  queue_.push_back(PendingRequest{route, net_.sim().now()});
  dispatch();
}

void DipServer::handle_fin(const net::Message&) {
  if (active_conns_ > 0) --active_conns_;
}

void DipServer::handle_ping(const net::Message& msg) {
  // Kernel answers pings without touching the application: latency is a
  // small constant plus scheduling noise, independent of load (Fig. 5).
  net::Message reply;
  reply.type = net::MsgType::kPingReply;
  reply.tuple = msg.tuple;
  reply.conn_id = msg.conn_id;
  reply.req_id = msg.req_id;
  const auto jitter = util::SimTime::micros(
      static_cast<std::int64_t>(rng_.exponential(20.0)));
  const auto delay = cfg_.kernel_latency + jitter;
  net::IpAddr to = msg.tuple.src_ip;
  net_.sim().schedule_in(delay,
                         [this, to, reply = std::move(reply)]() mutable {
                           net_.send(to, std::move(reply));
                         });
}

void DipServer::dispatch() {
  while (busy_workers_ < static_cast<std::uint64_t>(worker_count()) &&
         !queue_.empty()) {
    PendingRequest req = std::move(queue_.front());
    queue_.pop_front();
    ++busy_workers_;
    touch_cpu_accounting();

    const double demand_ms =
        rng_.lognormal_mean_cov(cfg_.demand_core_ms, cfg_.demand_cov);
    const double service_ms = demand_ms / effective_rate();
    const auto epoch = epoch_;
    net_.sim().schedule_in(util::SimTime::millis(service_ms),
                           [this, r = std::move(req), epoch]() mutable {
                             if (epoch != epoch_) return;  // crashed since
                             complete(std::move(r), net_.sim().now());
                           });
  }
}

void DipServer::complete(PendingRequest req, util::SimTime /*started_at*/) {
  --busy_workers_;
  touch_cpu_accounting();
  ++completed_;
  const auto server_time = net_.sim().now() - req.enqueued_at;
  latency_ms_.add(server_time.ms());
  send_response(req.route, 200, util::SimTime::zero());
  dispatch();
}

void DipServer::send_response(const RequestRoute& req, int status,
                              util::SimTime extra_delay) {
  net::Message resp;
  resp.type = net::MsgType::kHttpResponse;
  resp.tuple = req.tuple;
  resp.conn_id = req.conn_id;
  resp.req_id = req.req_id;
  net::write_response(resp.payload, status, server_header_,
                      status == 200 ? "result" : "overloaded");

  // Direct server return: the response goes straight to the client.
  const net::IpAddr to = req.tuple.src_ip;
  if (extra_delay > util::SimTime::zero()) {
    net_.sim().schedule_in(extra_delay,
                           [this, to, resp = std::move(resp)]() mutable {
                             net_.send(to, std::move(resp));
                           });
  } else {
    net_.send(to, std::move(resp));
  }
}

void DipServer::touch_cpu_accounting() {
  busy_tw_.set(net_.sim().now().sec(), static_cast<double>(busy_workers_));
}

}  // namespace klb::server
