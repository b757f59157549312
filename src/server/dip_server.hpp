// The DIP (backend server) model.
//
// A DIP is a c-core VM running a web server whose request handler performs
// a cache-intensive computation (the paper's workload). We model it as a
// FIFO queue served by `cores` parallel workers:
//
//   service time = demand / (core_speed * capacity_factor * antagonist_share)
//
// where `demand` is drawn from a low-variance lognormal (cache tasks are
// near-deterministic), `capacity_factor` models cache-thrashing noisy
// neighbors (work takes longer), and antagonist_share = (cores - stolen) /
// cores models neighbors that outright consume vCPU time.
//
// The accept backlog is bounded: requests arriving when the backlog is full
// are "packet drops" in the paper's terminology — we answer them with an
// immediate 503 so probers observe errors quickly (a silent drop + client
// timeout gives the same control-loop signal, slower).
//
// ICMP/TCP pings are answered in constant kernel time regardless of
// application load — this asymmetry is the point of the paper's Fig. 5 and
// is why KnapsackLB must probe at the application layer.
//
// CPU utilization reporting: a busy worker occupies a full core (thrashed
// cores do less useful work but still read 100% busy), and stolen cores
// read busy too. util = (busy_workers + stolen_cores) / cores, clamped.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "net/fabric.hpp"
#include "net/http.hpp"
#include "server/vm_types.hpp"
#include "util/stats.hpp"

namespace klb::server {

struct DipConfig {
  VmType vm = kDs1v2;
  /// Mean service demand in core-milliseconds on a speed-1.0 core.
  double demand_core_ms = 3.0;
  /// Coefficient of variation of the demand (cache task: near-deterministic).
  double demand_cov = 0.08;
  /// Accept-backlog bound per core; overflow = packet drop.
  int backlog_per_core = 96;
  /// Kernel handling time for pings and drop responses.
  util::SimTime kernel_latency = util::SimTime::micros(120);
};

class DipServer : public net::Node {
 public:
  DipServer(net::Network& net, net::IpAddr addr, DipConfig cfg);
  ~DipServer() override;

  net::IpAddr address() const { return addr_; }
  const DipConfig& config() const { return cfg_; }

  // --- noisy-neighbor controls -------------------------------------------
  /// Cache-thrashing neighbor: work on every core slows by this factor
  /// (1.0 = healthy). The paper's "capacity ratio" knob.
  void set_capacity_factor(double f);
  double capacity_factor() const { return capacity_factor_; }

  /// Neighbor consuming whole vCPUs (Fig. 16's "process that consumes
  /// 1 core"). May be fractional.
  void set_stolen_cores(double cores);
  double stolen_cores() const { return stolen_cores_; }

  /// Take the DIP down / bring it back (probe traffic gets no answer while
  /// down; used for the failure experiments).
  void set_alive(bool alive);
  bool alive() const { return alive_; }

  // --- observability -------------------------------------------------------
  /// Time-averaged CPU utilization in [0,1] since the last stats window
  /// reset, including stolen cores.
  double cpu_utilization() const;
  /// Instantaneous utilization (busy now / cores).
  double cpu_utilization_now() const;

  std::uint64_t completed() const { return completed_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t active_connections() const { return active_conns_; }
  std::uint64_t in_flight() const { return busy_workers_ + queue_.size(); }

  /// Per-request service latency (queueing + service) as observed at the
  /// server, since the last window reset.
  const util::Welford& service_latency_ms() const { return latency_ms_; }

  /// Restart the CPU/latency/drop accounting window (benches call this
  /// after warmup).
  void reset_stats();

  /// Effective max throughput in requests/sec given current neighbors --
  /// the paper's "capacity". Exposed for oracles and tests, never consumed
  /// by the controller (which must learn it from latency alone).
  double capacity_rps() const;

  // --- net::Node ----------------------------------------------------------
  void on_message(const net::Message& msg) override;

 private:
  /// What a response needs from its request: where it goes and what it
  /// answers. The request's payload is never read, so it is not kept.
  struct RequestRoute {
    net::FiveTuple tuple;
    std::uint64_t conn_id = 0;
    std::uint64_t req_id = 0;
  };
  struct PendingRequest {
    RequestRoute route;
    util::SimTime enqueued_at;
  };

  void handle_request(const net::Message& msg);
  void handle_fin(const net::Message& msg);
  void handle_ping(const net::Message& msg);
  void dispatch();
  void complete(PendingRequest req, util::SimTime started_at);
  void send_response(const RequestRoute& req, int status,
                     util::SimTime server_time);
  void touch_cpu_accounting();

  double effective_rate() const;  // service-rate multiplier per worker
  int worker_count() const { return cfg_.vm.cores; }
  int backlog_limit() const { return cfg_.backlog_per_core * cfg_.vm.cores; }

  net::Network& net_;
  net::IpAddr addr_;
  DipConfig cfg_;
  util::Rng rng_;
  std::string server_header_;  // "klb-dip/<addr>", every response's Server

  double capacity_factor_ = 1.0;
  double stolen_cores_ = 0.0;
  bool alive_ = true;

  std::deque<PendingRequest> queue_;
  std::uint64_t busy_workers_ = 0;
  std::uint64_t active_conns_ = 0;
  std::uint64_t epoch_ = 0;  // bumped on crash; invalidates in-flight work

  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  util::Welford latency_ms_;
  util::TimeWeighted busy_tw_;
};

}  // namespace klb::server
