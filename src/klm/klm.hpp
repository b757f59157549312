// KLM — KnapsackLB Latency Measurement (§3.2, §5).
//
// One KLM runs per VNET. Every `period` (5 s) it probes every DIP in its
// list *directly* (bypassing the MUXes, so MUX queueing never pollutes the
// signal) with `probes_per_round` (100) application-level HTTP requests to
// the admin-provided URL, spread across the round to avoid a load spike.
// The round's average latency plus error/timeout counts are appended to
// the latency store over the RESP wire. Pings deliberately are NOT used
// for load measurement (Fig. 5) — a PingProber exists solely to reproduce
// that figure.
//
// KLM is agent-less by construction: it only issues requests a regular
// client could issue.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "net/http.hpp"
#include "sim/deadline_list.hpp"
#include "sim/simulation.hpp"
#include "store/latency_store.hpp"
#include "util/stats.hpp"

namespace klb::klm {

struct KlmConfig {
  util::SimTime period = util::SimTime::seconds(5);
  int probes_per_round = 100;
  /// The round's probes are spread over this fraction of the period.
  double spread_fraction = 0.9;
  util::SimTime probe_timeout = util::SimTime::seconds(2);
  std::string url = "/work";
};

class Klm : public net::Node {
 public:
  Klm(net::Network& net, net::IpAddr addr, net::IpAddr vip,
      std::vector<net::IpAddr> dips, net::IpAddr store_addr,
      KlmConfig cfg = {});
  ~Klm() override;

  /// Begin periodic measurement (first round starts immediately).
  void start();
  void stop();

  /// Probe a single DIP once, out of band (used by the drain estimator and
  /// the explorer's l0 measurement). The result is appended to the store
  /// like a regular round, with `probes` = n. n <= 0 is rejected loudly: a
  /// zero-probe round has no resolution event to ever finish it, so
  /// admitting one would leak it in the in-flight table forever.
  void probe_once(net::IpAddr dip, int n);

  const KlmConfig& config() const { return cfg_; }
  std::uint64_t rounds_completed() const { return rounds_; }

  /// Start measuring `dip` from the next periodic round on.
  void add_dip(net::IpAddr dip);
  /// Stop measuring `dip` now: in-flight rounds targeting it are dropped
  /// (their already-scheduled probe callbacks become no-ops, their probes'
  /// deadlines find nothing to expire), so a removed DIP can never write
  /// another sample — stale timeout rounds for a DIP the controller no
  /// longer owns would otherwise read as a failure of a pool member.
  void remove_dip(net::IpAddr dip);

  // --- observability ---------------------------------------------------------
  /// Rounds currently awaiting probe resolutions.
  std::size_t rounds_in_flight() const { return rounds_in_flight_.size(); }
  /// Probe sends/timeouts still outstanding.
  std::size_t probes_outstanding() const { return outstanding_.size(); }
  /// Rounds discarded by remove_dip before completion.
  std::uint64_t rounds_dropped() const { return rounds_dropped_; }
  /// probe_once calls rejected for a non-positive probe count.
  std::uint64_t rejected_probe_requests() const { return rejected_probes_; }

  // --- net::Node -------------------------------------------------------------
  void on_message(const net::Message& msg) override;

 private:
  struct Round {
    net::IpAddr dip;
    util::Welford latency_ms;
    std::uint32_t resolved = 0;  // responses + timeouts so far
    std::uint32_t errors = 0;
    std::uint32_t timeouts = 0;
    std::uint32_t want = 0;      // probes in the round
  };

  void begin_rounds();
  void send_probe(std::uint64_t round_key, std::uint32_t seq);
  /// The probe still awaits its reply.
  bool probe_pending(std::uint64_t probe_id) const;
  /// A probe's deadline passed unanswered: count it against its round
  /// (run by deadlines_).
  void resolve_timeout(std::uint64_t probe_id);
  void finish_if_done(std::uint64_t round_key);
  void flush_round(Round& round);

  net::Network& net_;
  net::IpAddr addr_;
  net::IpAddr vip_;
  net::IpAddr store_addr_;
  KlmConfig cfg_;
  util::Rng rng_;

  sim::PeriodicTimer timer_;
  /// Every probe's probe_timeout deadline, one armed timer for all.
  sim::DeadlineList<std::uint64_t> deadlines_;
  /// Paced probe sends, cancelled if the KLM goes away mid-round.
  sim::EventScope probe_sends_;
  std::vector<net::IpAddr> dips_;
  std::unordered_map<std::uint64_t, Round> rounds_in_flight_;
  // (round_key << 20 | seq) -> round, sent_at
  struct Outstanding {
    std::uint64_t round_key;
    util::SimTime sent_at;
  };
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;
  std::uint64_t next_round_key_ = 1;
  std::uint64_t rounds_ = 0;
  std::uint64_t rounds_dropped_ = 0;
  std::uint64_t rejected_probes_ = 0;
};

/// Ping (ICMP / TCP SYN-ACK style) prober: exists to reproduce Fig. 5's
/// demonstration that pings do not reflect application load.
class PingProber : public net::Node {
 public:
  PingProber(net::Network& net, net::IpAddr addr);
  ~PingProber() override;

  /// Send `n` pings to `dip`, spread by `gap`; results accumulate in
  /// rtt_ms() until reset().
  void ping(net::IpAddr dip, int n,
            util::SimTime gap = util::SimTime::millis(10));

  const util::Welford& rtt_ms() const { return rtt_; }
  std::uint64_t lost() const { return lost_; }
  void reset();

  void on_message(const net::Message& msg) override;

 private:
  net::Network& net_;
  net::IpAddr addr_;
  /// Ping sends and their loss deadlines, cancelled if the prober goes
  /// away first.
  sim::EventScope events_;
  std::unordered_map<std::uint64_t, util::SimTime> in_flight_;
  std::uint64_t next_id_ = 1;
  util::Welford rtt_;
  std::uint64_t lost_ = 0;
};

}  // namespace klb::klm
