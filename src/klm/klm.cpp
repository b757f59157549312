#include "klm/klm.hpp"

#include <algorithm>

#include "net/resp.hpp"
#include "util/logging.hpp"

namespace klb::klm {

namespace {
constexpr std::uint64_t kSeqBits = 20;  // probe seq within a round key
}

Klm::Klm(net::Network& net, net::IpAddr addr, net::IpAddr vip,
         std::vector<net::IpAddr> dips, net::IpAddr store_addr, KlmConfig cfg)
    : net_(net), addr_(addr), vip_(vip), store_addr_(store_addr), cfg_(cfg),
      rng_(net.sim().rng().fork()),
      timer_(net.sim(), cfg.period, [this] { begin_rounds(); }),
      dips_(std::move(dips)) {
  net_.attach(addr_, this);
}

Klm::~Klm() { net_.attach(addr_, nullptr); }

void Klm::start() {
  timer_.start(util::SimTime::zero());  // first round right away
}

void Klm::stop() { timer_.stop(); }

void Klm::add_dip(net::IpAddr dip) {
  util::MutexLock lk(mu_);
  if (std::find(dips_.begin(), dips_.end(), dip) == dips_.end())
    dips_.push_back(dip);
}

void Klm::remove_dip(net::IpAddr dip) {
  util::MutexLock lk(mu_);
  dips_.erase(std::remove(dips_.begin(), dips_.end(), dip), dips_.end());

  // Drop every in-flight round targeting the removed DIP. Its scheduled
  // send_probe callbacks look the round up by key and become no-ops; the
  // probes already on the wire (or awaiting their timeout) are forgotten
  // below, so neither a late reply nor a timeout can resurrect the round
  // and flush a sample for a DIP nobody owns anymore.
  bool dropped_any = false;
  for (auto it = rounds_in_flight_.begin(); it != rounds_in_flight_.end();) {
    if (it->second.dip == dip) {
      ++rounds_dropped_;
      dropped_any = true;
      it = rounds_in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  if (!dropped_any) return;
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (rounds_in_flight_.count(it->second.round_key) == 0) {
      net_.sim().cancel(it->second.timeout_event);
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
  }
}

void Klm::begin_rounds() {
  util::MutexLock lk(mu_);
  for (const auto dip : dips_) {
    const std::uint64_t key = next_round_key_++;
    Round r;
    r.dip = dip;
    r.want = static_cast<std::uint32_t>(cfg_.probes_per_round);
    rounds_in_flight_[key] = r;

    // Spread probes across a fraction of the period.
    const double window_s = cfg_.period.sec() * cfg_.spread_fraction;
    const double gap_s =
        window_s / std::max(1, cfg_.probes_per_round);
    for (int i = 0; i < cfg_.probes_per_round; ++i) {
      const auto at = util::SimTime::seconds(gap_s * i);
      net_.sim().schedule_in(at, [this, key, i] {
        send_probe(key, static_cast<std::uint32_t>(i));
      });
    }
  }
}

void Klm::probe_once(net::IpAddr dip, int n) {
  util::MutexLock lk(mu_);
  if (n <= 0) {
    // A want==0 round has no resolution event that could ever finish it:
    // admitting one would leak it in rounds_in_flight_ forever. Reject.
    ++rejected_probes_;
    util::log_warn("klb-klm") << "probe_once(" << dip.str() << ", " << n
                              << "): non-positive probe count rejected";
    return;
  }
  const std::uint64_t key = next_round_key_++;
  Round r;
  r.dip = dip;
  r.want = static_cast<std::uint32_t>(n);
  rounds_in_flight_[key] = r;
  for (int i = 0; i < n; ++i) {
    const auto at = util::SimTime::millis(5.0 * i);
    net_.sim().schedule_in(at, [this, key, i] {
      send_probe(key, static_cast<std::uint32_t>(i));
    });
  }
}

void Klm::send_probe(std::uint64_t round_key, std::uint32_t seq) {
  util::MutexLock lk(mu_);
  const auto rit = rounds_in_flight_.find(round_key);
  if (rit == rounds_in_flight_.end()) return;
  Round& round = rit->second;

  net::HttpRequest http;
  http.method = "GET";
  http.target = cfg_.url;
  http.headers["Host"] = round.dip.str();
  http.headers["User-Agent"] = "klm-probe";

  const std::uint64_t probe_id = (round_key << kSeqBits) | seq;

  net::Message msg;
  msg.type = net::MsgType::kHttpRequest;
  msg.tuple.src_ip = addr_;
  msg.tuple.dst_ip = round.dip;  // direct to the DIP: MUX bypassed
  msg.tuple.src_port = static_cast<std::uint16_t>(20'000 + (probe_id % 40'000));
  msg.tuple.dst_port = 80;
  msg.conn_id = 0;  // one-shot probe connections
  msg.req_id = probe_id;
  msg.payload = http.serialize();

  Outstanding out;
  out.round_key = round_key;
  out.sent_at = net_.sim().now();
  out.timeout_event = net_.sim().schedule_in(
      cfg_.probe_timeout, [this, probe_id] { resolve_timeout(probe_id); });
  outstanding_[probe_id] = out;
  net_.send(round.dip, std::move(msg));
}

void Klm::resolve_timeout(std::uint64_t probe_id) {
  util::MutexLock lk(mu_);
  const auto it = outstanding_.find(probe_id);
  if (it == outstanding_.end()) return;
  const auto key = it->second.round_key;
  outstanding_.erase(it);
  auto rit = rounds_in_flight_.find(key);
  if (rit == rounds_in_flight_.end()) return;
  ++rit->second.timeouts;
  ++rit->second.resolved;
  finish_if_done(key);
}

void Klm::on_message(const net::Message& msg) {
  if (msg.type != net::MsgType::kHttpResponse) return;
  util::MutexLock lk(mu_);
  const auto it = outstanding_.find(msg.req_id);
  if (it == outstanding_.end()) return;  // late reply after timeout
  const auto key = it->second.round_key;
  const auto sent_at = it->second.sent_at;
  net_.sim().cancel(it->second.timeout_event);
  outstanding_.erase(it);

  const auto rit = rounds_in_flight_.find(key);
  if (rit == rounds_in_flight_.end()) return;
  Round& round = rit->second;
  ++round.resolved;

  const auto head = net::read_response_head(msg.payload);
  if (head && head->ok()) {
    round.latency_ms.add((net_.sim().now() - sent_at).ms());
  } else {
    ++round.errors;
  }
  finish_if_done(key);
}

void Klm::finish_if_done(std::uint64_t round_key) {
  const auto it = rounds_in_flight_.find(round_key);
  if (it == rounds_in_flight_.end()) return;
  Round& round = it->second;
  if (round.resolved < round.want) return;
  flush_round(round);
  rounds_in_flight_.erase(it);
  ++rounds_;
}

void Klm::flush_round(Round& round) {
  store::LatencySample sample;
  sample.dip = round.dip;
  sample.avg_latency_ms = round.latency_ms.mean();
  sample.probes = round.want;
  sample.errors = round.errors;
  sample.timeouts = round.timeouts;
  sample.at = net_.sim().now();

  // Write over the wire through the KvServer (LPUSH + LTRIM), mirroring
  // what LatencyStore::record does locally.
  const auto key = store::LatencyStore::key_for(vip_, round.dip);
  net::Message push;
  push.type = net::MsgType::kRespCommand;
  push.tuple.src_ip = addr_;
  push.tuple.dst_ip = store_addr_;
  push.payload = net::resp_encode_command({"LPUSH", key, sample.serialize()});
  net_.send(store_addr_, push);

  net::Message trim;
  trim.type = net::MsgType::kRespCommand;
  trim.tuple.src_ip = addr_;
  trim.tuple.dst_ip = store_addr_;
  trim.payload = net::resp_encode_command({"LTRIM", key, "0", "63"});
  net_.send(store_addr_, trim);
}

PingProber::PingProber(net::Network& net, net::IpAddr addr)
    : net_(net), addr_(addr) {
  net_.attach(addr_, this);
}

PingProber::~PingProber() { net_.attach(addr_, nullptr); }

void PingProber::ping(net::IpAddr dip, int n, util::SimTime gap) {
  for (int i = 0; i < n; ++i) {
    net_.sim().schedule_in(gap * static_cast<double>(i), [this, dip] {
      const auto id = next_id_++;
      in_flight_[id] = net_.sim().now();
      net::Message msg;
      msg.type = net::MsgType::kPing;
      msg.tuple.src_ip = addr_;
      msg.tuple.dst_ip = dip;
      msg.req_id = id;
      net_.send(dip, msg);
      // Pings that never return count as lost after 2 s.
      net_.sim().schedule_in(util::SimTime::seconds(2), [this, id] {
        if (in_flight_.erase(id) > 0) ++lost_;
      });
    });
  }
}

void PingProber::reset() {
  rtt_.reset();
  lost_ = 0;
}

void PingProber::on_message(const net::Message& msg) {
  if (msg.type != net::MsgType::kPingReply) return;
  const auto it = in_flight_.find(msg.req_id);
  if (it == in_flight_.end()) return;
  rtt_.add((net_.sim().now() - it->second).ms());
  in_flight_.erase(it);
}

}  // namespace klb::klm
