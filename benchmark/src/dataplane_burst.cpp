// dataplane_burst: the MUX packet path alone, over the real fabric.
//
// A 3-member MuxPool (default flow table, maglev) forwards a prebuilt
// stream of short flows — one request, then a FIN 8k flows later — to 30
// sink nodes. Packets arrive in bursts of 32 (16 opens + 16 FINs) through
// MuxPool::on_batch at 2M packets per virtual second, the fabric's events
// run up to each burst's due time first, and a reweighting PoolProgram
// commits every 20 virtual ms. Short flows make FlowTable insert/erase the
// common case (steady_pool's long sessions are mostly affinity hits), and
// the commits are the control-plane writes beside the packet reads.
//
// The stream holds one pass of 1024 bursts; between passes (outside the
// timed steps) its tuples are rewritten for the next pass's flow numbers,
// so every flow of the run is distinct.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "lb/epoch.hpp"
#include "lb/flow_table.hpp"
#include "lb/maglev.hpp"
#include "lb/mux_pool.hpp"
#include "util/rng.hpp"
#include "util/weight.hpp"

namespace klb::benchmark {
namespace {

using util::SimTime;

constexpr std::size_t kSinks = 30;
constexpr std::size_t kMuxes = 3;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kHalf = kBurst / 2;
/// Flows open at any time: a flow's FIN trails its open by this many
/// flows. 8k keeps the three members' flow tables inside a core's L2: at
/// 64k open flows (tables in the shared L3) run-to-run spread under host
/// neighbours' cache traffic was 5x larger, measured interleaved.
constexpr std::uint64_t kOpenFlows = 8'192;
/// The stream buffer is a NIC-ring-sized 32k packets: a buffer larger
/// than the caches would make the run measure the harness's own memory
/// streaming (and the host's memory contention) more than the dataplane.
constexpr std::size_t kBurstsPerPass = 1'024;
constexpr SimTime kBurstGap = SimTime::micros(16);  // 2M packets/s
constexpr std::size_t kBurstsPerCommit = 1'250;     // 20 ms
/// Passes per requested wall second (~20M packets at the default 10).
constexpr double kPassesPerSecond = 64.0;

const net::IpAddr kVip{10, 0, 0, 1};
const net::IpAddr kSinkBase{10, 1, 0, 1};

class Sink final : public net::Node {
 public:
  std::uint64_t received = 0;
  void on_message(const net::Message&) override { ++received; }
  void on_batch(const net::Message* const*, std::size_t n) override {
    received += n;
  }
};

/// Distinct tuple per flow number: a seeded bijection on 48 bits, split
/// into source address and port.
net::FiveTuple flow_tuple(std::uint64_t flow, std::uint64_t salt) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 48) - 1;
  std::uint64_t x = (flow ^ salt) & kMask;
  x = (x * 0x5DEECE66Dull) & kMask;
  x ^= x >> 21;
  x = (x * 0x2545F4914F6CDD1Dull) & kMask;
  x ^= x >> 19;
  net::FiveTuple t;
  t.src_ip = net::IpAddr(static_cast<std::uint32_t>(x >> 16));
  t.src_port = static_cast<std::uint16_t>(x);
  t.dst_ip = kVip;
  t.dst_port = 80;
  return t;
}

/// Entry-point spans of a traced run.
struct DataplaneTrace {
  Span lb;      // MuxPool::on_batch
  Span commit;  // MuxPool::apply_program
  Span sim;     // Simulation::run_until (fabric delivery to the sinks)
  double depth_sum = 0.0;  // pending events after each burst, summed
};

class Dataplane {
 public:
  explicit Dataplane(std::uint64_t seed)
      : sim_(seed), net_(sim_), pool_(net_, kVip, kMuxes),
        rng_(seed ^ 0xD47A9A7Eull), salt_(util::Rng(seed).next()) {
    for (std::size_t i = 0; i < kSinks; ++i) {
      sinks_.push_back(std::make_unique<Sink>());
      net_.attach(sink_addr(i), sinks_.back().get());
    }
    commit(nullptr);
    stream_.resize(kBurstsPerPass * kBurst);
    for (std::size_t b = 0; b < kBurstsPerPass; ++b)
      for (std::size_t s = 0; s < kBurst; ++s)
        stream_[b * kBurst + s].type =
            s < kHalf ? net::MsgType::kHttpRequest : net::MsgType::kFin;
    // Prologue: open the first kOpenFlows flows, so the timed passes start
    // with the flow table at its steady size.
    std::vector<net::Message> opens(kOpenFlows);
    for (std::uint64_t f = 0; f < kOpenFlows; ++f) {
      opens[f].type = net::MsgType::kHttpRequest;
      opens[f].tuple = flow_tuple(f, salt_);
    }
    for (std::size_t off = 0; off < opens.size(); off += kBurst)
      step(&opens[off], kBurst, nullptr);
  }

  static net::IpAddr sink_addr(std::size_t i) {
    return kSinkBase.next(static_cast<std::uint32_t>(i));
  }

  /// Rewrite the stream's tuples for timed pass `p`: burst t opens flows
  /// kOpenFlows + 16t.. and closes flows 16t...
  void fill_pass(std::size_t p) {
    for (std::size_t b = 0; b < kBurstsPerPass; ++b) {
      const std::uint64_t t = p * kBurstsPerPass + b;
      for (std::size_t s = 0; s < kHalf; ++s) {
        stream_[b * kBurst + s].tuple =
            flow_tuple(kOpenFlows + kHalf * t + s, salt_);
        stream_[b * kBurst + kHalf + s].tuple = flow_tuple(kHalf * t + s, salt_);
      }
    }
  }

  /// Run the fabric up to this burst's due time, then hand the burst to
  /// the pool. Returns the step's wall nanoseconds.
  std::uint64_t step(const net::Message* msgs, std::size_t n,
                     DataplaneTrace* tr) {
    const net::Message* ptrs[kBurst];
    for (std::size_t i = 0; i < n; ++i) ptrs[i] = &msgs[i];
    due_ += kBurstGap;
    offered_ += n;
    const auto t0 = Clock::now();
    if (tr == nullptr) {
      events_ += sim_.run_until(due_);
      pool_.on_batch(ptrs, n);
      return ns_since(t0);
    }
    const auto events = sim_.run_until(due_);
    events_ += events;
    tr->sim.add(t0, events);
    const auto t1 = Clock::now();
    pool_.on_batch(ptrs, n);
    tr->lb.add(t1, n);
    tr->depth_sum += static_cast<double>(sim_.pending_events());
    return ns_since(t0);
  }

  /// Commit a fresh seeded reweighting of the 30 sinks.
  void commit(DataplaneTrace* tr) {
    std::vector<double> w(kSinks);
    for (auto& x : w) x = rng_.uniform(0.5, 1.5);
    const auto units = util::normalize_to_units(w);
    lb::PoolProgram p(pool_.issue_version());
    for (std::size_t i = 0; i < kSinks; ++i) p.add(sink_addr(i), units[i]);
    last_weights_.clear();
    for (std::size_t i = 0; i < kSinks; ++i)
      last_weights_.push_back({sink_addr(i).value(), units[i]});
    const auto t0 = Clock::now();
    pool_.apply_program(p);
    if (tr != nullptr) tr->commit.add(t0);
    ++commits_;
  }

  /// Close every flow still open after `bursts` timed bursts, then let the
  /// fabric deliver everything in flight.
  void close_all(std::uint64_t bursts) {
    std::vector<net::Message> fins(kOpenFlows);
    for (std::uint64_t f = 0; f < kOpenFlows; ++f) {
      fins[f].type = net::MsgType::kFin;
      fins[f].tuple = flow_tuple(kHalf * bursts + f, salt_);
    }
    for (std::size_t off = 0; off < fins.size(); off += kBurst)
      step(&fins[off], kBurst, nullptr);
    events_ += sim_.run_until(due_ + SimTime::millis(10));
  }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& s : sinks_) n += s->received;
    return n;
  }

  sim::Simulation& sim() { return sim_; }
  net::Network& net() { return net_; }
  lb::MuxPool& pool() { return pool_; }
  const std::vector<net::Message>& stream() const { return stream_; }
  const std::vector<lb::MaglevEntry>& last_weights() const {
    return last_weights_;
  }
  const std::vector<std::unique_ptr<Sink>>& sinks() const { return sinks_; }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t events() const { return events_; }
  std::uint64_t commits() const { return commits_; }

 private:
  sim::Simulation sim_;
  net::Network net_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  lb::MuxPool pool_;
  util::Rng rng_;
  std::uint64_t salt_;
  std::vector<net::Message> stream_;
  std::vector<lb::MaglevEntry> last_weights_;
  SimTime due_ = SimTime::zero();
  std::uint64_t offered_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t commits_ = 0;
};

/// Layer micro-timings on the recorded stream, after the window: the
/// affinity lookup, the epoch pin, a 30-DIP maglev build, and the fabric's
/// blackholed send_burst staging.
void micro_timings(const Dataplane& dp, RunResult& r) {
  const auto& stream = dp.stream();
  {
    // The last pass's opens, pinned; then batched lookups of those flows
    // (affinity hits, the lookup every mid-flow packet pays).
    lb::FlowTable table;
    std::vector<lb::FlowLookup> reqs;
    for (std::size_t b = 0; b < kBurstsPerPass; ++b)
      for (std::size_t s = 0; s < kHalf; ++s) {
        const auto& t = stream[b * kBurst + s].tuple;
        table.try_insert(t, 1 + b % kSinks, SimTime::zero(), false);
        reqs.push_back({&t, net::hash_tuple(t), {}});
      }
    std::size_t off = 0;
    r.layer("lb.flow_lookup_ns",
            time_per_unit(0.2, static_cast<double>(kBurst), [&] {
              table.lookup_batch(&reqs[off], kBurst, SimTime::zero());
              off = (off + kBurst) % (reqs.size() - kBurst);
            }));
  }
  {
    lb::EpochDomain domain;
    r.layer("lb.epoch_pin_ns", time_per_unit(0.2, 1024.0, [&] {
              for (int i = 0; i < 1024; ++i) {
                auto guard = domain.pin();
              }
            }));
  }
  r.layer("lb.maglev_build_ms", maglev_build_ms(dp.last_weights()));
  {
    sim::Simulation sim;
    net::Network net(sim);
    net.set_blackhole(true);
    const net::Message* ptrs[kBurst];
    std::size_t b = 0;
    r.layer("net.send_burst_ns_per_pkt",
            time_per_unit(0.2, static_cast<double>(kBurst), [&] {
              for (std::size_t i = 0; i < kBurst; ++i)
                ptrs[i] = &stream[b * kBurst + i];
              net.send_burst(Dataplane::sink_addr(b % kSinks), ptrs, kBurst);
              b = (b + 1) % kBurstsPerPass;
            }));
  }
}

}  // namespace

double maglev_build_ms(const std::vector<lb::MaglevEntry>& entries) {
  lb::MaglevTable table;
  return time_per_unit(0.2, 1.0, [&] { table.build(entries); }) * 1e-6;
}

RunResult run_dataplane_burst(const Options& opt) {
  RunResult r;
  double setup_s = 0.0;
  auto dp = opt.trace ? std::make_unique<Dataplane>(opt.seed)
                      : repeat_setup(kSetupRepeats, &setup_s, [&] {
                          return std::make_unique<Dataplane>(opt.seed);
                        });
  DataplaneTrace trace;
  DataplaneTrace* tr = opt.trace ? &trace : nullptr;
  auto& pool = dp->pool();

  const auto passes = static_cast<std::size_t>(
      std::max(1.0, std::round(kPassesPerSecond * opt.seconds)));
  const auto c0 = pool_counters(pool);
  const auto msgs0 = dp->net().messages_sent();
  const auto events0 = dp->events();
  const auto offered0 = dp->offered();

  // Per pass: delivered packets per wall second, and the p50 and p99 of
  // the wall time per burst step (1024 steps, so ten beyond the p99).
  std::vector<double> rates, p50s, p99s;
  std::vector<double> step_ms(kBurstsPerPass);
  double window_s = 0.0;
  std::uint64_t bursts = 0;
  for (std::size_t p = 0; p < passes; ++p) {
    dp->fill_pass(p);
    const auto delivered0 = dp->delivered();
    double pass_s = 0.0;
    for (std::size_t b = 0; b < kBurstsPerPass; ++b, ++bursts) {
      if (bursts % kBurstsPerCommit == kBurstsPerCommit - 1) {
        const auto t0 = Clock::now();
        dp->commit(tr);
        pass_s += seconds_since(t0);
      }
      const auto ns = dp->step(&dp->stream()[b * kBurst], kBurst, tr);
      step_ms[b] = static_cast<double>(ns) * 1e-6;
      pass_s += static_cast<double>(ns) * 1e-9;
    }
    window_s += pass_s;
    rates.push_back(static_cast<double>(dp->delivered() - delivered0) / pass_s);
    p50s.push_back(percentile(step_ms, 0.50));
    p99s.push_back(percentile(step_ms, 0.99));
  }
  const auto c1 = pool_counters(pool);
  const auto window_events = dp->events() - events0;
  const auto window_pkts = dp->offered() - offered0;
  const auto window_msgs = dp->net().messages_sent() - msgs0;

  r.window_s = window_s;
  const auto steps = static_cast<std::uint64_t>(passes * kBurstsPerPass);
  r.e2e("ops_per_s", upper_quartile(rates), rates.size());
  r.e2e("latency_p50_ms", lower_quartile(p50s), steps);
  r.e2e("latency_p99_ms", lower_quartile(p99s), steps);
  r.e2e("setup_s", setup_s, kSetupRepeats);

  if (tr != nullptr) {
    const auto pkts = static_cast<double>(window_pkts);
    r.entry_s = trace.lb.seconds() + trace.commit.seconds() + trace.sim.seconds();
    r.layer("sim.self_ns_per_event", ratio(static_cast<double>(trace.sim.ns),
                                           static_cast<double>(window_events)));
    r.layer("sim.events_per_op", ratio(static_cast<double>(window_events), pkts));
    r.layer("sim.queue_depth",
            ratio(trace.depth_sum, static_cast<double>(trace.lb.calls)),
            trace.lb.calls);
    r.layer("net.msgs_per_op", ratio(static_cast<double>(window_msgs), pkts));
    r.layer("lb.ns_per_msg", trace.lb.ns_per_item());
    r.layer("lb.busy_frac",
            ratio(trace.lb.seconds() + trace.commit.seconds(), window_s));
    report_pool_layers(c0, c1, pkts, r);
    r.layer("lb.commit_ms", trace.commit.ns_per_item() * 1e-6,
            trace.commit.calls);
  }

  dp->close_all(bursts);
  const auto offered = dp->offered();
  const auto delivered = dp->delivered();
  r.attempted = offered;
  r.failed = offered > delivered ? offered - delivered : 0;
  r.check("every packet delivered",
          delivered == offered && dp->net().messages_unreachable() == 0 &&
              pool.no_backend_drops() == 0,
          std::to_string(delivered) + " of " + std::to_string(offered) +
              " delivered, " + std::to_string(dp->net().messages_unreachable()) +
              " unreachable, " + std::to_string(pool.no_backend_drops()) +
              " no-backend drops");
  r.check("no affinity entries left", pool.affinity_size() == 0,
          std::to_string(pool.affinity_size()) + " entries");
  pool.poll();
  bool reclaimed = true;
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    reclaimed = reclaimed && generations_reclaimed(pool.mux(k));
  r.check("retired generations reclaimed", reclaimed);

  r.note("offered", offered);
  r.note("delivered", delivered);
  r.note("events", dp->events());
  r.note("commits", dp->commits());
  r.note("flow_inserts", c1.flow_inserts);
  r.note("generations_published", pool.generations_published());
  std::uint64_t per_sink = 0;
  for (const auto& s : dp->sinks()) per_sink = per_sink * 1'000'003 + s->received;
  r.note("per_sink_received", per_sink);

  if (tr != nullptr) micro_timings(*dp, r);
  return r;
}

}  // namespace klb::benchmark
