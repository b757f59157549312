// The two full-stack workloads: clients -> MuxPool -> DIPs through the
// simulated fabric, with the KLM prober and the latency store running.
//
//   steady_pool  Table-3 pool, static core-proportional weights, no
//                controller. The event loop, fabric, codecs, DIPs and
//                clients carry the run; a solver change must not move it.
//   klb_churn    bench_fig16_dynamic_churn --short's scenario: KnapsackLB
//                explores to Ready, then rides a capacity steal, a
//                scale-out wave, a rolling drain and a correlated failure
//                under live traffic. The paper's claim, end to end.
//
// Virtual-time metrics (client latency, counts) are exact for a seed; the
// wall-clock ones (ops_per_s, setup_s) are what a faster library moves.
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "bench.hpp"
#include "store/kv_server.hpp"
#include "testbed/testbed.hpp"

namespace klb::benchmark {
namespace {

using util::SimTime;

constexpr SimTime kWarmup = SimTime::seconds(10);
/// Clients stop, then every session still open resolves (success, error,
/// or the 2 s request timeout) before request conservation is checked.
constexpr SimTime kDrainTail = SimTime::seconds(5);

/// Timing proxies for a traced testbed run. A set_tap pass during warm-up
/// learns which addresses the clients, the KLM and the store answer on;
/// bind() then rebinds every component address (VIP, DIPs, clients, KLM,
/// store) to a TimedNode forwarding to the original component.
class TestbedTrace {
 public:
  Span lb, server, workload, klm, store;

  explicit TestbedTrace(testbed::Testbed& bed) : bed_(bed) {}
  ~TestbedTrace() {
    for (const auto& [addr, node] : restore_) bed_.network().attach(addr, node);
  }
  TestbedTrace(const TestbedTrace&) = delete;
  TestbedTrace& operator=(const TestbedTrace&) = delete;

  void learn() {
    bed_.network().set_tap([this](net::IpAddr to, const net::Message& m) {
      switch (m.type) {
        case net::MsgType::kRespCommand: store_addr_ = to; break;
        case net::MsgType::kRespReply: klm_addr_ = to; break;
        case net::MsgType::kHttpResponse: responders_.insert(to); break;
        default: break;
      }
    });
  }

  void bind() {
    bed_.network().set_tap(nullptr);
    proxy(bed_.vip(), *bed_.mux_pool(), lb);
    for (std::size_t i = 0; i < bed_.dip_count(); ++i) bind_dip(i);
    proxy(klm_addr_, bed_.klm(), klm);
    for (const auto addr : responders_)
      if (addr != klm_addr_) proxy(addr, bed_.client_pool(0), workload);
    // The testbed keeps its KvServer private, so the store address gets an
    // equivalent server over the same engine (same code, same state), and
    // the proxy forwards to that.
    store_server_ = std::make_unique<store::KvServer>(
        bed_.network(), store_addr_,
        std::shared_ptr<store::KvEngine>(std::shared_ptr<store::KvEngine>(),
                                         &bed_.latency_store().engine()));
    proxy(store_addr_, *store_server_, store);
  }

  /// DIP servers join at runtime (scale_out); bind each newcomer too.
  void bind_dip(std::size_t i) {
    auto& dip = bed_.dip(i);
    proxy(dip.address(), dip, server);
  }

  double entry_seconds() const {
    return lb.seconds() + server.seconds() + workload.seconds() +
           klm.seconds() + store.seconds();
  }

 private:
  void proxy(net::IpAddr addr, net::Node& inner, Span& span) {
    proxies_.push_back(std::make_unique<TimedNode>(inner, span));
    bed_.network().attach(addr, proxies_.back().get());
    if (&inner != store_server_.get()) restore_.emplace_back(addr, &inner);
  }

  testbed::Testbed& bed_;
  net::IpAddr klm_addr_;
  net::IpAddr store_addr_;
  std::set<net::IpAddr> responders_;
  std::unique_ptr<store::KvServer> store_server_;
  std::vector<std::unique_ptr<TimedNode>> proxies_;
  std::vector<std::pair<net::IpAddr, net::Node*>> restore_;
};

struct ClientTotals {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;

  std::uint64_t outcomes() const { return ok + errors + timeouts; }
};

ClientTotals client_totals(testbed::Testbed& bed) {
  ClientTotals t;
  t.sent = bed.client_requests_sent();
  t.ok = bed.client_successes();
  t.timeouts = bed.client_timeouts();
  for (std::size_t p = 0; p < bed.client_pool_count(); ++p)
    t.errors += bed.client_pool(p).recorder().errors();
  return t;
}

/// Client latencies counted per virtual microsecond (SimTime's resolution),
/// so exact percentiles need no copy of the recorder's samples and the
/// harness adds no seed-dependent allocation to the peak RSS it reports.
class LatencyCounts {
 public:
  void add(double ms) {
    const auto us = static_cast<std::size_t>(std::llround(ms * 1e3));
    if (us >= counts_.size()) counts_.resize(us + 1, 0);
    ++counts_[us];
    ++n_;
  }
  std::uint64_t size() const { return n_; }
  /// Same rank rule as percentile() in bench.hpp, so the same value.
  double percentile(double p) const {
    if (n_ == 0) return 0.0;
    const auto k = static_cast<std::uint64_t>(p * static_cast<double>(n_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t us = 0; us < counts_.size(); ++us) {
      seen += counts_[us];
      if (seen > k) return static_cast<double>(us) / 1e3;
    }
    return 0.0;
  }

 private:
  std::vector<std::uint32_t> counts_ =
      std::vector<std::uint32_t>(2'000'001, 0);  // up to the 2 s timeout
  std::uint64_t n_ = 0;
};

/// The timed region: every virtual-time advance goes through run(), which
/// records one throughput sample per slice (completed requests per wall
/// second) plus the event-loop totals the traced metrics need.
class Window {
 public:
  explicit Window(testbed::Testbed& bed) : bed_(bed) {}

  void run(SimTime duration, SimTime slice) {
    for (SimTime done = SimTime::zero(); done < duration; done += slice) {
      const auto step = std::min(slice, duration - done);
      const auto ok0 = bed_.client_successes();
      const auto t0 = Clock::now();
      events_ += bed_.sim().run_for(step);
      const double dt = seconds_since(t0);
      wall_s_ += dt;
      rates_.push_back(static_cast<double>(bed_.client_successes() - ok0) / dt);
      depth_sum_ += static_cast<double>(bed_.sim().pending_events());
    }
  }

  /// Run `duration` and keep the successful requests' client latencies.
  void measure(SimTime duration, SimTime slice) {
    const auto& raw = bed_.clients().recorder().raw_latencies_ms();
    const auto first = raw.size();
    run(duration, slice);
    for (auto i = first; i < raw.size(); ++i) latencies_.add(raw[i]);
  }

  double wall_s() const { return wall_s_; }
  std::uint64_t events() const { return events_; }
  const std::vector<double>& rates() const { return rates_; }
  double mean_depth() const {
    return ratio(depth_sum_, static_cast<double>(rates_.size()));
  }
  const LatencyCounts& latencies() const { return latencies_; }

 private:
  testbed::Testbed& bed_;
  double wall_s_ = 0.0;
  std::uint64_t events_ = 0;
  std::vector<double> rates_;
  double depth_sum_ = 0.0;
  LatencyCounts latencies_;
};

/// Quiesce and poll the dataplane: every generation but the live one must
/// be reclaimed.
void check_reclaimed(testbed::Testbed& bed, RunResult& r) {
  auto& pool = *bed.mux_pool();
  pool.poll();
  std::string stuck;
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    if (!generations_reclaimed(pool.mux(k))) stuck += std::to_string(k) + " ";
  r.check("retired generations reclaimed", stuck.empty(),
          stuck.empty() ? "" : "muxes " + stuck);
}

/// Stop the clients, let every open session resolve, and require that
/// each request sent ended exactly once: success, 5xx, or timeout.
void check_conservation(testbed::Testbed& bed, RunResult& r) {
  for (std::size_t p = 0; p < bed.client_pool_count(); ++p)
    bed.client_pool(p).stop();
  bed.sim().run_for(kDrainTail);
  const auto t = client_totals(bed);
  r.check("request conservation", t.sent == t.outcomes(),
          "sent " + std::to_string(t.sent) + ", ok " + std::to_string(t.ok) +
              ", 5xx " + std::to_string(t.errors) + ", timeouts " +
              std::to_string(t.timeouts));
}

/// End-to-end metrics and fingerprint shared by both testbed workloads.
void report_window(Window& w, const ClientTotals& before,
                   const ClientTotals& after, RunResult& r) {
  r.window_s = w.wall_s();
  r.attempted = after.outcomes() - before.outcomes();
  r.failed = (after.errors - before.errors) + (after.timeouts - before.timeouts);
  const auto& lat = w.latencies();
  const auto n = lat.size();
  const double p50 = lat.percentile(0.50);
  const double p99 = lat.percentile(0.99);
  r.e2e("ops_per_s", upper_quartile(w.rates()), w.rates().size());
  r.e2e("latency_p50_ms", p50, n);
  r.e2e("latency_p99_ms", p99, n);
  r.note("latency_p50_ms", p50);
  r.note("latency_p99_ms", p99);
  r.note("latency_samples", n);
  r.note("window_events", w.events());
  r.note("requests_sent", after.sent);
  r.note("requests_ok", after.ok);
  r.note("requests_5xx", after.errors);
  r.note("requests_timed_out", after.timeouts);
}

/// Per-layer metrics a traced testbed window yields.
void report_layers(const TestbedTrace& tr, const Window& w,
                   std::uint64_t completed, std::uint64_t msgs_sent,
                   const PoolCounters& c0, const PoolCounters& c1,
                   RunResult& r) {
  const double window_ns = w.wall_s() * 1e9;
  const double entry_ns = tr.entry_seconds() * 1e9;
  const auto done = static_cast<double>(completed);
  r.entry_s = tr.entry_seconds();
  r.layer("sim.self_ns_per_event",
          ratio(window_ns - entry_ns, static_cast<double>(w.events())));
  r.layer("sim.events_per_op", ratio(static_cast<double>(w.events()), done));
  r.layer("sim.queue_depth", w.mean_depth(), w.rates().size());
  r.layer("net.msgs_per_op", ratio(static_cast<double>(msgs_sent), done));
  r.layer("lb.ns_per_msg", tr.lb.ns_per_item());
  r.layer("lb.busy_frac", ratio(tr.lb.seconds(), w.wall_s()));
  r.layer("server.ns_per_msg", tr.server.ns_per_item());
  r.layer("server.busy_frac", ratio(tr.server.seconds(), w.wall_s()));
  r.layer("workload.ns_per_msg", tr.workload.ns_per_item());
  r.layer("workload.busy_frac", ratio(tr.workload.seconds(), w.wall_s()));
  r.layer("klm.busy_frac", ratio(tr.klm.seconds(), w.wall_s()));
  r.layer("store.busy_frac", ratio(tr.store.seconds(), w.wall_s()));
  report_pool_layers(c0, c1, static_cast<double>(tr.lb.items), r);
}

/// A warmed-up testbed, plus its timing proxies in a traced run.
struct Instance {
  std::unique_ptr<testbed::Testbed> bed;
  std::unique_ptr<TestbedTrace> trace;  // after bed: destroyed first
};

std::unique_ptr<Instance> warm_up(std::vector<testbed::DipSpec> specs,
                                  const testbed::TestbedConfig& cfg,
                                  bool traced,
                                  const std::vector<double>& weights = {}) {
  auto in = std::make_unique<Instance>();
  in->bed = std::make_unique<testbed::Testbed>(std::move(specs), cfg);
  if (!weights.empty()) in->bed->set_static_weights(weights);
  if (traced) {
    in->trace = std::make_unique<TestbedTrace>(*in->bed);
    in->trace->learn();
  }
  in->bed->sim().run_for(kWarmup);
  if (traced) in->trace->bind();
  return in;
}

/// Untraced runs time kSetupRepeats set-ups; traced runs build once.
template <typename Make>
std::unique_ptr<Instance> set_up(const Options& opt, double* setup_s,
                                 Make make) {
  if (opt.trace) return make(true);
  return repeat_setup(kSetupRepeats, setup_s, [&] { return make(false); });
}

// --- steady_pool --------------------------------------------------------------

std::unique_ptr<Instance> make_steady_pool(std::uint64_t seed, bool traced) {
  testbed::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.mux_count = 3;
  const auto specs = testbed::table3_specs();
  std::vector<double> cores;
  for (const auto& s : specs) cores.push_back(s.vm.cores);
  return warm_up(specs, cfg, traced, cores);
}

// --- klb_churn ----------------------------------------------------------------

constexpr SimTime kReadyLimit = SimTime::minutes(10);

std::unique_ptr<Instance> make_klb_churn(std::uint64_t seed, bool traced) {
  testbed::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.use_knapsacklb = true;
  cfg.mux_count = 3;
  cfg.requests_per_session = 1.0;
  // With one request per session the default closed-loop cap (5x nominal
  // in-flight) would throttle the offered load whenever a DIP overloads,
  // which is exactly when the scenario needs it; fig16 runs at 20x.
  cfg.closed_loop_factor = 20.0;
  // No KLM-driven refresh in a 10-minute scenario; the paper's figures
  // also hold offered load constant through the events.
  cfg.controller.refresh_interval = SimTime::zero();
  cfg.rescale_load_on_churn = false;
  // At the paper's 100 probes per KLM round, exploration noise moves the
  // explored curves, and with them the client latency, by ~20% between
  // seeds; 300 keeps the scenario's outcome steady enough to compare.
  cfg.klm.probes_per_round = 300;
  std::vector<testbed::DipSpec> specs;
  for (int i = 0; i < 6; ++i) specs.push_back({server::kDs1v2, 1.0, 0.0});
  for (int i = 0; i < 2; ++i) specs.push_back({server::kDs2v2, 1.0, 0.0});
  specs.push_back({server::kF8sv2, 1.0, 0.0});
  return warm_up(specs, cfg, traced);
}

/// Advance until the controller reports every DIP Ready, one controller
/// round at a time. Returns false when `kReadyLimit` elapses first.
bool run_until_ready(testbed::Testbed& bed, Window& w) {
  const auto deadline = bed.sim().now() + kReadyLimit;
  while (!bed.controller()->all_ready()) {
    if (bed.sim().now() >= deadline) return false;
    w.run(SimTime::seconds(10), SimTime::seconds(10));
  }
  return true;
}

}  // namespace

RunResult run_steady_pool(const Options& opt) {
  RunResult r;
  double setup_s = 0.0;
  const auto in = set_up(opt, &setup_s, [&](bool traced) {
    return make_steady_pool(opt.seed, traced);
  });
  auto* bed = in->bed.get();
  const auto* trace = in->trace.get();

  auto& pool = *bed->mux_pool();
  const auto before = client_totals(*bed);
  const auto c0 = pool_counters(pool);
  const auto msgs0 = bed->network().messages_sent();

  // 24 virtual seconds per requested wall second, in 5 vs slices.
  const auto window = SimTime::seconds(24.0 * opt.seconds);
  Window w(*bed);
  w.measure(window, SimTime::seconds(5));

  const auto after = client_totals(*bed);
  const auto c1 = pool_counters(pool);
  report_window(w, before, after, r);
  r.e2e("setup_s", setup_s, kSetupRepeats);
  if (trace)
    report_layers(*trace, w, after.ok - before.ok,
                  bed->network().messages_sent() - msgs0, c0, c1, r);

  r.check("no failed requests in the window", r.failed == 0,
          std::to_string(r.failed) + " of " + std::to_string(r.attempted));
  check_conservation(*bed, r);
  const auto drops = pool.no_backend_drops();
  r.check("zero no-backend drops", drops == 0, std::to_string(drops));
  check_reclaimed(*bed, r);
  r.note("no_backend_drops", drops);
  r.note("generations_published", c1.generations_published);
  return r;
}

RunResult run_klb_churn(const Options& opt) {
  RunResult r;
  double setup_s = 0.0;
  const auto in = set_up(opt, &setup_s, [&](bool traced) {
    return make_klb_churn(opt.seed, traced);
  });
  auto* bed = in->bed.get();
  auto* trace = in->trace.get();

  auto& pool = *bed->mux_pool();
  auto& ctl = *bed->controller();
  const auto before = client_totals(*bed);
  const auto c0 = pool_counters(pool);
  const auto msgs0 = bed->network().messages_sent();
  const auto ilp0 = ctl.ilp_runs();
  const auto rescales0 = ctl.traffic_rescales() + ctl.capacity_rescales();

  // Phase windows: 3 virtual seconds per requested wall second (30 vs at
  // the default 10, like the fig16 --short bench), sliced 6 ways.
  const auto phase = SimTime::seconds(3.0 * opt.seconds);
  const auto slice = phase * (1.0 / 6.0);
  Window w(*bed);
  std::uint64_t window_drops = 0;
  const auto measure_phase = [&] {
    const auto d0 = pool.no_backend_drops();
    w.measure(phase, slice);
    window_drops += pool.no_backend_drops() - d0;
  };

  // Exploration to Ready (§4.3), then the fig16 event sequence.
  bool ready = run_until_ready(*bed, w);
  double converge_vs = bed->sim().now().sec();
  w.run(phase * (2.0 / 3.0), slice);
  measure_phase();  // baseline

  bed->dip(6).set_stolen_cores(1.0);  // capacity steal on both DS2v2s
  bed->dip(7).set_stolen_cores(1.0);
  measure_phase();

  const auto out_at = bed->sim().now();
  for (int i = 0; i < 2; ++i) {  // scale-out wave
    const auto idx = bed->scale_out({server::kDs2v2, 1.0, 0.0});
    if (trace) trace->bind_dip(idx);
  }
  ready = run_until_ready(*bed, w) && ready;
  converge_vs += (bed->sim().now() - out_at).sec();
  measure_phase();

  const auto drains0 = pool.drains_completed();
  for (int i = 0; i < 2; ++i) {  // rolling graceful drain
    bed->scale_in(0);
    w.run(phase * (1.0 / 3.0), slice);
  }
  measure_phase();
  const auto drains = pool.drains_completed() - drains0;
  const auto draining = pool.draining_count();

  bed->fail_dip(0);  // correlated abrupt failure
  bed->fail_dip(0);
  measure_phase();

  const auto after = client_totals(*bed);
  const auto c1 = pool_counters(pool);
  report_window(w, before, after, r);
  r.e2e("setup_s", setup_s, kSetupRepeats);
  if (trace) {
    report_layers(*trace, w, after.ok - before.ok,
                  bed->network().messages_sent() - msgs0, c0, c1, r);
    r.layer("core.ilp_runs", static_cast<double>(ctl.ilp_runs() - ilp0));
    r.layer("core.rescales",
            static_cast<double>(ctl.traffic_rescales() +
                                ctl.capacity_rescales() - rescales0));
    r.layer("core.converge_vs", converge_vs);
  }

  r.check("every DIP reached Ready", ready);
  r.check("zero no-backend drops in the phase windows", window_drops == 0,
          std::to_string(window_drops));
  const auto want_drains = 2 * pool.mux_count();
  r.check("graceful drains complete", drains == want_drains && draining == 0,
          std::to_string(drains) + " of " + std::to_string(want_drains) +
              " member drains completed, " + std::to_string(draining) +
              " still draining");

  // One more controller round answers the failure even when a short
  // --seconds ended the phase first. Then freeze the control loop and let
  // any program riding the programming delay commit: the live weights must
  // sum to 1 and match the controller's view per DIP address.
  bed->sim().run_for(core::ControllerConfig{}.round_interval);
  ctl.stop();
  bed->sim().run_for(SimTime::seconds(1));
  double sum = 0.0;
  std::string mismatch;
  for (const auto& m : bed->metrics()) {
    sum += m.weight;
    const auto cw = ctl.weight_of(m.addr);
    if (!cw || std::abs(*cw - m.weight) > 2e-3) mismatch += m.addr.str() + " ";
  }
  r.check("weights sum to 1", std::abs(sum - 1.0) <= 1e-3,
          "sum " + std::to_string(sum));
  r.check("weights match the controller per address", mismatch.empty(),
          mismatch);
  check_conservation(*bed, r);
  check_reclaimed(*bed, r);

  r.note("converge_vs", converge_vs);
  r.note("ilp_runs", ctl.ilp_runs());
  r.note("drains_completed", pool.drains_completed());
  r.note("no_backend_drops", pool.no_backend_drops());
  r.note("generations_published", pool.generations_published());
  r.note("weight_sum", sum);
  return r;
}

}  // namespace klb::benchmark
