// fleet_control: the control plane alone, at fleet scale, with no packets.
//
// 100 VIPs x 30 DIPs, each VIP served by its own lb::Mux (maglev), under a
// MultiVipCoordinator at its defaults except an unlimited ILP budget (so a
// round's work is set by the dirty VIPs, not by the grant policy) and no
// curve refresh (there is no KLM here to finish a re-exploration). Before
// each round, a seeded quarter of the VIPs get one DIP's curve rescaled
// (inject_ready_curve), and every DIP gets one latency sample at its
// curve's latency for its current weight, so §4.5 sees no drift and the
// round's work is exactly: prepare all VIPs, solve and commit the dirty
// ones. A packet-path change must not move this workload; a solver,
// store, or commit change must.
//
// latency_* here is freshness: wall time from the round's start to a
// dirty VIP's new program being live in its Mux generation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/multi_vip.hpp"
#include "lb/mux.hpp"
#include "store/latency_store.hpp"
#include "testbed/synthetic.hpp"
#include "util/rng.hpp"
#include "util/weight.hpp"

namespace klb::benchmark {
namespace {

using util::SimTime;

constexpr std::size_t kVips = 100;
constexpr std::size_t kDips = 30;
constexpr std::size_t kDirtyPerRound = kVips / 4;
constexpr SimTime kRoundInterval = SimTime::seconds(10);
/// Rounds per requested wall second (60 rounds at the default 10).
constexpr double kRoundsPerSecond = 6.0;

/// The controller's dataplane: forwards every transaction to the VIP's
/// Mux and records when it went live (and, traced, how long it took).
class CommitTap final : public lb::PoolProgrammer {
 public:
  struct Commit {
    std::size_t vip;
    Clock::time_point live;
  };

  CommitTap(lb::Mux& mux, std::size_t vip, std::vector<Commit>& log)
      : mux_(mux), vip_(vip), log_(log) {}

  std::size_t backend_count() const override { return mux_.backend_count(); }
  std::vector<net::IpAddr> backend_addrs() const override {
    return mux_.backend_addrs();
  }
  void apply_program(const lb::PoolProgram& program) override {
    const auto t0 = Clock::now();
    mux_.apply_program(program);
    const auto live = Clock::now();
    if (span_ != nullptr) span_->add(t0);
    log_.push_back({vip_, live});
  }
  void poll() override { mux_.poll(); }

  void set_span(Span* span) { span_ = span; }

 private:
  lb::Mux& mux_;
  std::size_t vip_;
  std::vector<Commit>& log_;
  Span* span_ = nullptr;
};

/// Spans of a traced run: the coordinator's three phases, driven by the
/// benchmark in MultiVipCoordinator::tick's order, plus the commits nested
/// in apply and the store writes before each round.
struct FleetTrace {
  Span prepare, solve, apply, commit, record;
};

class Fleet {
 public:
  explicit Fleet(std::uint64_t seed)
      : sim_(seed), net_(sim_),
        engine_(std::make_shared<store::KvEngine>([this] { return sim_.now(); })),
        store_(engine_), rng_(seed ^ 0xF1EE7ull) {
    core::MultiVipConfig cfg;
    cfg.max_ilp_per_round = 0;
    cfg.controller.refresh_interval = SimTime::zero();
    coord_ = std::make_unique<core::MultiVipCoordinator>(sim_, cfg);

    util::Rng curves(seed);
    const double base = 1.25 / static_cast<double>(kDips);
    for (std::size_t v = 0; v < kVips; ++v) {
      const net::IpAddr vip(static_cast<std::uint32_t>(0x0a000001 + v));
      std::vector<net::IpAddr> dips;
      for (std::size_t d = 0; d < kDips; ++d)
        dips.emplace_back(static_cast<std::uint32_t>(0x0a800000 + (v << 8) + d));
      vips_.push_back(vip);
      muxes_.push_back(std::make_unique<lb::Mux>(
          net_, vip, lb::make_policy("maglev"), /*attach_to_vip=*/false));
      taps_.push_back(std::make_unique<CommitTap>(*muxes_.back(), v, commits_));
      coord_->add_vip(vip, dips, store_, *taps_.back());
      // Heterogeneous pool, total capacity ~1.25x demand (testbed/fleet.hpp).
      auto& ctl = coord_->controller(v);
      base_curves_.emplace_back();
      for (std::size_t d = 0; d < kDips; ++d) {
        const double wmax = base * (0.5 + 1.5 * curves.uniform());
        const double l0 = 1.0 + 2.0 * curves.uniform();
        base_curves_.back().push_back(testbed::synthetic_curve(wmax, l0));
        ctl.inject_ready_curve(d, base_curves_.back().back());
      }
      ctl.start_managed();
    }
    // Warm-up round: every VIP is dirty from its initial curves.
    sample();
    coord_->tick();
    commits_.clear();
  }

  core::MultiVipCoordinator& coord() { return *coord_; }
  std::vector<CommitTap::Commit>& commits() { return commits_; }
  lb::Mux& mux(std::size_t v) { return *muxes_[v]; }

  void set_trace(FleetTrace* tr) {
    trace_ = tr;
    for (auto& t : taps_) t->set_span(tr != nullptr ? &tr->commit : nullptr);
  }

  /// Rescale one DIP's curve on a seeded quarter of the VIPs.
  void perturb() {
    std::vector<std::size_t> order(kVips);
    for (std::size_t v = 0; v < kVips; ++v) order[v] = v;
    for (std::size_t k = 0; k < kDirtyPerRound; ++k) {
      const auto j = k + rng_.uniform_int(kVips - k);
      std::swap(order[k], order[j]);
      const auto v = order[k];
      const auto d = rng_.uniform_int(kDips);
      auto curve = base_curves_[v][d];
      curve.rescale(rng_.uniform(0.85, 1.15));
      coord_->controller(v).inject_ready_curve(d, curve);
    }
  }

  /// Advance one round interval, then write one sample per DIP at its
  /// curve's latency for its current weight (no drift for §4.5 to see).
  void sample() {
    sim_.run_for(kRoundInterval);
    for (std::size_t v = 0; v < kVips; ++v) {
      const auto& ctl = coord_->controller(v);
      for (std::size_t d = 0; d < ctl.dip_count(); ++d) {
        store::LatencySample s;
        s.dip = ctl.dip_addr(d);
        s.avg_latency_ms = ctl.curve(d).latency_at(ctl.current_weights()[d]);
        s.probes = 100;
        s.at = sim_.now();
        const auto t0 = Clock::now();
        store_.record(vips_[v], s);
        if (trace_ != nullptr) trace_->record.add(t0);
      }
    }
  }

  /// One coordinated round: MultiVipCoordinator::tick, or — traced — its
  /// three phases driven here in tick's order (one solver thread,
  /// unlimited budget), so the weights stay bit-identical.
  void round() {
    if (trace_ == nullptr) {
      coord_->tick();
      return;
    }
    std::vector<char> wants(kVips, 0);
    for (std::size_t v = 0; v < kVips; ++v) {
      const auto t0 = Clock::now();
      wants[v] = coord_->controller(v).tick_prepare() ? 1 : 0;
      trace_->prepare.add(t0);
    }
    std::vector<core::Controller::IlpSolveOutcome> outcomes(kVips);
    for (std::size_t v = 0; v < kVips; ++v) {
      if (!wants[v]) continue;
      const auto t0 = Clock::now();
      outcomes[v] = coord_->controller(v).solve_ilp();
      trace_->solve.add(t0);
    }
    for (std::size_t v = 0; v < kVips; ++v) {
      if (!wants[v]) continue;
      const auto t0 = Clock::now();
      coord_->controller(v).apply_ilp(outcomes[v]);
      trace_->apply.add(t0);
    }
  }

 private:
  sim::Simulation sim_;
  net::Network net_;
  std::shared_ptr<store::KvEngine> engine_;
  store::LatencyStore store_;
  util::Rng rng_;
  std::vector<net::IpAddr> vips_;
  std::vector<std::unique_ptr<lb::Mux>> muxes_;
  std::vector<CommitTap::Commit> commits_;
  std::vector<std::unique_ptr<CommitTap>> taps_;
  std::unique_ptr<core::MultiVipCoordinator> coord_;
  std::vector<std::vector<fit::WeightLatencyCurve>> base_curves_;
  FleetTrace* trace_ = nullptr;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * 0x100000001B3ull;
}

}  // namespace

RunResult run_fleet_control(const Options& opt) {
  RunResult r;
  double setup_s = 0.0;
  auto fleet = opt.trace ? std::make_unique<Fleet>(opt.seed)
                         : repeat_setup(kSetupRepeats, &setup_s, [&] {
                             return std::make_unique<Fleet>(opt.seed);
                           });
  FleetTrace trace;
  if (opt.trace) fleet->set_trace(&trace);
  auto& coord = fleet->coord();

  std::uint64_t ilp0 = 0, rescales0 = 0, gens0 = 0;
  for (std::size_t v = 0; v < kVips; ++v) {
    const auto& c = coord.controller(v);
    ilp0 += c.ilp_runs();
    rescales0 += c.traffic_rescales() + c.capacity_rescales();
    gens0 += fleet->mux(v).generations_published();
  }

  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(kRoundsPerSecond * opt.seconds)));
  // Per round: commits per wall second, and the p50 and p99 of freshness
  // (ms from the round's start to each dirty VIP's program being live).
  std::vector<double> rates, p50s, p99s, freshness;
  std::uint64_t commits = 0;
  double window_s = 0.0;
  for (std::size_t k = 0; k < rounds; ++k) {
    fleet->perturb();
    fleet->sample();
    std::vector<char> dirty(kVips, 0);
    for (std::size_t v = 0; v < kVips; ++v)
      dirty[v] = coord.controller(v).ilp_dirty() ? 1 : 0;

    auto& log = fleet->commits();
    log.clear();
    const auto t0 = Clock::now();
    fleet->round();
    const double dt = seconds_since(t0);
    window_s += dt;
    rates.push_back(static_cast<double>(log.size()) / dt);

    std::vector<char> committed(kVips, 0);
    freshness.clear();
    for (const auto& c : log) {
      committed[c.vip] = 1;
      freshness.push_back(
          std::chrono::duration<double, std::milli>(c.live - t0).count());
    }
    commits += log.size();
    p50s.push_back(percentile(freshness, 0.50));
    p99s.push_back(percentile(freshness, 0.99));
    for (std::size_t v = 0; v < kVips; ++v) {
      if (!dirty[v]) continue;
      ++r.attempted;
      if (!committed[v]) ++r.failed;
    }
  }

  r.window_s = window_s;
  r.e2e("ops_per_s", upper_quartile(rates), rates.size());
  r.e2e("latency_p50_ms", lower_quartile(p50s), commits);
  r.e2e("latency_p99_ms", lower_quartile(p99s), commits);
  r.e2e("setup_s", setup_s, kSetupRepeats);

  std::uint64_t ilp1 = 0, rescales1 = 0, gens1 = 0, weights_hash = 0;
  std::string bad_sum, mismatch;
  for (std::size_t v = 0; v < kVips; ++v) {
    const auto& c = coord.controller(v);
    ilp1 += c.ilp_runs();
    rescales1 += c.traffic_rescales() + c.capacity_rescales();
    auto& mux = fleet->mux(v);
    gens1 += mux.generations_published();
    double sum = 0.0;
    for (const double w : c.current_weights()) {
      sum += w;
      std::uint64_t bits = 0;
      std::memcpy(&bits, &w, sizeof bits);
      weights_hash = mix(weights_hash, bits);
    }
    if (std::abs(sum - 1.0) > 1e-3) bad_sum += std::to_string(v) + " ";
    const auto units = mux.weight_units();
    for (std::size_t k = 0; k < units.size(); ++k) {
      const auto cw = c.weight_of(mux.backend_addr(k));
      if (!cw || std::abs(*cw - util::units_to_weight(units[k])) > 2e-4)
        mismatch += std::to_string(v) + ":" + std::to_string(k) + " ";
      weights_hash = mix(weights_hash, static_cast<std::uint64_t>(units[k]));
    }
  }

  if (opt.trace) {
    r.entry_s = trace.prepare.seconds() + trace.solve.seconds() +
                trace.apply.seconds();
    r.layer("lb.commit_ms", trace.commit.ns_per_item() * 1e-6,
            trace.commit.calls);
    r.layer("lb.busy_frac", ratio(trace.commit.seconds(), window_s));
    r.layer("lb.generations_published", static_cast<double>(gens1 - gens0));
    r.layer("store.record_us", trace.record.ns_per_item() * 1e-3,
            trace.record.calls);
    r.layer("core.prepare_us", trace.prepare.ns_per_item() * 1e-3,
            trace.prepare.calls);
    r.layer("core.solve_ms", trace.solve.ns_per_item() * 1e-6,
            trace.solve.calls);
    r.layer("core.apply_self_ms",
            ratio(static_cast<double>(trace.apply.ns - trace.commit.ns) * 1e-6,
                  static_cast<double>(trace.apply.calls)),
            trace.apply.calls);
    r.layer("core.ilp_runs", static_cast<double>(ilp1 - ilp0));
    r.layer("core.rescales", static_cast<double>(rescales1 - rescales0));
    // The 30-DIP build every commit pays inside Mux::apply_program.
    std::vector<lb::MaglevEntry> entries;
    const auto units = fleet->mux(0).weight_units();
    for (std::size_t k = 0; k < units.size(); ++k)
      entries.push_back({fleet->mux(0).backend_addr(k).value(), units[k]});
    r.layer("lb.maglev_build_ms", maglev_build_ms(entries));
  }

  r.check("every dirty VIP committed in its round", r.failed == 0,
          std::to_string(r.failed) + " of " + std::to_string(r.attempted));
  r.check("weights sum to 1 per VIP", bad_sum.empty(), bad_sum);
  r.check("Mux weights match the controller per address", mismatch.empty(),
          mismatch);
  bool reclaimed = true;
  for (std::size_t v = 0; v < kVips; ++v) {
    fleet->mux(v).poll();
    reclaimed = reclaimed && generations_reclaimed(fleet->mux(v));
  }
  r.check("retired generations reclaimed", reclaimed);

  r.note("weights", weights_hash);
  r.note("ilp_runs", ilp1);
  r.note("rescales", rescales1);
  r.note("generations_published", gens1);
  r.note("commits", commits);
  return r;
}

}  // namespace klb::benchmark
