// A synthetic multi-VIP control-plane fleet (§5 at scale, no dataplane).
//
// Fig. 8 / Tab. 6 benchmark one ILP at growing DIP counts; the fleet
// fixture does the same for the *coordinator*: V VIPs x D DIPs, every DIP
// Ready with an injected synthetic curve, weights programmed into a sink.
// That isolates exactly the work the controller VM does per round —
// sample scan + ILP solves — so the coordinator and churn tests check
// grant policy and weights without simulating traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/multi_vip.hpp"
#include "store/latency_store.hpp"
#include "testbed/synthetic.hpp"
#include "util/rng.hpp"

namespace klb::testbed {

/// PoolProgrammer that records transactions and drives no dataplane.
/// Mirrors the MUX's contract: a stale transaction (version <= the last
/// committed one) is discarded whole and counted, so churn tests catch
/// ordering races; with no pinned flows, a kDraining entry completes to
/// removed immediately.
class SinkDataplane : public lb::PoolProgrammer {
 public:
  explicit SinkDataplane(std::vector<net::IpAddr> dips) {
    for (const auto dip : dips)
      backends_.push_back(Backend{dip, 0});
  }

  std::size_t backend_count() const override { return backends_.size(); }
  std::vector<net::IpAddr> backend_addrs() const override {
    std::vector<net::IpAddr> out;
    for (const auto& b : backends_) out.push_back(b.addr);
    return out;
  }

  void apply_program(const lb::PoolProgram& program) override {
    if (program.version <= applied_version_) {
      ++superseded_;
      return;
    }
    applied_version_ = program.version;
    if (program.weights_only) {
      for (const auto& e : program.entries)
        for (auto& b : backends_)
          if (b.addr == e.dip && e.state == lb::BackendState::kActive)
            b.weight_units = e.weight_units < 0 ? 0 : e.weight_units;
    } else {
      backends_.clear();
      for (const auto& e : program.entries)
        if (e.state == lb::BackendState::kActive)
          backends_.push_back(
              Backend{e.dip, e.weight_units < 0 ? 0 : e.weight_units});
    }
    last_units_.clear();
    for (const auto& b : backends_) last_units_.push_back(b.weight_units);
    ++programs_;
  }

  const std::vector<std::int64_t>& last_units() const { return last_units_; }
  std::uint64_t programs() const { return programs_; }
  std::uint64_t applied_version() const { return applied_version_; }
  std::uint64_t superseded_programs() const { return superseded_; }

 private:
  struct Backend {
    net::IpAddr addr;
    std::int64_t weight_units = 0;
  };

  std::vector<Backend> backends_;
  std::vector<std::int64_t> last_units_;
  std::uint64_t applied_version_ = 0;
  std::uint64_t programs_ = 0;
  std::uint64_t superseded_ = 0;
};

class SyntheticFleet {
 public:
  /// Build `vips` VIPs of `dips` DIPs each. Curve shapes (wmax, l0) are
  /// drawn from Rng(seed), so two fleets with equal (vips, dips, seed)
  /// hold identical curves regardless of `cfg`. Curve refresh is
  /// disabled: the fixture has no KLM feeding samples, so a refresh could
  /// never finish.
  SyntheticFleet(std::size_t vips, std::size_t dips, core::MultiVipConfig cfg,
                 std::uint64_t seed = 1)
      : round_interval_(cfg.round_interval),
        engine_(std::make_shared<store::KvEngine>([this] { return sim_.now(); })),
        store_(engine_) {
    cfg.controller.refresh_interval = util::SimTime::zero();
    coord_ = std::make_unique<core::MultiVipCoordinator>(sim_, cfg);

    util::Rng rng(seed);
    for (std::size_t v = 0; v < vips; ++v) {
      const auto vip = net::IpAddr(static_cast<std::uint32_t>(0x0a000001 + v));
      std::vector<net::IpAddr> addrs;
      for (std::size_t d = 0; d < dips; ++d)
        addrs.push_back(
            net::IpAddr(static_cast<std::uint32_t>(0x0a800000 + (v << 8) + d)));
      lbs_.push_back(std::make_unique<SinkDataplane>(addrs));
      const auto idx = coord_->add_vip(vip, addrs, store_, *lbs_.back());
      // Heterogeneous pool: per-DIP capacity 0.5-2x the fair share, total
      // capacity ~1.25x the VIP's demand so the ILP stays feasible.
      auto& ctl = coord_->controller(idx);
      const double base = 1.25 / static_cast<double>(dips);
      for (std::size_t d = 0; d < dips; ++d) {
        const double wmax = base * (0.5 + 1.5 * rng.uniform());
        const double l0 = 1.0 + 2.0 * rng.uniform();
        ctl.inject_ready_curve(d, synthetic_curve(wmax, l0));
      }
    }
  }

  sim::Simulation& sim() { return sim_; }
  core::MultiVipCoordinator& coordinator() { return *coord_; }
  SinkDataplane& lb(std::size_t v) { return *lbs_[v]; }

  void mark_all_dirty() {
    for (std::size_t v = 0; v < coord_->vip_count(); ++v)
      coord_->controller(v).mark_dirty();
  }

  // --- pool churn (the §6 capacity-change scenario, fleet-scale) ------------

  /// Scale-out: add a DIP with a synthetic Ready curve to VIP `v` mid-run.
  /// Returns the new DIP's index on that VIP's controller.
  std::size_t scale_out(std::size_t v, double wmax, double l0 = 1.5) {
    auto& ctl = coord_->controller(v);
    const auto addr =
        net::IpAddr(static_cast<std::uint32_t>(0x0ac00000 + (v << 12)) +
                    next_addr_++);
    const auto idx = ctl.add_dip(addr);
    ctl.inject_ready_curve(idx, synthetic_curve(wmax, l0));
    return idx;
  }

  /// Scale-in: remove DIP `d` from VIP `v` mid-run.
  void scale_in(std::size_t v, std::size_t d) {
    coord_->controller(v).remove_dip(d);
  }

  /// Abrupt DIP failure mid-round (ops-feed report).
  void fail_dip(std::size_t v, std::size_t d) {
    coord_->controller(v).mark_failed(d);
  }

  /// Advance virtual time one round interval, then run a coordinated
  /// round. Driving tick() with a frozen clock would feed the dynamics
  /// detector never-stale zero-latency observations (the fixture records
  /// no samples), so rounds must move time like the real timer does.
  void tick_round() {
    sim_.run_for(round_interval_);
    coord_->tick();
  }

 private:
  sim::Simulation sim_{1};
  util::SimTime round_interval_;
  std::shared_ptr<store::KvEngine> engine_;
  store::LatencyStore store_;
  std::vector<std::unique_ptr<SinkDataplane>> lbs_;
  std::unique_ptr<core::MultiVipCoordinator> coord_;
  std::uint32_t next_addr_ = 1;  // scale-out DIPs get addresses of their own
};

}  // namespace klb::testbed
