// Multi-VIP coordination (Fig. 6, §5).
//
// One KnapsackLB deployment serves many VIPs: a distinct ILP per VIP, all
// sharing one controller machine. §5: "For multiple VIPs, we prioritize
// ILP for VIPs with a change in the weight-latency curve for some DIP.
// The controller by default runs ILP for each VIP every 5 seconds."
//
// The coordinator owns one Controller per VIP and drives their rounds on
// a shared timer, on the sim thread like every other component. Each
// round has two phases:
//
//   1. prepare: every controller consumes samples and schedules
//      measurements — Controller::tick_prepare(), cheap. VIPs that want a
//      steady-state ILP recomputation are granted solver slots —
//      dirty-curve VIPs packed least-recently-granted first, so no VIP
//      starves;
//   2. solve→apply in ascending VIP order: each granted VIP's weights go
//      live as soon as its own solve is done, without waiting for any
//      later VIP's solve. The commit sequence therefore lists the granted
//      VIPs once each, in VIP order.
//
// The grant budget is `max_ilp_per_round`: the solver time of one
// controller core per round.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/controller.hpp"

namespace klb::core {

struct MultiVipConfig {
  util::SimTime round_interval = util::SimTime::seconds(10);
  /// ILP solve slots per round (the solver budget of one controller
  /// core). <= 0 = unlimited.
  int max_ilp_per_round = 4;
  ControllerConfig controller;  // template for every per-VIP controller
};

class MultiVipCoordinator {
 public:
  MultiVipCoordinator(sim::Simulation& sim, MultiVipConfig cfg = {})
      : sim_(sim), cfg_(cfg),
        timer_(sim, cfg.round_interval, [this] { tick(); }) {}

  /// Register a VIP with its DIPs, store, and dataplane programmer.
  /// Returns the VIP's index. Must be called before start().
  std::size_t add_vip(net::IpAddr vip, std::vector<net::IpAddr> dips,
                      store::LatencyStore& store, lb::PoolProgrammer& lb) {
    auto cc = cfg_.controller;
    cc.round_interval = cfg_.round_interval;
    vips_.push_back(std::make_unique<Controller>(sim_, vip, std::move(dips),
                                                 store, lb, cc));
    last_ilp_grant_.push_back(0);
    return vips_.size() - 1;
  }

  void start() {
    for (auto& v : vips_) v->start_managed();
    timer_.start();
  }
  void stop() { timer_.stop(); }

  /// One coordinated round (also callable directly from benches).
  void tick() {
    ++rounds_;

    // Phase 1 (serial): samples, lifecycle, measurement scheduling.
    std::vector<char> wants(vips_.size(), 0);
    for (std::size_t i = 0; i < vips_.size(); ++i)
      wants[i] = vips_[i]->tick_prepare() ? 1 : 0;

    // Grant solver slots to the VIPs that want a recomputation,
    // least-recently-granted first (FIFO among equally dirty VIPs, so no
    // VIP starves behind a persistently dirty neighbour).
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < vips_.size(); ++i)
      if (wants[i]) order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return last_ilp_grant_[a] < last_ilp_grant_[b];
                     });
    if (cfg_.max_ilp_per_round > 0 &&
        order.size() > static_cast<std::size_t>(cfg_.max_ilp_per_round))
      order.resize(static_cast<std::size_t>(cfg_.max_ilp_per_round));
    std::vector<char> granted(vips_.size(), 0);
    for (const auto i : order) {
      granted[i] = 1;
      last_ilp_grant_[i] = rounds_;
      ++ilp_grants_;
    }

    // Phase 2: solve→apply in VIP order.
    for (std::size_t i = 0; i < vips_.size(); ++i)
      if (granted[i]) vips_[i]->apply_ilp(vips_[i]->solve_ilp());
  }

  std::size_t vip_count() const { return vips_.size(); }
  Controller& controller(std::size_t i) { return *vips_[i]; }
  const Controller& controller(std::size_t i) const { return *vips_[i]; }
  std::uint64_t rounds_run() const { return rounds_; }
  /// Solver slots granted over the coordinator's lifetime.
  std::uint64_t ilp_grants() const { return ilp_grants_; }

  bool all_ready() const {
    for (const auto& v : vips_)
      if (!v->all_ready()) return false;
    return !vips_.empty();
  }

 private:
  sim::Simulation& sim_;
  MultiVipConfig cfg_;
  std::vector<std::unique_ptr<Controller>> vips_;
  std::vector<std::uint64_t> last_ilp_grant_;
  sim::PeriodicTimer timer_;
  std::uint64_t rounds_ = 0;
  std::uint64_t ilp_grants_ = 0;
};

}  // namespace klb::core
