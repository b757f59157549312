// Multi-VIP coordination (Fig. 6, §5).
//
// One KnapsackLB deployment serves many VIPs: a distinct ILP per VIP, all
// sharing one controller machine. §5: "For multiple VIPs, we prioritize
// ILP for VIPs with a change in the weight-latency curve for some DIP.
// The controller by default runs ILP for each VIP every 5 seconds."
//
// The coordinator owns one Controller per VIP and drives their rounds on
// a shared timer. Each round has two phases:
//
//   1. prepare (serial, sim thread): every controller consumes samples and
//      schedules measurements — Controller::tick_prepare(), cheap. VIPs
//      that want a steady-state ILP recomputation are granted solver
//      slots — dirty-curve VIPs packed least-recently-granted first, so no
//      VIP starves;
//   2. solve→apply, pipelined in ascending VIP order: each granted VIP's
//      weights go live (Controller::apply_ilp, sim thread) as soon as its
//      own solve (Controller::solve_ilp, pure compute) is done, without
//      waiting for any later VIP's solve. Serially that is
//      apply_ilp(solve_ilp()) per VIP; with a SolverPool every solve is
//      submitted first, and the sim thread applies VIP i once job i has
//      finished while the workers solve the rest. Either way the applies
//      run in VIP order, so the commit sequence and the weights are
//      bit-identical to a serial run regardless of worker scheduling.
//
// The grant budget is `max_ilp_per_round` per worker thread: the slot
// budget models one solver core's round capacity, and adding workers
// scales the round's solve throughput accordingly.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "core/solver_pool.hpp"

namespace klb::core {

struct MultiVipConfig {
  util::SimTime round_interval = util::SimTime::seconds(10);
  /// ILP solve slots per round *per solver thread* (the solver budget of
  /// one controller core). 0 = unlimited.
  int max_ilp_per_round = 4;
  /// Solver pool width. 0 = hardware_concurrency; 1 = serial (solves run
  /// inline on the sim thread, no pool is created).
  int solver_threads = 1;
  ControllerConfig controller;  // template for every per-VIP controller
};

class MultiVipCoordinator {
 public:
  MultiVipCoordinator(sim::Simulation& sim, MultiVipConfig cfg = {})
      : sim_(sim), cfg_(cfg),
        timer_(sim, cfg.round_interval, [this] { tick(); }) {
    if (cfg_.solver_threads != 1)
      pool_ = std::make_unique<SolverPool>(cfg_.solver_threads);
  }

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
    int budget = slot_budget();
    std::vector<char> granted(vips_.size(), 0);
    for (const auto i : order) {
      if (budget == 0) break;  // negative = unlimited
      granted[i] = 1;
      last_ilp_grant_[i] = rounds_;
      ++ilp_grants_;
      if (budget > 0) --budget;
    }

    // Phase 2: solve→apply in VIP order. Serially each VIP solves and
    // applies in turn; pooled, every solve is in flight first and VIP i
    // applies as soon as its own job is done, while workers solve the rest.
    if (!pool_) {
      for (std::size_t i = 0; i < vips_.size(); ++i)
        if (granted[i]) vips_[i]->apply_ilp(vips_[i]->solve_ilp());
      return;
    }
    std::vector<Controller::IlpSolveOutcome> outcomes(vips_.size());
    std::vector<SolverPool::Ticket> tickets(vips_.size());
    for (std::size_t i = 0; i < vips_.size(); ++i) {
      if (!granted[i]) continue;
      auto* vip = vips_[i].get();
      auto* slot = &outcomes[i];
      tickets[i] = pool_->submit([vip, slot] { *slot = vip->solve_ilp(); });
    }
    for (std::size_t i = 0; i < vips_.size(); ++i) {
      if (!granted[i]) continue;
      pool_->wait(tickets[i]);
      vips_[i]->apply_ilp(outcomes[i]);
    }
  }

  std::size_t vip_count() const { return vips_.size(); }
  Controller& controller(std::size_t i) { return *vips_[i]; }
  const Controller& controller(std::size_t i) const { return *vips_[i]; }
  std::uint64_t rounds_run() const { return rounds_; }
  /// Solver slots granted over the coordinator's lifetime.
  std::uint64_t ilp_grants() const { return ilp_grants_; }
  std::size_t solver_threads() const { return pool_ ? pool_->thread_count() : 1; }
  /// Effective ILP grant budget per round (negative = unlimited).
  int slot_budget() const {
    if (cfg_.max_ilp_per_round <= 0) return -1;
    return cfg_.max_ilp_per_round * static_cast<int>(solver_threads());
  }

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
  std::unique_ptr<SolverPool> pool_;
  sim::PeriodicTimer timer_;
  std::uint64_t rounds_ = 0;
  std::uint64_t ilp_grants_ = 0;
};

}  // namespace klb::core
