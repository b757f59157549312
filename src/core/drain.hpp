// Drain-time estimation (§4.7).
//
// After reprogramming weights, old connections pinned by affinity keep
// loading a DIP, clouding the latency impact of the change. KnapsackLB
// measures how long that influence lasts with an extreme experiment:
//
//   1. drive one DIP's weight high until its latency is clearly elevated,
//   2. set the weight to 0 (T1) so no new connections arrive,
//   3. keep probing until latency returns to ~l0 (T2),
//   4. drain time = T2 - T1.
//
// The paper refreshes this every 120 minutes; the estimator is a one-shot
// procedure the operator (or an example binary) runs against a live pool.
// It only uses the weight interface and the latency store — no agents.
#pragma once

#include <functional>
#include <optional>

#include "lb/lb_controller.hpp"
#include "sim/simulation.hpp"
#include "store/latency_store.hpp"

namespace klb::core {

struct DrainEstimatorConfig {
  /// Weight applied during the loading phase.
  double high_weight = 0.5;
  /// Loading phase ends when latency >= this multiple of l0 (or after
  /// max_load_time).
  double elevated_factor = 2.0;
  util::SimTime max_load_time = util::SimTime::seconds(60);
  /// Latency counts as recovered at <= this multiple of l0.
  double recovered_factor = 1.15;
  util::SimTime poll_interval = util::SimTime::seconds(1);
  util::SimTime max_drain_time = util::SimTime::seconds(120);
};

class DrainEstimator {
 public:
  using DoneFn = std::function<void(std::optional<util::SimTime>)>;

  DrainEstimator(sim::Simulation& sim, net::IpAddr vip,
                 store::LatencyStore& store, lb::PoolProgrammer& lb,
                 DrainEstimatorConfig cfg = {})
      : sim_(sim), vip_(vip), store_(store), lb_(lb), cfg_(cfg), polls_(sim) {}

  /// Measure the drain time of `dip` (programs are keyed by its address;
  /// `dip_index` is kept for call-site compatibility but unused). `l0_ms`
  /// is its unloaded latency. The pool's other weights are scaled to
  /// absorb 1 - w during the procedure. Calls `done` with the estimate
  /// (nullopt on timeout).
  void run(net::IpAddr dip, std::size_t dip_index, double l0_ms, DoneFn done);

  bool running() const { return running_; }

 private:
  void poll_loading();
  void poll_draining();
  void set_target_weight(double w);
  std::optional<double> fresh_latency() const;
  void finish(std::optional<util::SimTime> result);

  sim::Simulation& sim_;
  net::IpAddr vip_;
  store::LatencyStore& store_;
  lb::PoolProgrammer& lb_;
  DrainEstimatorConfig cfg_;

  bool running_ = false;
  net::IpAddr dip_;
  std::size_t dip_index_ = 0;
  double l0_ms_ = 0.0;
  DoneFn done_;
  util::SimTime phase_started_ = util::SimTime::zero();
  util::SimTime t1_ = util::SimTime::zero();
  util::SimTime last_seen_sample_ = util::SimTime::zero();
  // Last member: destroying the estimator mid-run cancels its next poll.
  sim::EventScope polls_;
};

}  // namespace klb::core
