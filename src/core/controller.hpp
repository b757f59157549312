// The KnapsackLB controller (Fig. 6): one instance per VIP.
//
// A periodic round loop (default 10 s — the paper's scheduler round) that:
//
//   1. pulls fresh KLM samples from the latency store (samples taken
//      before the last weight programming settled are discarded: §4.7's
//      drain consideration),
//   2. advances each DIP's lifecycle:
//        NeedL0 -> Exploring -> Ready   (and Failed on probe blackouts)
//      NeedL0 DIPs are parked at weight 0 so their direct-probe sample *is*
//      l0 ("we measure l0 ... by setting its weight to 0", §4.3);
//      Exploring DIPs run Algorithm 1; finished explorations are curve-fit,
//   3. packs measurement requests into the round via the §4.6 scheduler,
//   4. in steady state runs the Fig. 7 ILP (multi-step per §4.4) whenever
//      a curve changed, programs weights through the LB's existing weight
//      interface (never touching MUXes/DIPs/clients),
//   5. watches for §4.5 dynamics: traffic-wide or per-DIP latency drift
//      (curve rescale + ILP rerun), failures (drop the DIP, rerun), and
//      periodic curve refreshes capped at `refresh_capacity_fraction` of
//      the pool.
//
// Everything the controller knows arrives through the latency store; it
// holds no handles to servers or MUX internals.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dynamics.hpp"
#include "core/explorer.hpp"
#include "core/ilp_weights.hpp"
#include "core/scheduler.hpp"
#include "lb/lb_controller.hpp"
#include "sim/simulation.hpp"
#include "store/latency_store.hpp"

namespace klb::core {

struct ControllerConfig {
  util::SimTime round_interval = util::SimTime::seconds(10);
  /// Samples younger than last programming + this are not trusted
  /// (programming delay + connection draining, §4.7). Can be replaced by a
  /// measured value from DrainEstimator.
  util::SimTime drain_allowance = util::SimTime::seconds(4);
  ExplorerConfig explorer;
  /// The controller defaults to the MCKP fast path (the paper's §5
  /// "sped-up" ILP); a finite theta silently switches back to B&B.
  IlpWeightsConfig ilp = [] {
    IlpWeightsConfig c;
    c.backend = IlpBackend::kMckpDp;
    return c;
  }();
  DynamicsConfig dynamics;
  /// Fraction of total capacity allowed to refresh simultaneously (§4.5).
  double refresh_capacity_fraction = 0.05;
  /// Re-explore a DIP's curve this long after it was fitted; zero = never.
  /// On by default: refresh is the paper's defence against curve drift
  /// (and our rescale clamps rely on it to pick up large real changes).
  util::SimTime refresh_interval = util::SimTime::minutes(4);
  /// A DIP whose latest sample latency exceeds this multiple of its l0 is
  /// scheduled in the overloaded priority class.
  double overload_latency_factor = 3.0;
};

class Controller {
 public:
  enum class DipPhase { kNeedL0, kExploring, kReady, kFailed };

  Controller(sim::Simulation& sim, net::IpAddr vip,
             std::vector<net::IpAddr> dips, store::LatencyStore& store,
             lb::PoolProgrammer& lb, ControllerConfig cfg = {});

  void start();
  void stop();

  /// Program the bootstrap weights without starting the round timer — for
  /// an external coordinator (MultiVipCoordinator) that drives rounds.
  void start_managed();

  /// Run one controller round: the round timer's callback. A coordinator
  /// drives the phases below instead, granting the ILP per VIP.
  void tick();

  /// Result of the pure ILP compute, handed between solve_ilp() and
  /// apply_ilp() so a caller can time the two phases apart.
  struct IlpSolveOutcome {
    bool attempted = false;          // false: no ready curves this round
    std::vector<std::size_t> index;  // DIP index per solved curve
    IlpWeightsResult result;
  };

  /// Phase 1 of a round (cheap, sim thread): consume samples, advance DIP
  /// lifecycles, schedule measurements or classify dynamics. Returns true
  /// when the VIP wants a steady-state ILP solve (steady state + dirty).
  /// tick() is `if (tick_prepare()) apply_ilp(solve_ilp());`.
  bool tick_prepare();

  /// Phase 2, solve (expensive): run the Fig. 7 ILP over the current
  /// ready curves. Pure compute — mutates nothing, so a traced driver can
  /// time it apart from the apply.
  IlpSolveOutcome solve_ilp() const;

  /// Phase 2, apply: program the solved weights, update counters, clear
  /// the dirty flag.
  void apply_ilp(const IlpSolveOutcome& outcome);

  /// A curve changed and the steady-state ILP has not rerun yet.
  bool ilp_dirty() const { return ilp_dirty_; }

  // --- inspection -----------------------------------------------------------
  std::size_t dip_count() const { return dips_.size(); }
  net::IpAddr dip_addr(std::size_t i) const { return dips_[i].addr; }
  DipPhase phase(std::size_t i) const { return dips_[i].phase; }
  /// Index currently tracking `addr` — pool churn shifts indices, so
  /// anything keeping a long-lived handle to a DIP must key by address.
  std::optional<std::size_t> index_of(net::IpAddr addr) const;
  /// The last programmed weight for `addr` (the controller's per-address
  /// view; nullopt for an address it does not track).
  std::optional<double> weight_of(net::IpAddr addr) const;
  bool all_ready() const;
  const std::vector<double>& current_weights() const { return weights_; }
  const WeightExplorer& explorer(std::size_t i) const {
    return dips_[i].explorer;
  }
  const fit::WeightLatencyCurve& curve(std::size_t i) const {
    return dips_[i].curve;
  }

  std::uint64_t rounds_run() const { return rounds_; }
  std::uint64_t ilp_runs() const { return ilp_runs_; }
  std::uint64_t traffic_rescales() const { return traffic_rescales_; }
  std::uint64_t capacity_rescales() const { return capacity_rescales_; }
  std::uint64_t failures_detected() const { return failures_; }
  std::chrono::microseconds last_ilp_elapsed() const {
    return last_ilp_elapsed_;
  }

  /// Force an ILP recomputation on the next round (tests/benches).
  void mark_dirty() { ilp_dirty_ = true; }

  // --- pool churn (§6's capacity-change scenario as a first-class op) -------

  /// Scale-out: append a DIP to this VIP's pool and to the LB. The DIP
  /// enters the NeedL0 lifecycle (or call inject_ready_curve for synthetic
  /// pools). Returns the new DIP's index.
  std::size_t add_dip(net::IpAddr addr);

  /// Scale-in: remove DIP `i` from the pool. The leaver is programmed
  /// kDraining in the same transaction that reweights the survivors — the
  /// dataplane parks it, serves its pinned flows out, and auto-completes
  /// the removal when the last one drains (no manual weight-0 + wait +
  /// remove sequencing). Surviving DIPs keep their state and the ILP
  /// reruns over the smaller pool. Returns false for an out-of-range
  /// index.
  bool remove_dip(std::size_t i);

  /// Abrupt failure reported out-of-band (an ops/health feed, faster than
  /// waiting for a §4.5 probe blackout): the DIP is dropped from rotation
  /// and the ILP reruns, exactly like the sample-driven failure path.
  void mark_failed(std::size_t i);

  /// Install a pre-fitted curve and mark the DIP Ready, bypassing
  /// exploration (fleet-scale benches and coordinator tests build synthetic
  /// pools this way). Marks the ILP dirty like a real curve change.
  void inject_ready_curve(std::size_t i, fit::WeightLatencyCurve curve);

 private:
  struct DipState {
    net::IpAddr addr;
    DipPhase phase = DipPhase::kNeedL0;
    WeightExplorer explorer;
    fit::WeightLatencyCurve curve;
    bool awaiting_measurement = false;  // scheduled at the explorer's weight
    double scheduled_weight = 0.0;
    util::SimTime last_sample_at = util::SimTime::zero();
    util::SimTime curve_built_at = util::SimTime::zero();
    std::uint64_t request_seq = 0;
    double last_latency_ms = 0.0;
    int deviation_streak = 0;       // consecutive capacity-deviation rounds
    double pending_delta = 1.0;     // last proposed rescale factor
  };

  void process_samples();
  void handle_sample(std::size_t i, const store::LatencySample& sample);
  void run_measurement_round();
  void apply_dynamics();
  void maybe_refresh();
  /// Emit one whole-pool transaction: every DIP the controller tracks,
  /// with `weights` normalized to grid units (plus `extra`, if any —
  /// remove_dip appends the leaver as a kDraining entry).
  void program(const std::vector<double>& weights,
               const std::vector<lb::PoolEntry>& extra = {});
  double equal_share() const;
  std::size_t alive_count() const;

  sim::Simulation& sim_;
  net::IpAddr vip_;
  store::LatencyStore& store_;
  lb::PoolProgrammer& lb_;
  ControllerConfig cfg_;

  std::vector<DipState> dips_;
  std::vector<double> weights_;  // last programmed weights
  util::SimTime last_program_at_ = util::SimTime::zero();
  bool ilp_dirty_ = true;
  std::uint64_t seq_counter_ = 0;
  int traffic_streak_ = 0;
  double pending_traffic_delta_ = 1.0;

  MeasurementScheduler scheduler_;
  IlpWeights ilp_;
  DynamicsDetector dynamics_;
  sim::PeriodicTimer timer_;

  std::uint64_t rounds_ = 0;
  std::uint64_t ilp_runs_ = 0;
  std::uint64_t traffic_rescales_ = 0;
  std::uint64_t capacity_rescales_ = 0;
  std::uint64_t failures_ = 0;
  std::chrono::microseconds last_ilp_elapsed_{0};
};

}  // namespace klb::core
