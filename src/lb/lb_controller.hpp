// The existing LB's control plane (HAProxy runtime API / Ananta controller
// in Fig. 6). KnapsackLB talks to this interface only — it never touches
// the MUXes. Programming is asynchronous: a transaction reaches the
// dataplane after `programming_delay`, which is one of the two delays
// §4.7's drain-time logic has to absorb (the other is connection
// draining).
#pragma once

#include <cstdint>
#include <vector>

#include "lb/pool_program.hpp"
#include "sim/simulation.hpp"
#include "util/time.hpp"

namespace klb::lb {

/// Delay decorator over any dataplane: the controller hands a whole-pool
/// transaction to the LB, and the LB commits it `programming_delay` later
/// — membership, weights, and lifecycle land together, so the delay covers
/// one transaction instead of N racing ops. Supersession needs no
/// bookkeeping here: the dataplane's version check discards any
/// transaction older than the newest it has committed, even if delivery
/// reorders.
class LbController : public PoolProgrammer {
 public:
  LbController(sim::Simulation& sim, PoolProgrammer& dataplane,
               util::SimTime programming_delay = util::SimTime::millis(200))
      : dataplane_(dataplane), delay_(programming_delay), in_flight_(sim) {}

  std::size_t backend_count() const override {
    return dataplane_.backend_count();
  }

  std::vector<net::IpAddr> backend_addrs() const override {
    return dataplane_.backend_addrs();
  }

  void apply_program(const PoolProgram& program) override {
    in_flight_.schedule_in(delay_, [this, program] {
      dataplane_.apply_program(program);
    });
  }

  /// Versions are drawn from the dataplane's sequence: programs issued
  /// around the decorator (tests, a second controller) and through it
  /// stay totally ordered.
  std::uint64_t issue_version() override { return dataplane_.issue_version(); }

  /// Maintenance passes straight through — deferred drain completion and
  /// generation reclamation happen in the dataplane, not in the delay
  /// decorator.
  void poll() override { dataplane_.poll(); }

  util::SimTime programming_delay() const { return delay_; }
  PoolProgrammer& dataplane() { return dataplane_; }

 private:
  PoolProgrammer& dataplane_;
  util::SimTime delay_;
  /// Programs still inside their delay, dropped if the controller goes
  /// away first.
  sim::EventScope in_flight_;
};

}  // namespace klb::lb
