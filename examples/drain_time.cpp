// §4.7: measuring the drain time of a DIP — how long after a weight
// change old connections keep clouding its latency.
//
// Uses long sessions (8 requests per connection) so connection affinity
// matters, then runs the DrainEstimator's extreme-weight procedure: load
// the DIP, cut its weight to 0, and time latency recovery to ~l0.
//
//   ./example_drain_time [--seed N] [--requests_per_session K]
#include <iostream>

#include "core/drain.hpp"
#include "testbed/report.hpp"
#include "testbed/testbed.hpp"
#include "util/flags.hpp"

using namespace klb;
using namespace klb::util::literals;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);

  testbed::TestbedConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 21));
  cfg.policy = "wrr";
  cfg.requests_per_session = flags.get_double("requests_per_session", 8.0);
  flags.exit_on_unknown();
  cfg.load_fraction = 0.55;
  testbed::Testbed bed(testbed::three_dip_specs(1.0, 1.0, 1.0), cfg);

  std::cout << "Drain-time estimation (§4.7) with "
            << cfg.requests_per_session << " requests/connection\n";

  // Settle, then measure l0 for DIP-1 by observation at low weight.
  bed.run_for(10_s);
  bed.set_static_weights({0.0, 0.5, 0.5});
  bed.run_for(10_s);
  const auto l0_sample =
      bed.latency_store().latest(bed.vip(), bed.dip(0).address());
  const double l0 = l0_sample ? l0_sample->avg_latency_ms : 3.5;
  std::cout << "l0 (weight 0) = " << testbed::fmt(l0) << " ms\n";
  bed.set_static_weights({1.0, 1.0, 1.0});
  bed.run_for(5_s);

  core::DrainEstimatorConfig dcfg;
  dcfg.high_weight = 0.75;
  core::DrainEstimator estimator(bed.sim(), bed.vip(), bed.latency_store(),
                                 bed.lb_controller(), dcfg);

  std::optional<util::SimTime> drain;
  bool finished = false;
  estimator.run(bed.dip(0).address(), 0, l0,
                [&](std::optional<util::SimTime> result) {
                  drain = result;
                  finished = true;
                });
  while (!finished) bed.run_for(1_s);

  if (drain) {
    std::cout << "measured drain time: " << drain->str() << "\n"
              << "The controller's drain allowance must exceed this before "
                 "trusting samples\nafter a weight change (default 4 s).\n";
  } else {
    std::cout << "drain estimation did not complete (latency never "
                 "elevated or never recovered)\n";
  }
  return 0;
}
