// Dynamic noisy-neighbor scenario (§2.1 + §6.3 combined).
//
// Starts a healthy 4-DIP pool under KnapsackLB, then injects a sequence of
// live events while printing a timeline of weights and latency:
//
//   t0   healthy steady state
//   t1   a cache-thrashing neighbor cuts DIP-2's capacity to 55%
//   t2   the neighbor leaves (capacity restored)
//   t3   DIP-3 crashes outright
//   t4   DIP-3 comes back
//
// Demonstrates §4.5 end to end: per-DIP capacity rescaling, failure
// ejection, and recovery re-exploration — with no agents anywhere.
//
//   ./example_noisy_neighbor [--seed N]
#include <iostream>

#include "testbed/report.hpp"
#include "testbed/testbed.hpp"
#include "util/flags.hpp"

using namespace klb;
using namespace klb::util::literals;

namespace {

void snapshot(testbed::Testbed& bed, const std::string& label) {
  const auto metrics = bed.metrics();
  std::cout << "\n[" << bed.sim().now().str() << "] " << label << "\n";
  testbed::Table table({"DIP", "weight", "CPU", "latency (ms)", "phase"});
  const auto* ctrl = bed.controller();
  auto phase_name = [&](std::size_t i) {
    switch (ctrl->phase(i)) {
      case core::Controller::DipPhase::kNeedL0:
        return "l0";
      case core::Controller::DipPhase::kExploring:
        return "exploring";
      case core::Controller::DipPhase::kReady:
        return "ready";
      case core::Controller::DipPhase::kFailed:
        return "FAILED";
    }
    return "?";
  };
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    table.row({m.addr.str(), testbed::fmt(m.weight, 3),
               testbed::fmt_pct(m.cpu_utilization),
               testbed::fmt(m.client_latency_ms), phase_name(i)});
  }
  table.print();
  std::cout << "rescales: " << ctrl->capacity_rescales() << " capacity, "
            << ctrl->traffic_rescales() << " traffic; failures: "
            << ctrl->failures_detected() << "\n";
  bed.reset_stats();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);

  testbed::TestbedConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));
  flags.exit_on_unknown();
  cfg.policy = "wrr";
  cfg.use_knapsacklb = true;
  cfg.requests_per_session = 1.0;
  cfg.closed_loop_factor = 20.0;
  cfg.dip.backlog_per_core = 24;

  std::vector<testbed::DipSpec> specs(4, testbed::DipSpec{server::kDs1v2, 1.0, 0.0});
  testbed::Testbed bed(specs, cfg);

  std::cout << "Noisy-neighbor timeline on a 4-DIP pool under KnapsackLB\n"
            << "offered load: " << testbed::fmt(bed.offered_rps(), 0)
            << " rps (70% of healthy capacity)\n";

  std::cout << "\nlearning weight-latency curves..." << std::flush;
  const bool ready = bed.run_until_ready(util::SimTime::minutes(15));
  std::cout << (ready ? " done" : " TIMED OUT") << "\n";
  bed.run_for(30_s);
  bed.reset_stats();
  bed.run_for(30_s);
  snapshot(bed, "healthy steady state");

  bed.dip(1).set_capacity_factor(0.55);
  std::cout << "\n>>> noisy neighbor lands on DIP-2 (capacity -> 55%)";
  bed.run_for(util::SimTime::minutes(3));
  snapshot(bed, "after capacity-change adaptation");

  bed.dip(1).set_capacity_factor(1.0);
  std::cout << "\n>>> neighbor leaves DIP-2 (capacity restored)";
  bed.run_for(util::SimTime::minutes(3));
  snapshot(bed, "after recovery adaptation");

  bed.dip(2).set_alive(false);
  std::cout << "\n>>> DIP-3 crashes";
  bed.run_for(util::SimTime::minutes(1));
  snapshot(bed, "after failure ejection");

  bed.dip(2).set_alive(true);
  std::cout << "\n>>> DIP-3 returns (will re-explore from scratch)";
  bed.run_for(util::SimTime::minutes(6));
  snapshot(bed, "after rejoin");

  std::cout << "\nThe controller adapted to every event using only "
               "latency probes —\nno CPU counters, no DIP agents.\n";
  return 0;
}
