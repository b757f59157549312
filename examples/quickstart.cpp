// Quickstart: KnapsackLB on a 3-DIP pool with one degraded backend.
//
// Builds the §2.1 scenario — two healthy 1-core DIPs and one noisy-
// neighbor victim at 60% capacity — runs round-robin first, then lets
// KnapsackLB learn weight-latency curves and program latency-optimal
// weights, printing the before/after per-DIP CPU and latency.
//
//   ./example_quickstart [--seed N] [--capacity 0.6] [--verbose]
#include <iostream>

#include "testbed/report.hpp"
#include "testbed/testbed.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

using namespace klb;

namespace {

void print_pool(testbed::Testbed& bed, const std::string& title) {
  testbed::banner(title);
  testbed::Table table({"DIP", "capacity", "weight", "CPU util", "latency (ms)",
                        "requests"});
  const auto metrics = bed.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    table.row({m.addr.str(), testbed::fmt(bed.dip(i).capacity_factor(), 2),
               testbed::fmt(m.weight, 3), testbed::fmt_pct(m.cpu_utilization),
               testbed::fmt(m.client_latency_ms),
               std::to_string(m.client_requests)});
  }
  table.print();
  std::cout << "overall mean latency: " << testbed::fmt(bed.overall_latency_ms())
            << " ms, P99: " << testbed::fmt(bed.overall_p99_ms()) << " ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const double lc_capacity = flags.get_double("capacity", 0.6);
  if (flags.get_bool("verbose"))
    util::set_log_threshold(util::LogLevel::kInfo);
  flags.exit_on_unknown();

  std::cout << "KnapsackLB quickstart (seed " << seed << ")\n"
            << "Pool: 2x healthy 1-core DIPs + 1 DIP at "
            << testbed::fmt_pct(lc_capacity, 0) << " capacity\n";

  // --- Baseline: plain round robin -------------------------------------------
  {
    testbed::TestbedConfig cfg;
    cfg.seed = seed;
    cfg.policy = "rr";
    cfg.load_fraction = 0.70;
    testbed::Testbed bed(testbed::three_dip_specs(1.0, 1.0, lc_capacity), cfg);
    bed.run_for(util::SimTime::seconds(20));  // warmup
    bed.reset_stats();
    bed.run_for(util::SimTime::seconds(30));
    print_pool(bed, "Round robin (HAProxy default)");
  }

  // --- KnapsackLB -------------------------------------------------------------
  {
    testbed::TestbedConfig cfg;
    cfg.seed = seed;
    cfg.policy = "wrr";  // weight interface for KnapsackLB
    cfg.load_fraction = 0.70;
    cfg.use_knapsacklb = true;
    testbed::Testbed bed(testbed::three_dip_specs(1.0, 1.0, lc_capacity), cfg);

    std::cout << "\nKnapsackLB exploring weight-latency curves..." << std::flush;
    const bool ready = bed.run_until_ready(util::SimTime::minutes(10));
    std::cout << (ready ? " done" : " TIMED OUT") << " at t="
              << bed.sim().now().str() << "\n";
    for (std::size_t i = 0; i < bed.dip_count(); ++i) {
      const auto& ex = bed.controller()->explorer(i);
      std::cout << "  DIP " << bed.dip(i).address().str() << ": l0="
                << testbed::fmt(ex.l0_ms()) << " ms, wmax="
                << testbed::fmt(ex.wmax(), 3) << ", iterations="
                << ex.iterations() << "\n";
      if (flags.get_bool("verbose")) {
        for (const auto& pt : ex.history())
          std::cout << "      w=" << testbed::fmt(pt.weight, 3) << " -> "
                    << testbed::fmt(pt.latency_ms) << " ms"
                    << (pt.dropped ? " [drop]" : "") << "\n";
      }
    }

    bed.run_for(util::SimTime::seconds(30));  // settle on ILP weights
    bed.reset_stats();
    bed.run_for(util::SimTime::seconds(30));
    print_pool(bed, "KnapsackLB");
  }

  std::cout << "\nKnapsackLB shifts load off the degraded DIP until CPU and\n"
               "latency even out — the knapsack objective of Fig. 7.\n";
  return 0;
}
