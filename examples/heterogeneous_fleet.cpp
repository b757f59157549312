// The paper's headline scenario: a heterogeneous 30-DIP fleet (Table 3 —
// 16x 1-core, 8x 2-core, 4x 4-core, 2x 8-core-F) where the operator
// plugged in whatever VMs were available (§2.2: clouds run out of the VM
// type you want). KnapsackLB discovers each DIP's capacity from latency
// alone and packs load to minimize total latency.
//
//   ./example_heterogeneous_fleet [--seed N] [--baseline rr|lc|wrr]
#include <iostream>

#include "testbed/report.hpp"
#include "testbed/testbed.hpp"
#include "util/flags.hpp"
#include "util/weight.hpp"

using namespace klb;
using namespace klb::util::literals;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 8));
  const std::string baseline = flags.get("baseline", "rr");
  flags.exit_on_unknown();

  auto make_cfg = [&](bool klb) {
    testbed::TestbedConfig cfg;
    cfg.seed = seed;
    cfg.policy = klb ? "wrr" : baseline;
    cfg.use_knapsacklb = klb;
    cfg.requests_per_session = 1.0;
    cfg.closed_loop_factor = 20.0;
    cfg.dip.backlog_per_core = 24;
    return cfg;
  };

  std::cout << "Heterogeneous 30-DIP fleet (Table 3), baseline: " << baseline
            << "\n";

  double base_mean = 0.0;
  double base_p99 = 0.0;
  {
    testbed::Testbed bed(testbed::table3_specs(), make_cfg(false));
    bed.run_for(20_s);
    bed.reset_stats();
    bed.run_for(30_s);
    base_mean = bed.overall_latency_ms();
    base_p99 = bed.overall_p99_ms();
    std::cout << baseline << ": mean " << testbed::fmt(base_mean)
              << " ms, P99 " << testbed::fmt(base_p99) << " ms\n";
  }

  testbed::Testbed bed(testbed::table3_specs(), make_cfg(true));
  std::cout << "KnapsackLB exploring 30 DIPs..." << std::flush;
  const bool ready = bed.run_until_ready(util::SimTime::minutes(30));
  std::cout << (ready ? " done" : " TIMED OUT") << " at "
            << bed.sim().now().str() << "\n";
  bed.run_for(30_s);
  bed.reset_stats();
  bed.run_for(30_s);

  // Per-type weight summary.
  testbed::Table table({"VM type", "#DIPs", "total weight", "avg CPU",
                        "avg latency (ms)"});
  const auto metrics = bed.metrics();
  struct Agg {
    double w = 0, cpu = 0, lat = 0;
    std::uint64_t req = 0;
    int n = 0;
  };
  std::vector<std::pair<std::string, Agg>> aggs;
  for (const auto& m : metrics) {
    auto it = std::find_if(aggs.begin(), aggs.end(),
                           [&](const auto& p) { return p.first == m.vm_type; });
    if (it == aggs.end()) {
      aggs.push_back({m.vm_type, {}});
      it = aggs.end() - 1;
    }
    it->second.w += m.weight;
    it->second.cpu += m.cpu_utilization;
    it->second.lat += m.client_latency_ms * static_cast<double>(m.client_requests);
    it->second.req += m.client_requests;
    it->second.n += 1;
  }
  for (const auto& [type, a] : aggs)
    table.row({type, std::to_string(a.n), testbed::fmt(a.w, 3),
               testbed::fmt_pct(a.cpu / a.n),
               testbed::fmt(a.req ? a.lat / static_cast<double>(a.req) : 0.0)});
  table.print();

  const double mean = bed.overall_latency_ms();
  std::cout << "KnapsackLB: mean " << testbed::fmt(mean) << " ms, P99 "
            << testbed::fmt(bed.overall_p99_ms()) << " ms\n"
            << "improvement vs " << baseline << ": "
            << testbed::fmt_pct(base_mean > 0 ? 1.0 - mean / base_mean : 0.0)
            << " mean, "
            << testbed::fmt_pct(base_p99 > 0 ? 1.0 - bed.overall_p99_ms() / base_p99
                                             : 0.0)
            << " P99\n";
  return 0;
}
