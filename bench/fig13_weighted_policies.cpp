// Fig. 13: weighted RR and weighted LC (weights proportional to core
// count) vs KnapsackLB on the 30-DIP pool.
//
// Paper: core-count weights ignore that throughput does not scale
// linearly with cores (and that F-series cores are faster), so WRR/WLC
// still overload the 4-core DS VMs; KLB reduced latency on those DIPs by
// 42% / 36.2%.
//
// The paper measured that non-linearity on real VMs ("the throughput of
// 4-core DS-type VM did not scale linearly with number of cores"); our
// DIP model is linear in cores by construction, so the shortfall is
// injected as the scenario: multi-core DIPs run at a capacity factor the
// operator cannot see (DS3 0.70, F8 0.85 — within the up-to-40% capacity
// variation the paper cites) while WRR/WLC still weight by core count.
// KnapsackLB never sees core counts and learns the real capacities from
// latency.
#include "bench_common.hpp"

using namespace klb;
using namespace klb::bench;

int main() {
  std::cout << "Fig. 13 reproduction: WRR/WLC (weights = core counts) vs "
               "KnapsackLB, 30 DIPs.\n";

  auto specs = testbed::table3_specs();
  for (auto& spec : specs) {
    if (spec.vm.cores == 4) spec.capacity_factor = 0.70;  // DS3v2 shortfall
    if (spec.vm.cores == 8) spec.capacity_factor = 0.85;  // F8sv2 shortfall
  }
  PolicyRunOptions opt;
  opt.seed = 13;
  opt.cluster_profile = true;

  std::vector<PolicyRunResult> runs;
  for (const std::string policy : {"wrr", "wlc", "klb"}) {
    std::cout << "running " << policy << "..." << std::flush;
    auto o = opt;
    if (policy != "klb") o.static_weights = core_weights(specs);
    runs.push_back(run_policy(specs, policy, o));
    std::cout << " done\n";
  }
  print_by_type(runs);

  const auto vs_wrr = compare_gains(runs[0], runs[2]);
  const auto vs_wlc = compare_gains(runs[1], runs[2]);
  std::cout << "\nKLB vs WRR: up to " << testbed::fmt_pct(vs_wrr.max_gain)
            << " latency cut (paper: 42% on the overloaded DIPs); "
            << fmt_deltas(vs_wrr, "WRR") << "\n"
            << "KLB vs WLC: up to " << testbed::fmt_pct(vs_wlc.max_gain)
            << " latency cut (paper: 36.2%); " << fmt_deltas(vs_wlc, "WLC")
            << "\n";
  return 0;
}
