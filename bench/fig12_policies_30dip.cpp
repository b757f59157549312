// Fig. 12: average CPU and latency per VM type on the 30-DIP Table 3 pool
// for RR, LC, and KnapsackLB, at 70% of cluster capacity.
//
// Paper: RR/LC overload the small DIPs (DS1/DS2 high CPU + latency) while
// the big ones idle; KnapsackLB evens both out. Headline: KLB cuts latency
// by up to 45% for 79% of requests vs RR, and up to 23% for 68% vs LC.
#include "bench_common.hpp"

using namespace klb;
using namespace klb::bench;

int main() {
  std::cout << "Fig. 12 reproduction: RR vs LC vs KnapsackLB on the 30-DIP "
               "Table 3 pool.\n";

  PolicyRunOptions opt;
  opt.seed = 12;
  opt.cluster_profile = true;

  std::vector<PolicyRunResult> runs;
  for (const std::string policy : {"rr", "lc", "klb"}) {
    std::cout << "running " << policy << "..." << std::flush;
    runs.push_back(run_policy(testbed::table3_specs(), policy, opt));
    std::cout << " done\n";
  }
  print_by_type(runs);

  const auto vs_rr = compare_gains(runs[0], runs[2]);
  const auto vs_lc = compare_gains(runs[1], runs[2]);
  std::cout << "\nKLB vs RR: cuts latency by up to "
            << testbed::fmt_pct(vs_rr.max_gain) << " for "
            << testbed::fmt_pct(vs_rr.request_share)
            << " of requests (paper: up to 45% for 79%); "
            << fmt_deltas(vs_rr, "RR") << "\n"
            << "KLB vs LC: cuts latency by up to "
            << testbed::fmt_pct(vs_lc.max_gain) << " for "
            << testbed::fmt_pct(vs_lc.request_share)
            << " of requests (paper: up to 23% for 68%); "
            << fmt_deltas(vs_lc, "LC") << "\n";
  return 0;
}
