// Table 4: maximum latency gain of KnapsackLB over each LB policy on the
// 30-DIP pool — unweighted (RR, LC, RD, P2, Azure-hash) and weighted
// (WRR, WLC, weighted random) variants.
//
// Paper: unweighted — RR 45%, LC 23%, RD 42%, P2 24%, Azure 41%;
// weighted — WRR 42%, WLC 36%, RD(w) 41%. P2 and Azure have no weights.
#include "bench_common.hpp"

using namespace klb;
using namespace klb::bench;

int main() {
  std::cout << "Table 4 reproduction: max latency gains of KnapsackLB over "
               "other policies, 30 DIPs.\n";

  const auto specs = testbed::table3_specs();
  PolicyRunOptions opt;
  opt.seed = 4;
  opt.cluster_profile = true;

  std::cout << "running klb..." << std::flush;
  const auto klb_run = run_policy(specs, "klb", opt);
  std::cout << " done (converged at " << klb_run.convergence_time.str()
            << ")\n";

  struct Row {
    std::string label;
    std::string policy;
    bool weighted;
    double paper_gain;
  };
  const std::vector<Row> rows{
      {"RR (unweighted)", "rr", false, 0.45},
      {"LC (unweighted)", "lc", false, 0.23},
      {"RD (unweighted)", "random", false, 0.42},
      {"P2 (unweighted)", "p2", false, 0.24},
      {"Azure hash", "hash", false, 0.41},
      {"WRR (weighted)", "wrr", true, 0.42},
      {"WLC (weighted)", "wlc", true, 0.36},
      {"RD (weighted)", "wrandom", true, 0.41},
  };

  testbed::Table table({"policy", "policy mean (ms)", "KLB mean (ms)",
                        "max gain", "requests improved", "paper max gain",
                        "KLB mean change", "KLB P99 change"});
  for (const auto& row : rows) {
    std::cout << "running " << row.policy << (row.weighted ? " (weighted)" : "")
              << "..." << std::flush;
    auto o = opt;
    if (row.weighted) o.static_weights = core_weights(specs);
    const auto r = run_policy(specs, row.policy, o);
    std::cout << " done\n";
    const auto g = compare_gains(r, klb_run);
    table.row({row.label, testbed::fmt(r.mean_latency_ms),
               testbed::fmt(klb_run.mean_latency_ms),
               testbed::fmt_pct(g.max_gain),
               testbed::fmt_pct(g.request_share),
               testbed::fmt_pct(row.paper_gain, 0), fmt_delta(g.mean_delta),
               fmt_delta(g.p99_delta)});
  }
  table.print();
  return 0;
}
