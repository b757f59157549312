// Fig. 17: weight changes when total traffic rises 10%.
//
// Paper: all DIPs see higher latency at unchanged weights -> traffic
// change detected -> weight-latency curves shift left -> ILP rerun.
// DIP-25..30 (the big VMs) absorb most of the extra traffic; nothing
// overloads. Detection took <5 s; the ILP ~120 ms.
#include "bench_common.hpp"

using namespace klb;

int main() {
  std::cout << "Fig. 17 reproduction: weight adaptation on +10% traffic.\n";

  testbed::TestbedConfig cfg;
  cfg.requests_per_session = 1.0;
  cfg.closed_loop_factor = 20.0;
  cfg.dip.backlog_per_core = 24;
  cfg.seed = 17;
  cfg.policy = "wrr";
  cfg.use_knapsacklb = true;
  cfg.load_fraction = 0.65;
  testbed::Testbed bed(testbed::table3_specs(), cfg);
  const bool ready = bed.run_until_ready(util::SimTime::minutes(30));
  if (!ready) std::cout << "[warn] exploration did not finish in time\n";
  bed.run_for(util::SimTime::seconds(40));
  const auto before = bed.controller()->current_weights();

  std::cout << "increasing traffic by 10%...\n";
  bed.clients().set_pattern(workload::TrafficPattern(bed.offered_rps() * 1.10));
  bed.run_for(util::SimTime::minutes(3));
  const auto after = bed.controller()->current_weights();
  std::cout << "traffic rescales: " << bed.controller()->traffic_rescales()
            << ", capacity rescales: " << bed.controller()->capacity_rescales()
            << ", ILP time: " << bed.controller()->last_ilp_elapsed().count()
            << " µs\n";

  testbed::Table table({"group", "weight before", "weight after", "change"});
  struct Group {
    std::string name;
    std::size_t lo, hi;
  };
  for (const auto& g :
       std::vector<Group>{{"DIP-1..16 (DS1)", 0, 16},
                          {"DIP-17..24 (DS2)", 16, 24},
                          {"DIP-25..28 (DS3)", 24, 28},
                          {"DIP-29,30 (F8)", 28, 30}}) {
    double b = 0.0;
    double a = 0.0;
    for (std::size_t i = g.lo; i < g.hi; ++i) {
      b += before[i];
      a += after[i];
    }
    table.row({g.name, testbed::fmt(b, 3), testbed::fmt(a, 3),
               (a >= b ? "+" : "") + testbed::fmt(a - b, 3)});
  }
  table.print();
  std::cout << "\nPaper: DIP-25..30 absorbed most of the extra traffic "
               "(more latency headroom\nper unit weight); no DIP "
               "overloaded.\n";
  return 0;
}
