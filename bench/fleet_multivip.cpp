// Fleet-scale multi-VIP control plane: solver-pool speedup vs. serial.
//
// The paper's scalability story (§5, Fig. 8, Tab. 6) is one ILP per VIP on
// a shared controller VM. At fleet scale (hundreds of VIPs, Charon-style
// deployments) the wall-clock bottleneck is solver time; this bench
// measures coordinator round throughput on a synthetic V x D fleet —
// every VIP dirty every round, unlimited slot budget, so each round is
// exactly V ILP solves — serial first, then pooled at growing widths.
// It also reports freshness: the median, over rounds, of the p50 wall time
// from a round's start to a VIP's program being live in its sink. A pooled
// round applies each VIP as soon as its own solve is done, so freshness
// falls with pool width even where rounds/sec cannot grow.
//
//   ./bench_fleet_multivip [--vips 100] [--dips 30] [--rounds 10]
//                          [--threads 4] [--seed 1]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "testbed/fleet.hpp"
#include "util/flags.hpp"

using namespace klb;

namespace {

struct RunStats {
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  double fresh_p50_ms = 0.0;
  std::uint64_t solves = 0;
};

RunStats run_fleet(std::size_t vips, std::size_t dips, int rounds,
                   int solver_threads, std::uint64_t seed) {
  core::MultiVipConfig cfg;
  cfg.solver_threads = solver_threads;
  cfg.max_ilp_per_round = 0;  // unlimited: rounds are solver-bound
  testbed::SyntheticFleet fleet(vips, dips, cfg, seed);

  // Warm-up round (first-touch allocations) outside the timed window.
  fleet.mark_all_dirty();
  fleet.tick_round();
  std::uint64_t warmup_solves = 0;
  for (std::size_t v = 0; v < vips; ++v)
    warmup_solves += fleet.coordinator().controller(v).ilp_runs();

  std::vector<double> p50s, fresh(vips);
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    fleet.mark_all_dirty();
    const auto t0 = std::chrono::steady_clock::now();
    fleet.tick_round();
    for (std::size_t v = 0; v < vips; ++v)
      fresh[v] = std::chrono::duration<double, std::milli>(
                     fleet.lb(v).live_at() - t0).count();
    std::nth_element(fresh.begin(), fresh.begin() + vips / 2, fresh.end());
    p50s.push_back(fresh[vips / 2]);
  }
  const auto end = std::chrono::steady_clock::now();

  RunStats stats;
  std::nth_element(p50s.begin(), p50s.begin() + rounds / 2, p50s.end());
  stats.fresh_p50_ms = p50s[rounds / 2];
  stats.seconds = std::chrono::duration<double>(end - start).count();
  stats.rounds_per_sec = rounds / stats.seconds;
  for (std::size_t v = 0; v < vips; ++v)
    stats.solves += fleet.coordinator().controller(v).ilp_runs();
  stats.solves -= warmup_solves;  // timed window only
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto vips = static_cast<std::size_t>(
      std::max(1, static_cast<int>(flags.get_int("vips", 100))));
  const auto dips = static_cast<std::size_t>(flags.get_int("dips", 30));
  const int rounds = std::max(1, static_cast<int>(flags.get_int("rounds", 10)));
  const int max_threads = flags.get_int("threads", 4);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.exit_on_unknown();

  std::printf("fleet: %zu VIPs x %zu DIPs, %d rounds per config "
              "(%u hardware threads)\n\n",
              vips, dips, rounds, std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 2)
    std::printf("note: single-core host — pooled speedup needs >1 core\n\n");
  std::printf("%-10s %12s %12s %16s %10s %10s\n", "threads", "total (s)",
              "rounds/sec", "fresh p50 (ms)", "solves", "speedup");

  const auto serial = run_fleet(vips, dips, rounds, 1, seed);
  std::printf("%-10d %12.3f %12.2f %16.2f %10llu %9.2fx\n", 1,
              serial.seconds, serial.rounds_per_sec, serial.fresh_p50_ms,
              static_cast<unsigned long long>(serial.solves), 1.0);

  double best_speedup = 1.0;
  for (int t = 2; t <= max_threads; t *= 2) {
    const auto pooled = run_fleet(vips, dips, rounds, t, seed);
    const double speedup = pooled.rounds_per_sec / serial.rounds_per_sec;
    best_speedup = std::max(best_speedup, speedup);
    std::printf("%-10d %12.3f %12.2f %16.2f %10llu %9.2fx\n", t,
                pooled.seconds, pooled.rounds_per_sec, pooled.fresh_p50_ms,
                static_cast<unsigned long long>(pooled.solves), speedup);
  }

  std::printf("\nbest pooled speedup: %.2fx over serial\n", best_speedup);
  return 0;
}
