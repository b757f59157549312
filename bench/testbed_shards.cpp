// Sharded event-loop driver scaling (ISSUE 9): the same live-churn
// scenario the fig16 bench gates — steady traffic, scale-out, graceful
// drain, abrupt failure — run at driver_shards = 1, 2, 4 over a FIXED
// virtual duration. The single-threaded Simulation (shards = 1) is the
// determinism reference; the sharded runs execute the identical scenario
// on N per-shard event queues in bounded virtual-time windows. Since
// virtual time is held constant, the wall-clock ratio is the capacity
// headline: how much more offered RPS the testbed sustains per
// wall-second when the driver saturates more cores.
//
// Fabric latency is raised to 5 ms so the driver window (== base_latency,
// the largest window that cannot reorder cross-shard messages) amortizes
// many events per barrier — the regime the sharded driver is for. The
// barrier handshake is paid once per window regardless of work, so the
// scaling headroom is (events per window) / (barrier cost): the knobs
// below (window size, pool size) exist to keep that ratio high enough
// that the gates measure the driver, not the barrier.
//
// `--short` is the CI smoke mode: scaled-down pool, shorter phases, and
// the scaling gates (>= 0.9x/shard at 2 shards, >= 3x at 4 shards),
// applied only where the host has the cores to back them. On hosts
// without them, an oversubscribed run measures timesharing, not the
// driver, and is exempt. `--invariants-only` (the TSan job) shrinks the
// phases further and skips the gates entirely: timing under a 5-20x
// sanitizer slowdown is noise, but the churn invariants — zero graceful
// resets, completed drains, zero no-backend drops, request conservation —
// must hold at every shard count.
#include <chrono>
#include <thread>

#include "bench_common.hpp"

using namespace klb;
using namespace klb::util::literals;

namespace {

struct ShardRun {
  std::size_t shards = 1;
  double wall_sec = 0.0;
  double virtual_sec = 0.0;
  std::uint64_t successes = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t drains_completed = 0;
  std::uint64_t graceful_resets = 0;  // resets during the drain phase
  std::uint64_t no_backend_drops = 0;
  bool ok = true;
};

ShardRun run_one(std::size_t shards, bool short_mode, bool invariants_only) {
  testbed::TestbedConfig cfg;
  cfg.seed = 1234;
  cfg.load_fraction = 0.85;  // more events per window = more to amortize
  cfg.mux_count = 2;  // maglev-shared pool: tuple-deterministic, VIP anycast
  cfg.requests_per_session = 1.0;
  cfg.closed_loop_factor = 20.0;
  cfg.dip.backlog_per_core = 24;
  cfg.rescale_load_on_churn = false;
  cfg.driver_shards = shards;
  cfg.fabric.base_latency = util::SimTime::millis(5);
  cfg.fabric.jitter_mean = util::SimTime::micros(500);

  std::vector<testbed::DipSpec> specs;
  if (short_mode) {
    for (int i = 0; i < 12; ++i) specs.push_back({server::kDs1v2, 1.0, 0.0});
    for (int i = 0; i < 4; ++i) specs.push_back({server::kDs2v2, 1.0, 0.0});
    for (int i = 0; i < 2; ++i) specs.push_back({server::kF8sv2, 1.0, 0.0});
  } else {
    specs = testbed::table3_specs();
  }

  const auto steady = invariants_only ? 3_s : (short_mode ? 10_s : 30_s);
  const auto phase = invariants_only ? 2_s : (short_mode ? 5_s : 15_s);

  testbed::Testbed bed(specs, cfg);
  if (bed.mux_pool() == nullptr) {
    std::cerr << "expected a MuxPool (mux_count > 1)\n";
    ShardRun bad;
    bad.ok = false;
    return bad;
  }
  bed.run_for(short_mode ? 5_s : 10_s);  // warmup, untimed
  bed.reset_stats();
  // Dataplane counters are cumulative: the timed region is a delta from
  // here.
  const auto c0 = bed.dataplane_counters();

  // The timed region: fixed virtual duration, live churn riding along.
  ShardRun r;
  r.shards = shards;
  const auto v0 = bed.sim().now();
  const auto t0 = std::chrono::steady_clock::now();
  bed.run_for(steady);
  // Steady state over: no churn has run yet, so a refused connection up
  // to here would be a dataplane bug. Churn transients are different —
  // while a restated program rides the programming delay, a maglev slot
  // can briefly name a parked or failed backend and the member refuses
  // rather than guesses (the client retries); those refusals are correct
  // behavior and are reported, not gated.
  r.no_backend_drops = (bed.dataplane_counters() - c0).no_backend_drops;
  bed.scale_out({server::kDs2v2, 1.0, 0.0});
  bed.run_for(phase);
  const auto before_drain = bed.dataplane_counters();
  bed.scale_in(0);  // graceful: pinned flows served out, zero resets
  bed.run_for(phase);
  r.graceful_resets =
      (bed.dataplane_counters() - before_drain).flows_reset_by_failure;
  bed.fail_dip(0);  // abrupt: survivors absorb, clients retry
  bed.run_for(phase);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  r.virtual_sec = (bed.sim().now() - v0).sec();

  r.successes = bed.client_successes();
  r.timeouts = bed.client_timeouts();
  r.requests_sent = bed.client_requests_sent();
  r.drains_completed = (bed.dataplane_counters() - c0).drains_completed;

  auto check = [&r, shards](bool cond, const std::string& what) {
    if (!cond) {
      std::cerr << "INVARIANT VIOLATED (shards=" << shards << "): " << what
                << "\n";
      r.ok = false;
    }
  };
  check(r.successes > 0, "clients made progress");
  check(r.successes + r.timeouts <= r.requests_sent,
        "request conservation (successes " + std::to_string(r.successes) +
            " + timeouts " + std::to_string(r.timeouts) + " <= sent " +
            std::to_string(r.requests_sent) + ")");
  check(r.graceful_resets == 0,
        "graceful drain reset " + std::to_string(r.graceful_resets) +
            " flows");
  check(r.no_backend_drops == 0,
        "steady-state no-backend drops: " +
            std::to_string(r.no_backend_drops));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  bool invariants_only = false;
  std::string json_path;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--short") {
      short_mode = true;
    } else if (args[i] == "--invariants-only") {
      invariants_only = true;
      short_mode = true;  // implies the small pool and short phases
    } else if (args[i] == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else {
      std::cerr << "unknown argument '" << args[i]
                << "'\nusage: bench_testbed_shards [--short] "
                   "[--invariants-only] [--json PATH]\n";
      return 2;
    }
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "Sharded event-loop driver: fixed virtual duration, "
               "wall-clock scaling"
            << (invariants_only ? " [invariants only]"
                                : (short_mode ? " [short mode]" : ""))
            << " (" << hw << " hardware threads)\n";

  const std::vector<std::size_t> shard_counts{1, 2, 4};
  std::vector<ShardRun> runs;
  bool ok = true;
  for (const auto s : shard_counts) {
    runs.push_back(run_one(s, short_mode, invariants_only));
    ok = ok && runs.back().ok;
  }

  const double wall1 = std::max(1e-9, runs.front().wall_sec);
  testbed::Table table({"shards", "virtual s", "wall s", "speedup",
                        "successes", "timeouts", "drains"});
  for (const auto& r : runs)
    table.row({std::to_string(r.shards), testbed::fmt(r.virtual_sec, 1),
               testbed::fmt(r.wall_sec, 2),
               testbed::fmt(wall1 / std::max(1e-9, r.wall_sec), 2) + "x",
               std::to_string(r.successes), std::to_string(r.timeouts),
               std::to_string(r.drains_completed)});
  table.print();
  std::cout << "\nSame scenario, same virtual seconds; the speedup column "
               "is offered-RPS headroom per wall-second.\n";

  // --- scaling gates (Release smoke only; timing under TSan is noise) ----
  bool gate_fail = false;
  if (short_mode && !invariants_only) {
    const auto speedup = [&](std::size_t shards) {
      for (const auto& r : runs)
        if (r.shards == shards) return wall1 / std::max(1e-9, r.wall_sec);
      return 0.0;
    };
    if (hw >= 2 && speedup(2) < 1.8) {
      std::cerr << "FAIL: 2 shards sped up only " << testbed::fmt(speedup(2), 2)
                << "x (< 0.9x/shard) on a " << hw << "-thread host\n";
      gate_fail = true;
    }
    if (hw >= 4 && speedup(4) < 3.0) {
      std::cerr << "FAIL: 4 shards sped up only " << testbed::fmt(speedup(4), 2)
                << "x (< 3x) on a " << hw << "-thread host\n";
      gate_fail = true;
    }
    if (!gate_fail)
      std::cout << "scaling gates passed (or exempt: host has " << hw
                << " hardware threads)\n";
  }

  if (!json_path.empty()) {
    auto json = bench::Json::object();
    json.set("bench", "testbed_shards")
        .set("mode", invariants_only ? "invariants-only"
                                     : (short_mode ? "short" : "full"))
        .set("hardware_threads", hw);
    auto runs_json = bench::Json::array();
    for (const auto& r : runs)
      runs_json.push(bench::Json::object()
                         .set("shards", static_cast<std::uint64_t>(r.shards))
                         .set("virtual_sec", r.virtual_sec)
                         .set("wall_sec", r.wall_sec)
                         .set("speedup_vs_1",
                              wall1 / std::max(1e-9, r.wall_sec))
                         .set("successes", r.successes)
                         .set("timeouts", r.timeouts)
                         .set("drains_completed", r.drains_completed)
                         .set("steady_no_backend_drops", r.no_backend_drops));
    json.set("runs", std::move(runs_json));
    json.set("invariants_ok", ok).set("gates_ok", !gate_fail);
    if (!bench::write_json_file(json_path, json)) return 1;
  }
  return (ok && !gate_fail) ? 0 : 1;
}
