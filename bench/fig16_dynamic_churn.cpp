// Fig. 15/16 composed, on a *live* pool: the paper's headline dynamics —
// capacity change and failures — exercised through the Testbed's runtime
// churn API instead of a static pool, with KnapsackLB on and the VIP
// served by an ECMP MuxPool (mux_count > 1).
//
// Scenario (Table-3 pool, constant offered load like the paper's figures):
//   1. steady baseline,
//   2. capacity change: two DS3v2s each lose a core to a co-located
//      process (Fig. 16's knob),
//   3. scale-out wave: fresh DS2v2s join mid-run and are explored and
//      folded into the ILP while traffic flows,
//   4. rolling graceful drain: DIPs leave one at a time, pinned flows
//      served out (zero resets),
//   5. correlated abrupt failure: two DIPs die at once (Fig. 15's event,
//      via the ops feed + dataplane fail_backend).
//
// `--short` runs a scaled-down pool and shorter windows — the CI smoke
// mode that keeps the live-churn path from rotting.
#include "bench_common.hpp"
#include "testbed/invariants.hpp"

using namespace klb;
using namespace klb::util::literals;

namespace {

struct PhaseStats {
  std::string name;
  double goodput_rps = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t flows_reset = 0;
  std::uint64_t drains_completed = 0;
  std::size_t live_dips = 0;
};

/// Measure one phase: latency and goodput over `window`, and the
/// dataplane's resets and drains since `since` — a counter snapshot taken
/// before the phase's churn ops, so the phase owns what its ops did even
/// when that lands before the window opens (drains complete during the
/// settle runs; a failure resets flows at once).
PhaseStats measure_phase(testbed::Testbed& bed, const std::string& name,
                         util::SimTime window,
                         const lb::DataplaneCounters& since) {
  bed.reset_stats();
  const auto timeouts0 = bed.clients().recorder().timeouts();
  bed.run_for(window);

  PhaseStats s;
  s.name = name;
  s.goodput_rps = static_cast<double>(bed.clients().recorder().overall().count()) /
                  window.sec();
  s.mean_ms = bed.overall_latency_ms();
  s.p99_ms = bed.overall_p99_ms();
  s.timeouts = bed.clients().recorder().timeouts() - timeouts0;
  const auto d = bed.dataplane_counters() - since;
  s.flows_reset = d.flows_reset_by_failure;
  s.drains_completed = d.drains_completed;
  s.live_dips = bed.dip_count();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::string json_path;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--short") {
      short_mode = true;
    } else if (args[i] == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else {
      std::cerr << "unknown argument '" << args[i]
                << "'\nusage: bench_fig16_dynamic_churn [--short] "
                   "[--json PATH]\n";
      return 2;
    }
  }
  std::cout << "Fig. 16 (dynamic): live pool churn under traffic"
            << (short_mode ? " [short mode]" : "") << "\n";

  testbed::TestbedConfig cfg;
  cfg.seed = 99;
  cfg.policy = "wrr";  // the pool runs "maglev"; knob unused
  cfg.use_knapsacklb = true;
  cfg.mux_count = 3;
  cfg.requests_per_session = 1.0;
  cfg.closed_loop_factor = 20.0;
  cfg.dip.backlog_per_core = 24;
  cfg.controller.refresh_interval = util::SimTime::zero();
  // The paper's figures hold offered load constant through the event.
  cfg.rescale_load_on_churn = false;

  std::vector<testbed::DipSpec> specs;
  if (short_mode) {
    for (int i = 0; i < 6; ++i) specs.push_back({server::kDs1v2, 1.0, 0.0});
    for (int i = 0; i < 2; ++i) specs.push_back({server::kDs2v2, 1.0, 0.0});
    specs.push_back({server::kF8sv2, 1.0, 0.0});
  } else {
    specs = testbed::table3_specs();
  }
  const auto window = short_mode ? 30_s : util::SimTime::minutes(2);
  const auto ready_limit =
      short_mode ? util::SimTime::minutes(10) : util::SimTime::minutes(30);
  const std::size_t scale_out_n = short_mode ? 2 : 3;
  const std::size_t drain_n = short_mode ? 2 : 3;

  testbed::Testbed bed(specs, cfg);
  auto* pool = bed.mux_pool();
  if (pool == nullptr) {
    std::cout << "[fail] expected a MuxPool (mux_count > 1)\n";
    return 1;
  }
  if (!bed.run_until_ready(ready_limit))
    std::cout << "[warn] initial exploration did not finish in time\n";
  bed.run_for(short_mode ? 20_s : util::SimTime::minutes(1));

  std::vector<PhaseStats> phases;
  phases.push_back(
      measure_phase(bed, "baseline", window, bed.dataplane_counters()));

  // --- capacity change (Fig. 16): two big DIPs lose a core mid-run ------
  std::size_t steal_a = short_mode ? 6 : 24;  // DS2s (short) / DS3s (full)
  std::size_t steal_b = steal_a + 1;
  auto since = bed.dataplane_counters();
  bed.dip(steal_a).set_stolen_cores(1.0);
  bed.dip(steal_b).set_stolen_cores(1.0);
  phases.push_back(measure_phase(bed, "capacity change", window, since));

  // --- scale-out wave ---------------------------------------------------
  since = bed.dataplane_counters();
  for (std::size_t i = 0; i < scale_out_n; ++i)
    bed.scale_out({server::kDs2v2, 1.0, 0.0});
  if (!bed.run_until_ready(ready_limit))
    std::cout << "[warn] newcomer exploration did not finish in time\n";
  phases.push_back(measure_phase(bed, "scale-out wave", window, since));

  // --- rolling graceful drain ------------------------------------------
  // The drains complete during the settle runs, before the measured
  // window opens: the phase's counters start before the first scale_in,
  // so the CI-gating graceful and drained contracts span the ops
  // themselves, not just the window.
  testbed::InvariantChecker check;
  since = bed.dataplane_counters();
  for (std::size_t i = 0; i < drain_n; ++i) {
    bed.scale_in(0);
    bed.run_for(short_mode ? 10_s : 30_s);
  }
  phases.push_back(measure_phase(bed, "rolling drain", window, since));
  const auto drain_window = bed.dataplane_counters() - since;
  check.graceful(drain_window);
  check.drained(bed, drain_window, drain_n);

  // --- correlated abrupt failure ---------------------------------------
  since = bed.dataplane_counters();
  bed.fail_dip(0);
  bed.fail_dip(0);
  phases.push_back(measure_phase(bed, "correlated failure", window, since));

  testbed::Table table({"phase", "DIPs", "goodput rps", "mean ms", "p99 ms",
                        "timeouts", "resets", "drains"});
  for (const auto& s : phases)
    table.row({s.name, std::to_string(s.live_dips),
               testbed::fmt(s.goodput_rps, 0), testbed::fmt(s.mean_ms),
               testbed::fmt(s.p99_ms), std::to_string(s.timeouts),
               std::to_string(s.flows_reset),
               std::to_string(s.drains_completed)});
  table.print();

  // --- consistency: the live-churn contract (also the CI smoke check) ---
  // Freeze the control loop and let any transaction still riding the
  // programming delay commit, so the check compares settled state rather
  // than a program mid-delay.
  bed.controller()->stop();
  bed.run_for(1_s);
  check.settled(bed);
  const auto& fail_phase = phases.back();
  check.expect(fail_phase.goodput_rps >= 0.5 * phases.front().goodput_rps,
               "goodput collapsed after correlated failure");
  std::cout << check.report();
  const auto failures = check.violations().size();
  const auto dm = bed.dataplane_counters();
  std::cout << "correlated failure reset " << fail_phase.flows_reset
            << " pinned flows; stale pre-failure re-admissions refused: "
            << dm.stale_failed_admissions << "\n";

  std::cout << "\nPaper: capacity loss trims the degraded DIPs' weight "
               "15-17% (not the naive 25%);\nfailed DIPs' weight lands "
               "mostly on the high-capacity survivors. Here the same\n"
               "controller does both on a pool that grows, drains, and "
               "fails mid-run.\n";

  if (!json_path.empty()) {
    auto json = bench::Json::object();
    json.set("bench", "fig16_dynamic_churn")
        .set("mode", short_mode ? "short" : "full")
        .set("live_dips", bed.dip_count())
        .set("mux_count", cfg.mux_count)
        .set("offered_rps", bed.offered_rps());
    auto phases_json = bench::Json::array();
    for (const auto& s : phases)
      phases_json.push(bench::Json::object()
                           .set("phase", s.name)
                           .set("live_dips", s.live_dips)
                           .set("goodput_rps", s.goodput_rps)
                           .set("mean_ms", s.mean_ms)
                           .set("p99_ms", s.p99_ms)
                           .set("timeouts", s.timeouts)
                           .set("flows_reset", s.flows_reset)
                           .set("drains_completed", s.drains_completed));
    json.set("phases", std::move(phases_json));
    json.set("dataplane",
             bench::Json::object()
                 .set("flows_reset_by_failure", dm.flows_reset_by_failure)
                 .set("drains_completed", dm.drains_completed)
                 .set("no_backend_drops", dm.no_backend_drops)
                 .set("stale_failed_admissions", dm.stale_failed_admissions)
                 .set("generations_published", dm.generations_published)
                 .set("generations_retired", dm.generations_retired)
                 .set("pending_retired_generations",
                      pool->pending_retired_generations()));
    json.set("failures", failures);
    if (!bench::write_json_file(json_path, json)) return 1;
  }
  return failures == 0 ? 0 : 1;
}
