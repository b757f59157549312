// End-to-end pool churn under live traffic (ROADMAP item b): scale-out,
// rolling graceful scale-in, and abrupt failure on a KnapsackLB-managed
// pool served by an ECMP MuxPool, with clients, KLM, the latency store,
// and the controller all running. Asserts the paper's §4.7/§6 churn
// contract through the whole stack:
//   - a scaled-out DIP is explored and folded into the ILP while traffic
//     keeps flowing,
//   - graceful drains reset zero flows (pinned connections serve out),
//   - abrupt failure resets exactly the dead DIP's flows and nothing else,
//   - metrics stay attributed to the right DIP throughout, and post-churn
//     weights sum to 1 and match the controller's per-address view.
#include <gtest/gtest.h>

#include <string>

#include "testbed/invariants.hpp"
#include "testbed/testbed.hpp"

namespace klb::testbed {
namespace {

using namespace util::literals;

TEST(ChurnE2E, ScaleOutDrainAndFailUnderLiveTraffic) {
  TestbedConfig cfg;
  cfg.seed = 73;
  cfg.use_knapsacklb = true;
  cfg.mux_count = 3;  // ECMP pool: churn must stay consistent pool-wide
  // Steady phases only: periodic curve refreshes would interleave their
  // own weight churn with the scenario's.
  cfg.controller.refresh_interval = util::SimTime::zero();
  std::vector<DipSpec> specs(6, DipSpec{});
  Testbed bed(specs, cfg);
  auto* pool = bed.mux_pool();
  ASSERT_NE(pool, nullptr);

  ASSERT_TRUE(bed.run_until_ready(util::SimTime::minutes(10)));
  bed.run_for(20_s);

  // --- Phase A: scale-out under traffic --------------------------------
  bed.reset_stats();
  // Dataplane counters are cumulative: Phase A's window starts here.
  const auto c0 = bed.dataplane_counters();
  DipSpec grown;
  grown.vm = server::kDs2v2;
  const auto ni = bed.scale_out(grown);
  const auto new_addr = bed.dip(ni).address();
  // The newcomer runs NeedL0 -> Exploring -> Ready while the incumbents
  // keep serving; all_ready() again means its curve is fitted and the ILP
  // has a weight for it.
  ASSERT_TRUE(bed.run_until_ready(util::SimTime::minutes(10)));
  bed.run_for(20_s);
  {
    const auto metrics = bed.metrics();
    ASSERT_EQ(metrics.size(), 7u);
    EXPECT_EQ(metrics[ni].addr, new_addr);
    EXPECT_GT(metrics[ni].weight, 0.0);
    const auto cw = bed.controller()->weight_of(new_addr);
    ASSERT_TRUE(cw.has_value());
    EXPECT_NEAR(*cw, metrics[ni].weight, 2e-3);
    EXPECT_GT(pool->new_connections_to(new_addr), 0u);
  }
  // Steady no-drop invariant: scale-out must never reset a flow or leave
  // a new connection without a usable backend, pool-wide.
  InvariantChecker check;
  check.steady(bed.dataplane_counters() - c0);

  // --- Phase B: rolling graceful scale-in ------------------------------
  const auto before_drain = bed.dataplane_counters();
  const auto timeouts_before_drain = bed.clients().recorder().timeouts();
  const auto goodput_before_drain = bed.clients().recorder().overall().count();
  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(30_s);
  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(30_s);
  EXPECT_EQ(bed.dip_count(), 5u);
  // Graceful: each leaver drained on every pool member without resetting
  // a single pinned flow, and no client request timed out because of it.
  const auto drain_window = bed.dataplane_counters() - before_drain;
  check.drained(bed, drain_window, 2);
  check.steady(drain_window);
  EXPECT_EQ(bed.clients().recorder().timeouts(), timeouts_before_drain);
  // Traffic kept flowing through the drains.
  EXPECT_GT(bed.clients().recorder().overall().count(), goodput_before_drain);

  // --- Phase C: abrupt failure ----------------------------------------
  const auto dead_addr = bed.dip(1).address();
  std::uint64_t dead_active = 0;
  for (std::size_t k = 0; k < pool->mux_count(); ++k)
    for (const auto& b : pool->mux(k).backends())
      if (b.addr == dead_addr) dead_active += b.counters->active.load();
  const auto affinity_before = pool->affinity_size();
  const auto resets_before_fail =
      bed.dataplane_counters().flows_reset_by_failure;
  ASSERT_TRUE(bed.fail_dip(1));
  // Exactly the dead DIP's pinned flows are reset; survivors keep theirs.
  EXPECT_EQ(bed.dataplane_counters().flows_reset_by_failure -
                resets_before_fail,
            dead_active);
  EXPECT_EQ(pool->affinity_size(), affinity_before - dead_active);
  bed.run_for(60_s);
  EXPECT_EQ(bed.dip_count(), 4u);
  // The controller's post-failure programs omit the corpse: it must not
  // have been re-admitted to the dataplane (even parked at weight 0, an
  // enabled dead backend would still be picked by unweighted policies).
  EXPECT_EQ(pool->backend_count(), 4u);
  for (const auto addr : pool->backend_addrs()) EXPECT_NE(addr, dead_addr);

  // --- Post-churn invariants -------------------------------------------
  // Freeze the control loop and let any transaction still riding the
  // programming delay commit: the comparison below is between settled
  // states, not a program mid-delay.
  bed.controller()->stop();
  bed.run_for(1_s);
  // Weights: the pool serves exactly the live DIPs at weights summing to 1,
  // each the controller's own per-address view (modulo the weight grid).
  // No goodput collapse: every live DIP still serves, with failure costs
  // bounded to the reset flows' retries.
  check.settled(bed);
  const auto metrics = bed.metrics();
  ASSERT_EQ(metrics.size(), 4u);
  for (const auto& m : metrics)
    EXPECT_GT(m.client_requests, 0u) << m.addr.str();

  // Pool-level lifecycle accounting, through the testbed's aggregate view:
  // the whole scenario reset exactly the dead DIP's flows, dropped none by
  // abrupt removal, and never refused a connection (the failure's maglev
  // rebuild redistributes the corpse's hash space in the same step).
  const auto dm = bed.dataplane_counters();
  const auto run = dm - c0;  // everything since Phase A began
  EXPECT_EQ(run.flows_dropped_by_removal, 0u);
  EXPECT_EQ(run.no_backend_drops, 0u);
  // Exactly the dead DIP's pinned flows (captured before fail_dip), on top
  // of whatever the pre-failure phases had already reset (zero, asserted
  // above) — the independent expectation, not the pool's own sum.
  EXPECT_EQ(dm.flows_reset_by_failure, resets_before_fail + dead_active);
  check.drained(bed, run, 2);
  EXPECT_TRUE(check.ok()) << check.report();

  const auto successes = bed.clients().recorder().overall().count();
  const auto timeouts = bed.clients().recorder().timeouts();
  EXPECT_GT(successes, 10'000u);
  // Bounded damage: request timeouts (abrupt-failure fallout) stay under
  // 1% of the goodput; graceful phases contributed none (asserted above).
  EXPECT_LT(static_cast<double>(timeouts),
            0.01 * static_cast<double>(successes));
}

// The same churn ops must hold the dataplane together without the
// controller: the testbed emits the whole-pool transactions itself. A
// static-weighted pool scales out, rolls a drain, and takes a failure
// under open traffic; weights stay normalized over the live pool.
TEST(ChurnE2E, NoControllerChurnKeepsPoolConsistent) {
  TestbedConfig cfg;
  cfg.seed = 74;
  cfg.mux_count = 2;
  std::vector<DipSpec> specs(4, DipSpec{});
  Testbed bed(specs, cfg);
  auto* pool = bed.mux_pool();
  ASSERT_NE(pool, nullptr);
  bed.run_for(10_s);

  const auto ni = bed.scale_out(DipSpec{});
  bed.run_for(10_s);
  EXPECT_EQ(bed.dip_count(), 5u);
  EXPECT_GT(pool->new_connections_to(bed.dip(ni).address()), 0u);

  const auto before_drain = pool->counters();
  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(10_s);
  InvariantChecker check;
  const auto drain_window = pool->counters() - before_drain;
  check.graceful(drain_window);
  check.drained(bed, drain_window, 1);
  check.steady(pool->counters());

  ASSERT_TRUE(bed.fail_dip(0));
  bed.run_for(10_s);
  EXPECT_EQ(bed.dip_count(), 3u);
  check.settled(bed);
  // Request conservation: every answer and every timeout was sent once.
  const auto ok = bed.client_successes();
  const auto timeouts = bed.client_timeouts();
  const auto sent = bed.client_requests_sent();
  check.expect(ok + timeouts <= sent,
               "request conservation (successes " + std::to_string(ok) +
                   " + timeouts " + std::to_string(timeouts) + " <= sent " +
                   std::to_string(sent) + ")");
  EXPECT_TRUE(check.ok()) << check.report();
  for (const auto& m : bed.metrics()) EXPECT_GT(m.client_requests, 0u);
  // KLM only probes the live pool: exactly one store key per live DIP has
  // fresh samples (the leavers' histories were forgotten).
  for (std::size_t i = 0; i < bed.dip_count(); ++i)
    EXPECT_FALSE(
        bed.latency_store().recent(bed.vip(), bed.dip(i).address(), 1).empty());
}

// ISSUE 8's churn invariant for the hybrid dataplane: with the stateless
// fast path on, graceful drains must not break a single flow's affinity —
// flows caught mid-drain adopt exception pins onto the drainer (counted as
// breaks avoided), everyone else keeps routing by hash, and the genuine
// break counter stays at zero through the whole scale-in.
TEST(ChurnE2E, StatelessGracefulDrainsBreakNoAffinity) {
  TestbedConfig cfg;
  cfg.seed = 75;
  cfg.mux_count = 2;  // ECMP pool: members share one maglev snapshot
  cfg.stateless_dataplane = true;
  cfg.expected_flows = 4096;
  std::vector<DipSpec> specs(5, DipSpec{});
  Testbed bed(specs, cfg);
  auto* pool = bed.mux_pool();
  ASSERT_NE(pool, nullptr);
  ASSERT_TRUE(pool->stateless_engaged());
  bed.run_for(10_s);

  // Steady state routes by hash: the flow tables stay (near) empty.
  InvariantChecker check;
  EXPECT_GT(bed.dataplane_counters().stateless_picks, 0u);
  check.steady(bed.dataplane_counters());

  // Rolling graceful scale-in under open traffic.
  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(15_s);
  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(15_s);
  EXPECT_EQ(bed.dip_count(), 3u);
  EXPECT_EQ(pool->draining_count(), 0u);

  const auto dm = bed.dataplane_counters();
  check.drained(bed, dm, 2);
  // The invariant this subsystem exists for: graceful drains with the
  // stateless path on re-home zero flows (steady: affinity_breaks == 0).
  // Anything caught mid-drain is an avoided break (an adoption) instead.
  check.steady(dm);
  EXPECT_TRUE(check.ok()) << check.report();
  EXPECT_EQ(bed.clients().recorder().timeouts(), 0u);
  // The dataplane actually ran stateless through the churn.
  EXPECT_GT(dm.stateless_picks, 0u);

  // Quiesced, every exception pin has drained back out.
  bed.clients().stop();
  bed.run_for(30_s);
  pool->poll();
  EXPECT_EQ(pool->affinity_size(), 0u);
}

}  // namespace
}  // namespace klb::testbed
