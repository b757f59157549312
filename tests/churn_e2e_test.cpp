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
//     weights sum to ~1 and match the controller's per-address view.
#include <gtest/gtest.h>

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
  {
    const auto grown_window = bed.dataplane_counters() - c0;
    EXPECT_EQ(grown_window.flows_reset_by_failure, 0u);
    EXPECT_EQ(grown_window.no_backend_drops, 0u);
  }

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
  const auto drained = bed.dataplane_counters() - before_drain;
  EXPECT_EQ(drained.drains_completed, 2 * pool->mux_count());
  EXPECT_EQ(pool->draining_count(), 0u);
  EXPECT_EQ(drained.flows_reset_by_failure, 0u);
  EXPECT_EQ(bed.clients().recorder().timeouts(), timeouts_before_drain);
  // Traffic kept flowing through the drains.
  EXPECT_GT(bed.clients().recorder().overall().count(), goodput_before_drain);
  // Rolling drains are graceful end to end: no connection was ever refused
  // and no pinned flow was abruptly dropped by a removal.
  EXPECT_EQ(drained.no_backend_drops, 0u);
  EXPECT_EQ(drained.flows_dropped_by_removal, 0u);

  // --- Phase C: abrupt failure ----------------------------------------
  const auto dead_addr = bed.dip(1).address();
  std::uint64_t dead_active = 0;
  for (std::size_t k = 0; k < pool->mux_count(); ++k) {
    auto& m = pool->mux(k);
    for (std::size_t b = 0; b < m.backend_count(); ++b)
      if (m.backend_addr(b) == dead_addr) dead_active += m.active_connections(b);
  }
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
  // Weights: address-attributed, summing to ~1 over the live pool, and
  // bit-for-bit the controller's own per-address view (modulo the weight
  // grid). No goodput collapse: the pool still serves, with failure costs
  // bounded to the reset flows' retries.
  const auto metrics = bed.metrics();
  ASSERT_EQ(metrics.size(), 4u);
  double sum = 0.0;
  for (const auto& m : metrics) {
    sum += m.weight;
    const auto cw = bed.controller()->weight_of(m.addr);
    ASSERT_TRUE(cw.has_value()) << m.addr.str();
    EXPECT_NEAR(*cw, m.weight, 2e-3) << m.addr.str();
    EXPECT_GT(m.client_requests, 0u) << m.addr.str();
  }
  EXPECT_NEAR(sum, 1.0, 1e-3);

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
  EXPECT_EQ(run.drains_completed, 2 * pool->mux_count());

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

  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(10_s);
  EXPECT_EQ(pool->draining_count(), 0u);
  {
    const auto c = pool->counters();
    EXPECT_EQ(c.flows_reset_by_failure, 0u);
    EXPECT_EQ(c.no_backend_drops, 0u);
    EXPECT_EQ(c.flows_dropped_by_removal, 0u);
  }

  ASSERT_TRUE(bed.fail_dip(0));
  bed.run_for(10_s);
  EXPECT_EQ(bed.dip_count(), 3u);

  const auto metrics = bed.metrics();
  double sum = 0.0;
  for (const auto& m : metrics) {
    sum += m.weight;
    EXPECT_GT(m.client_requests, 0u);
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
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
  {
    const auto dm = bed.dataplane_counters();
    EXPECT_GT(dm.stateless_picks, 0u);
    EXPECT_EQ(dm.affinity_breaks, 0u);
  }

  // Rolling graceful scale-in under open traffic.
  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(15_s);
  ASSERT_TRUE(bed.scale_in(0));
  bed.run_for(15_s);
  EXPECT_EQ(bed.dip_count(), 3u);
  EXPECT_EQ(pool->draining_count(), 0u);

  const auto dm = bed.dataplane_counters();
  EXPECT_EQ(dm.drains_completed, 2 * pool->mux_count());
  // The invariant this subsystem exists for: graceful drains with the
  // stateless path on re-home zero flows. Anything caught mid-drain shows
  // up as an avoided break (an adoption), never a real one.
  EXPECT_EQ(dm.affinity_breaks, 0u);
  EXPECT_EQ(dm.flows_reset_by_failure, 0u);
  EXPECT_EQ(dm.flows_dropped_by_removal, 0u);
  EXPECT_EQ(dm.no_backend_drops, 0u);
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
