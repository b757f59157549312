// Testbed composition tests: topology wiring, capacity accounting, static
// weight programming, metrics plumbing, and the synthetic curve helper.
#include <gtest/gtest.h>

#include "testbed/synthetic.hpp"
#include "testbed/testbed.hpp"

namespace klb::testbed {
namespace {

using namespace util::literals;

TEST(Specs, Table3PoolComposition) {
  const auto specs = table3_specs();
  ASSERT_EQ(specs.size(), 30u);
  int ds1 = 0, ds2 = 0, ds3 = 0, f8 = 0;
  for (const auto& s : specs) {
    if (s.vm.name == "DS1v2") ++ds1;
    if (s.vm.name == "DS2v2") ++ds2;
    if (s.vm.name == "DS3v2") ++ds3;
    if (s.vm.name == "F8sv2") ++f8;
  }
  EXPECT_EQ(ds1, 16);
  EXPECT_EQ(ds2, 8);
  EXPECT_EQ(ds3, 4);
  EXPECT_EQ(f8, 2);
}

TEST(Testbed, HealthyCapacityMatchesVmMath) {
  TestbedConfig cfg;
  cfg.seed = 61;
  Testbed bed(table3_specs(), cfg);
  // 16*1 + 8*2 + 4*4 cores at 1000/3 rps/core + 2*8 cores at 1.18x.
  const double expected =
      (16.0 + 16.0 + 16.0) * (1000.0 / 3.0) + 16.0 * 1.18 * (1000.0 / 3.0);
  EXPECT_NEAR(bed.healthy_capacity_rps(), expected, 1.0);
  EXPECT_NEAR(bed.offered_rps(), 0.70 * expected, 1.0);
}

TEST(Testbed, StaticWeightsReachTheMux) {
  TestbedConfig cfg;
  cfg.seed = 62;
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);
  bed.set_static_weights({1.0, 2.0, 7.0});
  bed.run_for(1_s);  // programming delay elapses
  const auto units = bed.mux().weight_units();
  EXPECT_EQ(units[0], util::kWeightScale / 10);
  EXPECT_EQ(units[1], 2 * util::kWeightScale / 10);
  EXPECT_EQ(units[2], 7 * util::kWeightScale / 10);
}

TEST(Testbed, MetricsAttributeTrafficPerDip) {
  TestbedConfig cfg;
  cfg.seed = 63;
  cfg.policy = "rr";
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);
  bed.run_for(10_s);
  const auto metrics = bed.metrics();
  ASSERT_EQ(metrics.size(), 3u);
  for (const auto& m : metrics) {
    EXPECT_GT(m.client_requests, 500u);   // RR splits ~evenly
    EXPECT_GT(m.cpu_utilization, 0.2);
    EXPECT_GT(m.client_latency_ms, 1.0);
  }
  EXPECT_GT(bed.overall_p99_ms(), bed.overall_latency_ms());
}

TEST(Testbed, ResetStatsClearsWindows) {
  TestbedConfig cfg;
  cfg.seed = 64;
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);
  bed.run_for(5_s);
  EXPECT_GT(bed.clients().recorder().overall().count(), 0u);
  bed.reset_stats();
  EXPECT_EQ(bed.clients().recorder().overall().count(), 0u);
}

// reset_stats() opens a measurement window for DIPs and clients only: the
// dataplane counters are cumulative, so a reader after a reset (here, one
// that follows a failure) still sees the flows that failure reset.
TEST(TestbedTest, ResetStatsKeepsDataplaneCountersCumulative) {
  TestbedConfig cfg;
  cfg.seed = 67;
  cfg.mux_count = 2;
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);
  bed.run_for(5_s);
  ASSERT_TRUE(bed.fail_dip(0));
  bed.run_for(2_s);

  const auto before = bed.dataplane_counters();
  EXPECT_GT(before.total_forwarded, 0u);
  EXPECT_GT(before.flows_reset_by_failure, 0u);
  bed.reset_stats();
  EXPECT_EQ(bed.clients().recorder().overall().count(), 0u);
  EXPECT_EQ(bed.dataplane_counters(), before);
}

// mux_count > 1 swaps the single Mux for an ECMP MuxPool behind the same
// VIP: traffic spreads across members, static weights land on every one
// through the one delayed transaction, and the maglev snapshots stay
// pointer-equal pool-wide under live load.
TEST(Testbed, MuxPoolServesTrafficEndToEnd) {
  TestbedConfig cfg;
  cfg.seed = 65;
  cfg.mux_count = 3;
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);
  auto* pool = bed.mux_pool();
  ASSERT_NE(pool, nullptr);

  bed.set_static_weights({1.0, 2.0, 7.0});
  bed.run_for(10_s);

  for (std::size_t k = 0; k < pool->mux_count(); ++k) {
    EXPECT_GT(pool->mux(k).counters().total_forwarded, 0u);
    EXPECT_EQ(pool->mux(k).weight_units(),
              (std::vector<std::int64_t>{1000, 2000, 7000}));
    EXPECT_EQ(pool->table_snapshot(k), pool->table_snapshot(0));
  }
  const auto metrics = bed.metrics();
  ASSERT_EQ(metrics.size(), 3u);
  std::uint64_t requests = 0;
  for (const auto& m : metrics) requests += m.client_requests;
  EXPECT_GT(requests, 1000u);
  // The heavy DIP carries visibly more than the light one.
  EXPECT_GT(metrics[2].client_requests, 3 * metrics[0].client_requests);
}

// After churn the dataplane's registration order ([A(draining), B, C, D])
// diverges from the live spec list ([B, C, D]) — a positional weight join
// would hand every DIP its neighbour's weight. metrics() must key by
// address and report only the live pool.
TEST(TestbedChurn, MetricsStayAddressKeyedThroughChurn) {
  TestbedConfig cfg;
  cfg.seed = 66;
  cfg.policy = "wrr";
  cfg.load_fraction = 0.0;  // quiescent: the test drives one manual flow
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);

  // Park everything except DIP A so the manual flow deterministically pins
  // there; the flow never FINs, so A's drain below stays pending.
  bed.set_static_weights({1.0, 0.0, 0.0});
  bed.run_for(1_s);
  net::Message req;
  req.type = net::MsgType::kHttpRequest;
  req.tuple.src_ip = net::IpAddr{10, 2, 0, 1};
  req.tuple.dst_ip = bed.vip();
  req.tuple.src_port = 50'000;
  req.tuple.dst_port = 80;
  req.conn_id = 9'999;
  req.req_id = 1;
  net::HttpRequest http;
  http.method = "GET";
  http.target = "/work";
  req.payload = http.serialize();
  bed.network().send(bed.vip(), req);
  bed.run_for(1_s);
  ASSERT_EQ(bed.mux().affinity_size(), 1u);
  ASSERT_EQ(bed.mux().backends()[0].counters->connections, 1u);

  bed.set_static_weights({1.0, 2.0, 7.0});
  bed.run_for(1_s);

  const auto a_addr = bed.dip(0).address();
  ASSERT_TRUE(bed.scale_in(0));                    // A drains (flow pinned)
  const auto new_idx = bed.scale_out(DipSpec{});   // D joins in the same breath
  const auto new_addr = bed.dip(new_idx).address();
  bed.run_for(1_s);  // programming delay elapses; A still draining

  ASSERT_EQ(bed.mux().draining_count(), 1u);
  const auto metrics = bed.metrics();
  ASSERT_EQ(metrics.size(), 3u);
  double sum = 0.0;
  for (const auto& m : metrics) {
    sum += m.weight;
    EXPECT_NE(m.addr, a_addr);  // the leaver is not part of the live report
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // B and C keep their 2:7 ratio; the newcomer joined at the mean share.
  EXPECT_NEAR(metrics[1].weight / metrics[0].weight, 3.5, 0.01);
  EXPECT_EQ(metrics[2].addr, new_addr);
  EXPECT_NEAR(metrics[2].weight, 4.5 / 13.5, 0.01);

  // index_of tracks the live list, not registration order.
  EXPECT_FALSE(bed.index_of(a_addr).has_value());
  EXPECT_EQ(bed.index_of(new_addr), std::optional<std::size_t>{2});
  EXPECT_EQ(bed.retired_count(), 1u);
}

// Power-of-two-choices reads each backend's server. A DIP admitted by a
// program (scale-out) must reach the Mux with its server, like the
// bootstrap pool does; without it P2 reads the newcomer's CPU as 0 and
// hands it every pair it is drawn into.
TEST(TestbedChurn, ScaleOutCarriesTheServerForP2) {
  TestbedConfig cfg;
  cfg.seed = 68;
  cfg.policy = "p2";
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);
  const auto idx = bed.scale_out(DipSpec{});
  const auto addr = bed.dip(idx).address();
  bed.run_for(1_s);  // programming delay elapses

  const auto backends = bed.mux().backends();
  ASSERT_EQ(backends.size(), 4u);
  for (const auto& b : backends) EXPECT_NE(b.server, nullptr) << b.addr.str();
  EXPECT_EQ(backends.back().addr, addr);
  EXPECT_EQ(backends.back().server, &bed.dip(idx));
}

TEST(TestbedChurn, CapacityAndOfferedLoadTrackLiveList) {
  TestbedConfig cfg;
  cfg.seed = 67;
  Testbed bed(three_dip_specs(1.0, 1.0, 1.0), cfg);
  const double per_core = 1000.0 / 3.0;
  EXPECT_NEAR(bed.healthy_capacity_rps(), 3 * per_core, 1e-6);
  EXPECT_NEAR(bed.offered_rps(), 0.70 * 3 * per_core, 1e-6);

  DipSpec f8;
  f8.vm = server::kF8sv2;
  const auto idx = bed.scale_out(f8);
  EXPECT_EQ(idx, 3u);
  EXPECT_NEAR(bed.healthy_capacity_rps(), (3 + 8 * 1.18) * per_core, 1e-6);
  EXPECT_NEAR(bed.offered_rps(), 0.70 * bed.healthy_capacity_rps(), 1e-6);

  ASSERT_TRUE(bed.fail_dip(0));
  EXPECT_EQ(bed.dip_count(), 3u);
  EXPECT_NEAR(bed.healthy_capacity_rps(), (2 + 8 * 1.18) * per_core, 1e-6);
  EXPECT_NEAR(bed.offered_rps(), 0.70 * bed.healthy_capacity_rps(), 1e-6);

  EXPECT_FALSE(bed.fail_dip(99));  // out of range is loud, not UB

  // Fixed-load mode: the construction-time offered rate survives churn.
  TestbedConfig fixed = cfg;
  fixed.rescale_load_on_churn = false;
  Testbed bed2(three_dip_specs(1.0, 1.0, 1.0), fixed);
  const double offered0 = bed2.offered_rps();
  bed2.scale_out(f8);
  EXPECT_NEAR(bed2.offered_rps(), offered0, 1e-9);
}

TEST(SyntheticCurve, MatchesExplorerSemantics) {
  const auto curve = synthetic_curve(0.2, 1.5);
  ASSERT_TRUE(curve.fitted());
  EXPECT_NEAR(curve.wmax(), 0.2, 1e-9);
  EXPECT_NEAR(curve.latency_at(0.0), 1.5, 0.15);
  // ~5x l0 at wmax (the pseudo-drop point the explorer would find).
  EXPECT_NEAR(curve.latency_at(0.2), 7.5, 0.8);
  // Monotone.
  EXPECT_LT(curve.latency_at(0.05), curve.latency_at(0.15));
}

class SyntheticCurveSweep : public ::testing::TestWithParam<double> {};

TEST_P(SyntheticCurveSweep, InverseConsistentAcrossCapacities) {
  const double wmax = GetParam();
  const auto curve = synthetic_curve(wmax);
  for (double f = 0.2; f <= 1.0; f += 0.2) {
    const double w = f * wmax;
    const double l = curve.latency_at(w);
    EXPECT_NEAR(curve.weight_for(l), w, wmax * 0.05) << "f=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, SyntheticCurveSweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.25, 0.5, 0.9));

}  // namespace
}  // namespace klb::testbed
