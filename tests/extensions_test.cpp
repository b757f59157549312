// Tests for the paper's extension points: the minimize-max-latency ILP
// objective (Fig. 7 footnote 2) and multi-VIP coordination with
// prioritized ILP slots (§5).
#include <gtest/gtest.h>

#include "core/ilp_weights.hpp"
#include "core/multi_vip.hpp"
#include "lb/lb_controller.hpp"
#include "server/dip_server.hpp"
#include "store/kv_server.hpp"
#include "testbed/synthetic.hpp"
#include "testbed/testbed.hpp"
#include "util/weight.hpp"
#include "workload/client.hpp"

namespace klb::core {
namespace {

using namespace util::literals;

TEST(MinMaxObjective, BoundsWorstDipLatency) {
  // One fast DIP, two slow ones. Sum-objective loads the fast one harder;
  // min-max should not leave any DIP far above the others.
  std::vector<fit::WeightLatencyCurve> curves{
      testbed::synthetic_curve(0.9, 1.0),   // big, cheap
      testbed::synthetic_curve(0.35, 3.0),  // small, expensive
      testbed::synthetic_curve(0.35, 3.0),
  };
  std::vector<const fit::WeightLatencyCurve*> ptrs;
  for (const auto& c : curves) ptrs.push_back(&c);

  IlpWeightsConfig sum_cfg;
  IlpWeightsConfig max_cfg;
  max_cfg.objective = IlpObjective::kMaxLatency;

  const auto sum_r = IlpWeights(sum_cfg).compute(ptrs);
  const auto max_r = IlpWeights(max_cfg).compute(ptrs);
  ASSERT_TRUE(sum_r.feasible);
  ASSERT_TRUE(max_r.feasible);

  auto worst = [&](const IlpWeightsResult& r) {
    double w = 0.0;
    for (std::size_t d = 0; d < curves.size(); ++d)
      w = std::max(w, curves[d].latency_at(r.weights[d]));
    return w;
  };
  // The min-max solution's worst DIP is no worse than the sum solution's.
  EXPECT_LE(worst(max_r), worst(sum_r) + 1e-6);
  // And the reported objective equals the worst per-DIP latency (within
  // grid-normalization slack).
  EXPECT_NEAR(max_r.estimated_total_latency_ms, worst(max_r),
              0.35 * worst(max_r));
}

TEST(MinMaxObjective, AgreesWithSumWhenSymmetric) {
  // Identical DIPs: both objectives pick an equal split.
  std::vector<fit::WeightLatencyCurve> curves{
      testbed::synthetic_curve(0.6, 2.0), testbed::synthetic_curve(0.6, 2.0)};
  std::vector<const fit::WeightLatencyCurve*> ptrs{&curves[0], &curves[1]};

  IlpWeightsConfig max_cfg;
  max_cfg.objective = IlpObjective::kMaxLatency;
  const auto r = IlpWeights(max_cfg).compute(ptrs);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.weights[0], 0.5, 0.08);
  EXPECT_NEAR(r.weights[1], 0.5, 0.08);
}

TEST(MinMaxObjective, RespectsTheta) {
  std::vector<fit::WeightLatencyCurve> curves{
      testbed::synthetic_curve(0.9, 1.0), testbed::synthetic_curve(0.5, 1.0)};
  std::vector<const fit::WeightLatencyCurve*> ptrs{&curves[0], &curves[1]};
  IlpWeightsConfig cfg;
  cfg.objective = IlpObjective::kMaxLatency;
  cfg.theta = 0.2;
  const auto r = IlpWeights(cfg).compute(ptrs);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(std::fabs(r.weights[0] - r.weights[1]), 0.2 + 0.05);
}

// --- Multi-VIP coordination ---------------------------------------------------

struct TwoVipFixture {
  sim::Simulation sim{71};
  net::Network net{sim};
  std::shared_ptr<store::KvEngine> engine =
      std::make_shared<store::KvEngine>([this] { return sim.now(); });
  store::KvServer kv_server{net, net::IpAddr{10, 3, 0, 2}, engine};
  store::LatencyStore store{engine};

  struct Vip {
    net::IpAddr vip;
    std::vector<std::unique_ptr<server::DipServer>> dips;
    std::vector<net::IpAddr> dip_addrs;
    std::unique_ptr<lb::Mux> mux;
    std::unique_ptr<lb::LbController> lb;
    std::unique_ptr<klm::Klm> klm;
    std::unique_ptr<workload::ClientPool> clients;
  };
  std::vector<Vip> vips;

  void add_vip(std::uint8_t id, int n_dips, double rps) {
    Vip v;
    v.vip = net::IpAddr{10, 0, 0, id};
    for (int i = 0; i < n_dips; ++i) {
      auto dip = std::make_unique<server::DipServer>(
          net, net::IpAddr{10, 1, id, static_cast<std::uint8_t>(i + 1)},
          server::DipConfig{});
      v.dip_addrs.push_back(dip->address());
      v.dips.push_back(std::move(dip));
    }
    v.mux = std::make_unique<lb::Mux>(net, v.vip, lb::make_policy("wrr"));
    lb::PoolProgram bootstrap(v.mux->issue_version());
    const auto units = util::normalize_to_units(
        std::vector<double>(v.dip_addrs.size(), 1.0));
    for (std::size_t i = 0; i < v.dip_addrs.size(); ++i)
      bootstrap.add(v.dip_addrs[i], units[i], lb::BackendState::kActive,
                    v.dips[i].get());
    v.mux->apply_program(bootstrap);
    v.lb = std::make_unique<lb::LbController>(sim, *v.mux);
    v.klm = std::make_unique<klm::Klm>(
        net, net::IpAddr{10, 3, id, 1}, v.vip, v.dip_addrs,
        net::IpAddr{10, 3, 0, 2}, klm::KlmConfig{});
    v.klm->start();
    workload::ClientConfig ccfg;
    ccfg.requests_per_session = 1.0;
    v.clients = std::make_unique<workload::ClientPool>(
        net, net::IpAddr{10, 2, id, 1}, v.vip,
        workload::TrafficPattern(rps), ccfg);
    v.clients->start();
    vips.push_back(std::move(v));
  }
};

TEST(MultiVip, BothVipsConvergeUnderSharedCoordinator) {
  TwoVipFixture f;
  f.add_vip(1, 3, 600.0);
  f.add_vip(2, 2, 400.0);

  MultiVipConfig cfg;
  cfg.max_ilp_per_round = 1;           // force slot contention
  cfg.controller.refresh_interval = util::SimTime::zero();  // stable check
  MultiVipCoordinator coord(f.sim, cfg);
  coord.add_vip(f.vips[0].vip, f.vips[0].dip_addrs, f.store, *f.vips[0].lb);
  coord.add_vip(f.vips[1].vip, f.vips[1].dip_addrs, f.store, *f.vips[1].lb);
  coord.start();

  bool ready = false;
  for (int i = 0; i < 90 && !ready; ++i) {
    f.sim.run_for(util::SimTime::seconds(10));
    ready = coord.all_ready();
  }
  EXPECT_TRUE(ready) << "vip0 ready=" << coord.controller(0).all_ready()
                     << " vip1 ready=" << coord.controller(1).all_ready();

  // Both VIPs got ILP assignments despite the single shared slot.
  EXPECT_GE(coord.controller(0).ilp_runs(), 1u);
  EXPECT_GE(coord.controller(1).ilp_runs(), 1u);

  // Weight vectors are normalized per VIP.
  for (std::size_t v = 0; v < coord.vip_count(); ++v) {
    double sum = 0.0;
    for (const auto w : coord.controller(v).current_weights()) sum += w;
    EXPECT_NEAR(sum, 1.0, 0.02) << "vip " << v;
  }

  for (auto& v : f.vips) {
    v.clients->stop();
    v.klm->stop();
  }
  coord.stop();
}

TEST(MultiVip, DirtyVipGetsTheSlotFirst) {
  TwoVipFixture f;
  f.add_vip(1, 2, 400.0);
  f.add_vip(2, 2, 400.0);

  MultiVipConfig cfg;
  cfg.max_ilp_per_round = 1;
  cfg.controller.refresh_interval = util::SimTime::zero();
  MultiVipCoordinator coord(f.sim, cfg);
  coord.add_vip(f.vips[0].vip, f.vips[0].dip_addrs, f.store, *f.vips[0].lb);
  coord.add_vip(f.vips[1].vip, f.vips[1].dip_addrs, f.store, *f.vips[1].lb);
  coord.start();
  bool ready = false;
  for (int i = 0; i < 90 && !ready; ++i) {
    f.sim.run_for(util::SimTime::seconds(10));
    ready = coord.all_ready();
  }
  ASSERT_TRUE(ready);

  // Settle both, then dirty only VIP 1: its ILP must rerun on the next
  // coordinated round even though VIP 0 also holds a standing claim.
  f.sim.run_for(util::SimTime::minutes(1));
  const auto runs_before = coord.controller(1).ilp_runs();
  coord.controller(1).mark_dirty();
  f.sim.run_for(cfg.round_interval + util::SimTime::seconds(1));
  EXPECT_GT(coord.controller(1).ilp_runs(), runs_before);

  for (auto& v : f.vips) {
    v.clients->stop();
    v.klm->stop();
  }
  coord.stop();
}

}  // namespace
}  // namespace klb::core
