// Multi-VIP coordinator tests: the commit order of a round (each dirty
// VIP commits once, in ascending VIP order) and the slot-granting policy
// (dirty VIPs first, least-recently-granted order, no starvation under
// persistent contention).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "testbed/fleet.hpp"

namespace klb::core {
namespace {

MultiVipConfig fleet_cfg(int max_ilp_per_round) {
  MultiVipConfig cfg;
  cfg.max_ilp_per_round = max_ilp_per_round;  // <= 0 = unlimited
  return cfg;
}

/// A fleet whose programmers are taps: each forwards to a SinkDataplane
/// and appends its VIP to one shared log, so the log is the
/// coordinator's commit sequence across all VIPs.
class TapFleet {
 public:
  TapFleet(std::size_t vips, std::size_t dips, std::uint64_t seed)
      : engine_(std::make_shared<store::KvEngine>([this] { return sim_.now(); })),
        store_(engine_) {
    auto cfg = fleet_cfg(0);
    cfg.controller.refresh_interval = util::SimTime::zero();
    coord_ = std::make_unique<MultiVipCoordinator>(sim_, cfg);
    util::Rng rng(seed);
    const double base = 1.25 / static_cast<double>(dips);
    for (std::size_t v = 0; v < vips; ++v) {
      std::vector<net::IpAddr> addrs;
      for (std::size_t d = 0; d < dips; ++d)
        addrs.emplace_back(static_cast<std::uint32_t>(0x0a800000 + (v << 8) + d));
      taps_.push_back(std::make_unique<Tap>(addrs, v, log_));
      coord_->add_vip(net::IpAddr(static_cast<std::uint32_t>(0x0a000001 + v)),
                      addrs, store_, *taps_.back());
      for (std::size_t d = 0; d < dips; ++d)
        coord_->controller(v).inject_ready_curve(
            d, testbed::synthetic_curve(base * (0.5 + 1.5 * rng.uniform()),
                                        1.0 + 2.0 * rng.uniform()));
    }
  }

  MultiVipCoordinator& coordinator() { return *coord_; }
  std::vector<std::size_t>& log() { return log_; }

  void tick_round() {
    sim_.run_for(MultiVipConfig{}.round_interval);
    coord_->tick();
  }

 private:
  struct Tap final : lb::PoolProgrammer {
    Tap(std::vector<net::IpAddr> addrs, std::size_t vip,
        std::vector<std::size_t>& log)
        : sink(std::move(addrs)), vip(vip), log(log) {}
    std::size_t backend_count() const override { return sink.backend_count(); }
    std::vector<net::IpAddr> backend_addrs() const override {
      return sink.backend_addrs();
    }
    void apply_program(const lb::PoolProgram& program) override {
      log.push_back(vip);
      sink.apply_program(program);
    }

    testbed::SinkDataplane sink;
    std::size_t vip;
    std::vector<std::size_t>& log;
  };

  sim::Simulation sim_{1};
  std::shared_ptr<store::KvEngine> engine_;
  store::LatencyStore store_;
  std::vector<std::size_t> log_;
  std::vector<std::unique_ptr<Tap>> taps_;
  std::unique_ptr<MultiVipCoordinator> coord_;
};

// fleet_control's freshness (round start -> each VIP's program live)
// depends on this order: a round commits every dirty VIP exactly once, in
// ascending VIP order, so no VIP waits behind a later VIP's solve.
TEST(MultiVipCoordinator, RoundCommitsEachDirtyVipOnceInVipOrder) {
  constexpr std::size_t kVips = 16, kDips = 12, kSeed = 23;
  TapFleet fleet(kVips, kDips, kSeed);

  for (int round = 0; round < 6; ++round) {
    const auto r = static_cast<std::size_t>(round);
    // A varying dirty subset, so dirty VIPs are not contiguous. Round 0
    // also carries every VIP's initial curves, so all of them are dirty.
    std::vector<std::size_t> dirty;
    for (std::size_t v = 0; v < kVips; ++v) {
      if ((v + r) % 3 == 0) {
        if (round == 0) dirty.push_back(v);
        continue;
      }
      auto& ctl = fleet.coordinator().controller(v);
      auto curve = ctl.curve((v + r) % kDips);
      curve.rescale(0.85 + 0.05 * static_cast<double>(round % 4));
      ctl.inject_ready_curve((v + r) % kDips, std::move(curve));
      dirty.push_back(v);
    }
    fleet.log().clear();
    fleet.tick_round();

    EXPECT_EQ(fleet.log(), dirty) << "round " << round;
    for (std::size_t v = 0; v < kVips; ++v)
      EXPECT_FALSE(fleet.coordinator().controller(v).ilp_dirty())
          << "round " << round << " vip " << v;
  }
}

// --- Slot-granting fairness ---------------------------------------------------

TEST(MultiVipFairness, PersistentlyDirtyVipsShareSlotsEvenly) {
  constexpr std::size_t kVips = 8;
  testbed::SyntheticFleet fleet(kVips, 4, fleet_cfg(2), 5);  // 2 slots/round
  for (int round = 0; round < 12; ++round) {
    fleet.mark_all_dirty();  // every VIP contends every round
    fleet.tick_round();
  }
  // 12 rounds x 2 slots = 24 grants over 8 VIPs: exactly 3 each.
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (std::size_t v = 0; v < kVips; ++v) {
    const auto runs = fleet.coordinator().controller(v).ilp_runs();
    lo = std::min(lo, runs);
    hi = std::max(hi, runs);
  }
  EXPECT_EQ(lo, 3u) << "a VIP was starved";
  EXPECT_EQ(hi, 3u) << "a VIP was favoured";
  EXPECT_EQ(fleet.coordinator().ilp_grants(), 24u);
}

TEST(MultiVipFairness, DirtyFirstNoGrantsWastedOnCleanVips) {
  testbed::SyntheticFleet fleet(6, 4, fleet_cfg(2), 9);
  fleet.mark_all_dirty();
  // Rounds 1-3 drain the initial dirty backlog (2 per round).
  for (int round = 0; round < 3; ++round) fleet.tick_round();
  EXPECT_EQ(fleet.coordinator().ilp_grants(), 6u);

  // All clean now: a round must grant nothing (slots are not burned on
  // clean VIPs the way the fixed-slot design did).
  fleet.tick_round();
  EXPECT_EQ(fleet.coordinator().ilp_grants(), 6u);

  // One VIP dirties: it gets a slot on the very next round even though
  // every other VIP holds an older grant stamp.
  fleet.coordinator().controller(4).mark_dirty();
  const auto runs_before = fleet.coordinator().controller(4).ilp_runs();
  fleet.tick_round();
  EXPECT_EQ(fleet.coordinator().controller(4).ilp_runs(), runs_before + 1);
  EXPECT_EQ(fleet.coordinator().ilp_grants(), 7u);
}

TEST(MultiVipFairness, LeastRecentlyGrantedVipWinsTheTie) {
  testbed::SyntheticFleet fleet(4, 4, fleet_cfg(1), 11);  // 1 slot/round
  fleet.mark_all_dirty();
  // Rounds grant VIP 0, 1, 2, 3 in order (equal dirt, FIFO by last grant).
  std::vector<std::uint64_t> expect_runs(4, 0);
  for (std::size_t round = 0; round < 4; ++round) {
    fleet.mark_all_dirty();
    fleet.tick_round();
    expect_runs[round] += 1;
    for (std::size_t v = 0; v < 4; ++v)
      EXPECT_EQ(fleet.coordinator().controller(v).ilp_runs(), expect_runs[v])
          << "round " << round << " vip " << v;
  }
}

}  // namespace
}  // namespace klb::core
