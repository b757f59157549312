// Solver-pool and multi-VIP control-plane tests: the SolverPool work
// queue and its per-job wait, parallel-vs-serial determinism (a pooled
// coordinator run, which applies each VIP while workers still solve later
// ones, must commit the same sequence with bit-identical weights as a
// serial one), and the coordinator's slot-granting policy (dirty VIPs
// first, least-recently-granted order, no starvation under persistent
// contention).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver_pool.hpp"
#include "testbed/fleet.hpp"

namespace klb::core {
namespace {

// --- SolverPool ---------------------------------------------------------------

void wait_each(SolverPool& pool,
               const std::vector<SolverPool::Ticket>& tickets) {
  for (const auto t : tickets) pool.wait(t);
}

TEST(SolverPool, RunsEverySubmittedJob) {
  SolverPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  std::vector<SolverPool::Ticket> tickets;
  for (int i = 0; i < 200; ++i)
    tickets.push_back(pool.submit(
        [&count] { count.fetch_add(1, std::memory_order_relaxed); }));
  wait_each(pool, tickets);
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.jobs_run(), 200u);
}

TEST(SolverPool, WaitBlocksUntilItsJobHasRun) {
  SolverPool pool(2);
  std::vector<std::atomic<bool>> done(8);
  std::vector<SolverPool::Ticket> tickets;
  for (std::size_t i = 0; i < done.size(); ++i)
    tickets.push_back(pool.submit([&done, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done[i] = true;
    }));
  for (std::size_t i = 0; i < done.size(); ++i) {
    pool.wait(tickets[i]);
    EXPECT_TRUE(done[i].load()) << "job " << i;  // executed, not dequeued
  }
}

TEST(SolverPool, WaitReturnsOnceItsJobFinishesWhileALaterJobBlocks) {
  SolverPool pool(2);
  std::promise<void> latch;
  const auto opened = latch.get_future().share();
  std::atomic<bool> first_done{false}, second_done{false};
  const auto t0 = pool.submit([&] { first_done = true; });
  const auto t1 = pool.submit([&, opened] {
    opened.wait();
    second_done = true;
  });
  pool.wait(t0);  // must not need job 1, which cannot finish yet
  EXPECT_TRUE(first_done.load());
  EXPECT_FALSE(second_done.load());
  latch.set_value();
  pool.wait(t1);
  EXPECT_TRUE(second_done.load());
  pool.wait(t0);  // a finished ticket returns at once
  EXPECT_EQ(pool.jobs_run(), 2u);
}

TEST(SolverPool, DestructorDrainsTheQueue) {
  std::atomic<int> count{0};
  {
    SolverPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 50);
}

TEST(SolverPool, ZeroThreadsPicksHardwareConcurrency) {
  SolverPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(SolverPool, ReusableAcrossWaves) {
  SolverPool pool(3);
  std::atomic<int> count{0};
  SolverPool::Ticket next = 0;
  for (int wave = 0; wave < 10; ++wave) {
    std::vector<SolverPool::Ticket> tickets;
    for (int i = 0; i < 16; ++i) {
      tickets.push_back(pool.submit([&count] { ++count; }));
      EXPECT_EQ(tickets.back(), next++);  // submission order, across waves
    }
    wait_each(pool, tickets);
    EXPECT_EQ(count.load(), (wave + 1) * 16);
  }
}

// --- Parallel == serial determinism -------------------------------------------

MultiVipConfig fleet_cfg(int solver_threads, int max_ilp_per_round = 0) {
  MultiVipConfig cfg;
  cfg.solver_threads = solver_threads;
  cfg.max_ilp_per_round = max_ilp_per_round;  // 0 = unlimited
  return cfg;
}

TEST(MultiVipParallel, PooledWeightsBitIdenticalToSerial) {
  constexpr std::size_t kVips = 24, kDips = 8, kSeed = 7;
  testbed::SyntheticFleet serial(kVips, kDips, fleet_cfg(1), kSeed);
  testbed::SyntheticFleet pooled(kVips, kDips, fleet_cfg(4), kSeed);
  ASSERT_EQ(pooled.coordinator().solver_threads(), 4u);

  for (int round = 0; round < 5; ++round) {
    serial.mark_all_dirty();
    pooled.mark_all_dirty();
    serial.tick_round();
    pooled.tick_round();
    for (std::size_t v = 0; v < kVips; ++v) {
      const auto& ws = serial.coordinator().controller(v).current_weights();
      const auto& wp = pooled.coordinator().controller(v).current_weights();
      ASSERT_EQ(ws.size(), wp.size());
      for (std::size_t d = 0; d < ws.size(); ++d)
        EXPECT_EQ(ws[d], wp[d]) << "round " << round << " vip " << v
                                << " dip " << d;  // exact, not NEAR
      EXPECT_EQ(serial.lb(v).last_units(), pooled.lb(v).last_units());
    }
    // Identical drift applied to both fleets keeps later rounds meaningful.
    for (std::size_t v = 0; v < kVips; ++v) {
      const double delta = 0.8 + 0.05 * static_cast<double>(round);
      auto rescale = [&](testbed::SyntheticFleet& f) {
        auto& ctl = f.coordinator().controller(v);
        auto curve = ctl.curve(round % kDips);
        curve.rescale(delta);
        ctl.inject_ready_curve(round % kDips, std::move(curve));
      };
      rescale(serial);
      rescale(pooled);
    }
  }
}

/// A fleet whose programmers are taps: each forwards to a SinkDataplane
/// and appends (VIP, program version) to one shared log, so the log is
/// the coordinator's commit sequence across all VIPs.
class TapFleet {
 public:
  using Commit = std::pair<std::size_t, std::uint64_t>;

  TapFleet(std::size_t vips, std::size_t dips, int solver_threads,
           std::uint64_t seed)
      : engine_(std::make_shared<store::KvEngine>([this] { return sim_.now(); })),
        store_(engine_) {
    auto cfg = fleet_cfg(solver_threads);
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
  const std::vector<Commit>& log() const { return log_; }
  const testbed::SinkDataplane& lb(std::size_t v) const { return taps_[v]->sink; }

  void tick_round() {
    sim_.run_for(MultiVipConfig{}.round_interval);
    coord_->tick();
  }

 private:
  struct Tap final : lb::PoolProgrammer {
    Tap(std::vector<net::IpAddr> addrs, std::size_t vip, std::vector<Commit>& log)
        : sink(std::move(addrs)), vip(vip), log(log) {}
    std::size_t backend_count() const override { return sink.backend_count(); }
    std::vector<net::IpAddr> backend_addrs() const override {
      return sink.backend_addrs();
    }
    void apply_program(const lb::PoolProgram& program) override {
      log.emplace_back(vip, program.version);
      sink.apply_program(program);
    }

    testbed::SinkDataplane sink;
    std::size_t vip;
    std::vector<Commit>& log;
  };

  sim::Simulation sim_{1};
  std::shared_ptr<store::KvEngine> engine_;
  store::LatencyStore store_;
  std::vector<Commit> log_;
  std::vector<std::unique_ptr<Tap>> taps_;
  std::unique_ptr<MultiVipCoordinator> coord_;
};

TEST(MultiVipParallel, PipelinedCommitSequenceMatchesSerial) {
  constexpr std::size_t kVips = 16, kDips = 12, kSeed = 23;
  TapFleet serial(kVips, kDips, 1, kSeed);
  TapFleet two(kVips, kDips, 2, kSeed);
  TapFleet four(kVips, kDips, 4, kSeed);
  ASSERT_EQ(four.coordinator().solver_threads(), 4u);
  TapFleet* fleets[] = {&serial, &two, &four};

  for (int round = 0; round < 6; ++round) {
    for (auto* f : fleets) {
      // A varying dirty subset, so granted VIPs are not contiguous.
      for (std::size_t v = 0; v < kVips; ++v) {
        if ((v + static_cast<std::size_t>(round)) % 3 == 0) continue;
        auto& ctl = f->coordinator().controller(v);
        auto curve = ctl.curve((v + static_cast<std::size_t>(round)) % kDips);
        curve.rescale(0.85 + 0.05 * static_cast<double>(round % 4));
        ctl.inject_ready_curve((v + static_cast<std::size_t>(round)) % kDips,
                               std::move(curve));
      }
      f->tick_round();
    }
    ASSERT_FALSE(serial.log().empty());
    EXPECT_EQ(two.log(), serial.log()) << "round " << round;
    EXPECT_EQ(four.log(), serial.log()) << "round " << round;
    for (std::size_t v = 0; v < kVips; ++v) {
      const auto& ws = serial.coordinator().controller(v).current_weights();
      for (auto* f : {&two, &four}) {
        EXPECT_EQ(f->coordinator().controller(v).current_weights(), ws)
            << "round " << round << " vip " << v;  // exact, not NEAR
        EXPECT_EQ(f->lb(v).last_units(), serial.lb(v).last_units());
      }
    }
  }
}

TEST(MultiVipParallel, SlotBudgetScalesWithSolverThreads) {
  testbed::SyntheticFleet fleet(12, 4, fleet_cfg(3, 2), 3);
  EXPECT_EQ(fleet.coordinator().slot_budget(), 6);  // 2 per thread x 3
  fleet.mark_all_dirty();
  fleet.tick_round();
  std::uint64_t solved = 0;
  for (std::size_t v = 0; v < 12; ++v)
    solved += fleet.coordinator().controller(v).ilp_runs();
  EXPECT_EQ(solved, 6u);
}

// --- Slot-granting fairness ---------------------------------------------------

TEST(MultiVipFairness, PersistentlyDirtyVipsShareSlotsEvenly) {
  constexpr std::size_t kVips = 8;
  testbed::SyntheticFleet fleet(kVips, 4, fleet_cfg(1, 2), 5);  // 2 slots/round
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
  testbed::SyntheticFleet fleet(6, 4, fleet_cfg(1, 2), 9);
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
  testbed::SyntheticFleet fleet(4, 4, fleet_cfg(1, 1), 11);  // 1 slot/round
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
