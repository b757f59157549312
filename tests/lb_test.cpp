// LB dataplane tests: policy selection semantics (including weighted
// distribution properties), MUX affinity/FIN accounting, transactional
// pool programming (PoolProgram versions, delay, supersession), and DNS
// traffic-manager behaviour.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/drain.hpp"
#include "lb/dns_lb.hpp"
#include "lb/lb_controller.hpp"
#include "lb/mux.hpp"
#include "lb/policy.hpp"
#include "lb/pool_program.hpp"
#include "store/latency_store.hpp"
#include "util/weight.hpp"

namespace klb::lb {
namespace {

using namespace util::literals;

std::vector<BackendView> make_backends(std::vector<std::int64_t> weights) {
  std::vector<BackendView> out;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    BackendView v;
    v.addr = net::IpAddr{10, 1, 0, static_cast<std::uint8_t>(i + 1)};
    v.weight_units = weights[i];
    out.push_back(v);
  }
  return out;
}

net::FiveTuple tuple_with_port(std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr{10, 2, 0, 1};
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
}

TEST(Policy, FactoryKnowsAllNames) {
  for (const std::string name :
       {"rr", "wrr", "lc", "wlc", "random", "wrandom", "p2", "hash"}) {
    EXPECT_EQ(make_policy(name)->name(), name);
  }
  EXPECT_THROW(make_policy("nope"), std::invalid_argument);
}

TEST(Policy, RoundRobinCycles) {
  RoundRobin rr;
  util::Rng rng(1);
  auto backends = make_backends({1, 1, 1});
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i)
    picks.push_back(rr.pick(tuple_with_port(0), backends, rng));
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Policy, RoundRobinSkipsDisabled) {
  RoundRobin rr;
  util::Rng rng(1);
  auto backends = make_backends({1, 1, 1});
  backends[1].enabled = false;
  for (int i = 0; i < 4; ++i)
    EXPECT_NE(rr.pick(tuple_with_port(0), backends, rng), 1u);
}

TEST(Policy, SmoothWrrMatchesWeightsExactly) {
  SmoothWeightedRoundRobin wrr;
  util::Rng rng(1);
  auto backends = make_backends({5000, 3000, 2000});  // 0.5 / 0.3 / 0.2
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 1000; ++i)
    counts[wrr.pick(tuple_with_port(0), backends, rng)]++;
  EXPECT_EQ(counts[0], 500);
  EXPECT_EQ(counts[1], 300);
  EXPECT_EQ(counts[2], 200);
}

TEST(Policy, SmoothWrrInterleaves) {
  // Smooth WRR spreads the heavy backend: naive WRR emits 5 a's in a row
  // for (5,1,1); smooth caps the run at 4 (across the cycle boundary).
  SmoothWeightedRoundRobin wrr;
  util::Rng rng(1);
  auto backends = make_backends({5, 1, 1});
  int longest_run = 0;
  int run = 0;
  std::size_t prev = kNoBackend;
  for (int i = 0; i < 70; ++i) {
    const auto p = wrr.pick(tuple_with_port(0), backends, rng);
    run = (p == prev) ? run + 1 : 1;
    longest_run = std::max(longest_run, run);
    prev = p;
  }
  EXPECT_LE(longest_run, 4);
}

TEST(Policy, SmoothWrrZeroWeightExcluded) {
  SmoothWeightedRoundRobin wrr;
  util::Rng rng(1);
  auto backends = make_backends({1000, 0, 1000});
  for (int i = 0; i < 50; ++i)
    EXPECT_NE(wrr.pick(tuple_with_port(0), backends, rng), 1u);
}

TEST(Policy, LeastConnectionPicksEmptiest) {
  LeastConnection lc;
  util::Rng rng(1);
  auto backends = make_backends({1, 1, 1});
  backends[0].active_conns = 5;
  backends[1].active_conns = 2;
  backends[2].active_conns = 9;
  EXPECT_EQ(lc.pick(tuple_with_port(0), backends, rng), 1u);
}

TEST(Policy, WeightedLeastConnectionNormalizesByWeight) {
  WeightedLeastConnection wlc;
  util::Rng rng(1);
  auto backends = make_backends({8000, 2000});
  backends[0].active_conns = 8;  // (8+1)/8000 > (1+1)/2000? 1.125e-3 vs 1e-3
  backends[1].active_conns = 1;
  EXPECT_EQ(wlc.pick(tuple_with_port(0), backends, rng), 1u);
  backends[1].active_conns = 2;  // now (8+1)/8000 < (2+1)/2000
  EXPECT_EQ(wlc.pick(tuple_with_port(0), backends, rng), 0u);
}

TEST(Policy, WeightedRandomProportions) {
  WeightedRandom wr;
  util::Rng rng(99);
  auto backends = make_backends({7000, 2000, 1000});
  std::map<std::size_t, int> counts;
  const int n = 50'000;
  for (int i = 0; i < n; ++i)
    counts[wr.pick(tuple_with_port(0), backends, rng)]++;
  EXPECT_NEAR(counts[0], n * 0.7, n * 0.02);
  EXPECT_NEAR(counts[1], n * 0.2, n * 0.02);
  EXPECT_NEAR(counts[2], n * 0.1, n * 0.02);
}

TEST(Policy, HashIsAffineToTuple) {
  HashTuple hash;
  util::Rng rng(1);
  auto backends = make_backends({1, 1, 1});
  const auto t = tuple_with_port(12'345);
  const auto first = hash.pick(t, backends, rng);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(hash.pick(t, backends, rng), first);
  // Different ports spread.
  std::map<std::size_t, int> counts;
  for (std::uint16_t p = 0; p < 3000; ++p)
    counts[hash.pick(tuple_with_port(p), backends, rng)]++;
  for (const auto& [_, c] : counts) EXPECT_GT(c, 800);
}

TEST(Policy, EmptyPoolReturnsNoBackend) {
  RoundRobin rr;
  util::Rng rng(1);
  std::vector<BackendView> none;
  EXPECT_EQ(rr.pick(tuple_with_port(0), none, rng), kNoBackend);
  auto backends = make_backends({1});
  backends[0].enabled = false;
  EXPECT_EQ(rr.pick(tuple_with_port(0), backends, rng), kNoBackend);
}

// --- MUX ---------------------------------------------------------------------

/// Minimal PoolProgrammer that records the last transaction (drain tests).
struct RecordingDataplane : public PoolProgrammer {
  explicit RecordingDataplane(std::vector<net::IpAddr> addrs)
      : addrs_(std::move(addrs)) {}
  std::size_t backend_count() const override { return addrs_.size(); }
  std::vector<net::IpAddr> backend_addrs() const override { return addrs_; }
  void apply_program(const PoolProgram& p) override {
    last_units.clear();
    for (const auto& e : p.entries)
      if (e.state == BackendState::kActive)
        last_units.push_back(e.weight_units);
  }
  std::vector<std::int64_t> last_units;
  std::vector<net::IpAddr> addrs_;
};

/// Commit `dips` at an equal split in one transaction.
void program_equal(PoolProgrammer& dp, const std::vector<net::IpAddr>& dips) {
  PoolProgram p(dp.issue_version());
  const auto units =
      util::normalize_to_units(std::vector<double>(dips.size(), 1.0));
  for (std::size_t i = 0; i < dips.size(); ++i) p.add(dips[i], units[i]);
  dp.apply_program(p);
}

class Sink : public net::Node {
 public:
  void on_message(const net::Message& msg) override { messages.push_back(msg); }
  std::vector<net::Message> messages;
};

struct MuxFixture {
  sim::Simulation sim{11};
  net::Network net{sim};
  net::IpAddr vip{10, 0, 0, 1};
  Sink dip1, dip2;

  MuxFixture() {
    net.attach(net::IpAddr{10, 1, 0, 1}, &dip1);
    net.attach(net::IpAddr{10, 1, 0, 2}, &dip2);
  }

  net::Message request(std::uint16_t port, std::uint64_t conn, std::uint64_t req) {
    net::Message m;
    m.type = net::MsgType::kHttpRequest;
    m.tuple = tuple_with_port(port);
    m.conn_id = conn;
    m.req_id = req;
    return m;
  }
};

TEST(Mux, ForwardsAndPinsConnections) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("rr"));
  program_equal(mux, {net::IpAddr{10, 1, 0, 1}, net::IpAddr{10, 1, 0, 2}});

  // Two requests on the same tuple must go to the same DIP even though RR
  // would alternate.
  f.net.send(f.vip, f.request(1000, 1, 1));
  f.net.send(f.vip, f.request(1000, 1, 2));
  f.sim.run_all();
  EXPECT_EQ(f.dip1.messages.size() + f.dip2.messages.size(), 2u);
  EXPECT_TRUE(f.dip1.messages.empty() || f.dip2.messages.empty());
  EXPECT_EQ(mux.counters().total_forwarded, 2u);
}

TEST(Mux, FinReleasesAffinityAndCount) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("rr"));
  program_equal(mux, {net::IpAddr{10, 1, 0, 1}, net::IpAddr{10, 1, 0, 2}});

  f.net.send(f.vip, f.request(1000, 1, 1));
  f.sim.run_all();
  const std::size_t target = f.dip1.messages.empty() ? 1 : 0;
  EXPECT_EQ(mux.backends()[target].counters->active, 1u);

  net::Message fin;
  fin.type = net::MsgType::kFin;
  fin.tuple = tuple_with_port(1000);
  fin.conn_id = 1;
  f.net.send(f.vip, fin);
  f.sim.run_all();
  EXPECT_EQ(mux.backends()[target].counters->active, 0u);
  // The FIN is forwarded to the DIP.
  EXPECT_EQ(f.dip1.messages.size() + f.dip2.messages.size(), 2u);
}

TEST(Mux, WeightsSteerNewConnections) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  PoolProgram v1(mux.issue_version());
  v1.add(net::IpAddr{10, 1, 0, 1}, 9 * util::kWeightScale / 10)
      .add(net::IpAddr{10, 1, 0, 2}, util::kWeightScale / 10);
  mux.apply_program(v1);

  for (std::uint16_t p = 0; p < 100; ++p)
    f.net.send(f.vip, f.request(static_cast<std::uint16_t>(2000 + p),
                                static_cast<std::uint64_t>(p + 1), 1));
  f.sim.run_all();
  EXPECT_EQ(f.dip1.messages.size(), 90u);
  EXPECT_EQ(f.dip2.messages.size(), 10u);
}

// Parking is programming weight 0: the backend stays in the pool (its
// pinned flows keep being served) but takes no new connection.
TEST(Mux, ParkedBackendGetsNothingNew) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  PoolProgram v1(mux.issue_version());
  v1.add(net::IpAddr{10, 1, 0, 1}, 0)
      .add(net::IpAddr{10, 1, 0, 2}, util::kWeightScale);
  mux.apply_program(v1);
  for (std::uint16_t p = 0; p < 10; ++p)
    f.net.send(f.vip, f.request(static_cast<std::uint16_t>(3000 + p),
                                static_cast<std::uint64_t>(p + 1), 1));
  f.sim.run_all();
  EXPECT_TRUE(f.dip1.messages.empty());
  EXPECT_EQ(f.dip2.messages.size(), 10u);
}

std::int64_t sum_units(const std::vector<std::int64_t>& units) {
  return std::accumulate(units.begin(), units.end(), std::int64_t{0});
}

// --- transactional programming (PoolProgram) --------------------------------

// A stale transaction that commits after a newer one is discarded whole —
// the versioned replacement for the old size-mismatch rejection.
// A failure observed by the dataplane outranks transactions issued before
// the observation: an in-flight pre-failure program (version above the
// last applied one, but issued before fail_backend ran) must not
// resurrect the dead backend at its old weight — that would blackhole the
// corpse's maglev/WRR share until the next post-failure commit. A program
// issued after the failure re-admits it deliberately.
TEST(PoolProgram, PreFailureProgramCannotResurrectFailedBackend) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};

  PoolProgram v1(mux.issue_version());
  v1.add(a, 5000).add(b, 5000);
  mux.apply_program(v1);

  // v2 is issued (and would normally ride the programming delay)...
  PoolProgram v2(mux.issue_version());
  v2.add(a, 4000).add(b, 6000);
  // ...then the dataplane observes a's death before v2 commits.
  ASSERT_TRUE(mux.fail_backend(a));
  ASSERT_EQ(mux.backend_count(), 1u);

  mux.apply_program(v2);  // late commit of the pre-failure view
  EXPECT_EQ(mux.counters().stale_failed_admissions, 1u);
  EXPECT_EQ(mux.backend_count(), 1u);  // the corpse stays out...
  EXPECT_EQ(mux.backend_addr(0), b);
  EXPECT_EQ(mux.weight_units(),
            (std::vector<std::int64_t>{6000}));  // ...the rest applies

  // A program issued after the failure may resurrect the address.
  PoolProgram v3(mux.issue_version());
  v3.add(b, 8000).add(a, 2000);
  mux.apply_program(v3);
  EXPECT_EQ(mux.backend_count(), 2u);
  EXPECT_EQ(mux.counters().stale_failed_admissions, 1u);
  EXPECT_EQ(mux.weight_units(), (std::vector<std::int64_t>{8000, 2000}));
}

TEST(PoolProgram, StaleVersionDiscardedAfterCommit) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};

  PoolProgram v2(2);
  v2.add(a, 1000).add(b, 9000);
  mux.apply_program(v2);
  ASSERT_EQ(mux.applied_version(), 2u);

  PoolProgram v1(1);  // issued earlier, delivered late
  v1.add(a, 7000).add(b, 3000);
  mux.apply_program(v1);

  EXPECT_EQ(mux.counters().superseded_programs, 1u);
  EXPECT_EQ(mux.applied_version(), 2u);
  EXPECT_EQ(mux.weight_units(), (std::vector<std::int64_t>{1000, 9000}));
}

// Supersession holds across a membership change: a stale program listing a
// since-removed backend must not resurrect it (or half-apply anything).
TEST(PoolProgram, StaleVersionDiscardedAcrossMembershipChange) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2}, c{10, 1, 0, 3};

  PoolProgram v1(1);
  v1.add(a, 4000).add(b, 3000).add(c, 3000);
  mux.apply_program(v1);
  ASSERT_EQ(mux.backend_count(), 3u);

  PoolProgram v3(3);  // newest desired pool: c is gone
  v3.add(a, 6000).add(b, 4000);
  mux.apply_program(v3);
  ASSERT_EQ(mux.backend_count(), 2u);

  PoolProgram v2(2);  // stale: still lists c
  v2.add(a, 2000).add(b, 2000).add(c, 6000);
  mux.apply_program(v2);

  EXPECT_EQ(mux.counters().superseded_programs, 1u);
  EXPECT_EQ(mux.backend_count(), 2u);  // c not resurrected
  EXPECT_EQ(mux.weight_units(), (std::vector<std::int64_t>{6000, 4000}));
}

// A backend the program omits is removed; one listed anew is admitted —
// membership and weights are one atomic commit.
TEST(PoolProgram, OmittedBackendRemovedNewcomerAdmitted) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2}, c{10, 1, 0, 3};

  PoolProgram v1(1);
  v1.add(a, 5000).add(b, 5000);
  mux.apply_program(v1);
  const auto id_b = mux.backends()[1].id;

  PoolProgram v2(2);  // a leaves (omitted), c joins
  v2.add(b, 2500).add(c, 7500);
  mux.apply_program(v2);

  ASSERT_EQ(mux.backend_count(), 2u);
  EXPECT_EQ(mux.backend_addr(0), b);
  EXPECT_EQ(mux.backend_addr(1), c);
  EXPECT_EQ(mux.backends()[0].id, id_b);  // stable id survives the transaction
  EXPECT_EQ(mux.weight_units(), (std::vector<std::int64_t>{2500, 7500}));
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

// The old race — weights sized for the old pool landing after a membership
// change — is structurally unreachable now: membership rides the same
// transaction as the weights, and the newer version wins whole.
TEST(LbController, ChurnAndWeightsCannotRace) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2}, c{10, 1, 0, 3};
  program_equal(mux, {a, b});
  LbController ctrl(f.sim, mux, 200_ms);

  PoolProgram weights(ctrl.issue_version());  // weights for the 2-DIP pool...
  weights.add(a, 7000).add(b, 3000);
  ctrl.apply_program(weights);

  PoolProgram grown(ctrl.issue_version());  // ...then a scale-out commit
  grown.add(a, 5000).add(b, 3000).add(c, 2000);
  ctrl.apply_program(grown);

  f.sim.run_all();
  EXPECT_EQ(mux.backend_count(), 3u);
  EXPECT_EQ(mux.weight_units(), (std::vector<std::int64_t>{5000, 3000, 2000}));
  // In-order: nothing discarded.
  EXPECT_EQ(mux.counters().superseded_programs, 0u);
  EXPECT_EQ(sum_units(mux.weight_units()), util::kWeightScale);
}

// Draining through a transaction: the backend is parked immediately, keeps
// serving its pinned flow, and auto-completes to removed on the last FIN.
TEST(Mux, DrainingBackendCompletesOnLastFin) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};
  PoolProgram v1(1);
  v1.add(a, 5000).add(b, 5000);
  mux.apply_program(v1);

  // Pin one flow per backend.
  for (std::uint16_t p = 0; p < 8; ++p)
    f.net.send(f.vip, f.request(static_cast<std::uint16_t>(1000 + p), p, 1));
  f.sim.run_all();
  const auto pinned_on_a = mux.backends()[0].counters->active;
  ASSERT_GT(pinned_on_a, 0u);

  PoolProgram v2(2);
  v2.add(a, 0, BackendState::kDraining).add(b, util::kWeightScale);
  mux.apply_program(v2);
  ASSERT_EQ(mux.backend_count(), 2u);  // still serving pinned flows
  EXPECT_TRUE(mux.backends()[0].draining);
  EXPECT_EQ(mux.weight_units()[0], 0);

  // New connections all land on b while a's flows stay pinned to a.
  for (std::uint16_t p = 0; p < 20; ++p)
    f.net.send(f.vip, f.request(static_cast<std::uint16_t>(3000 + p),
                                static_cast<std::uint64_t>(100 + p), 1));
  f.sim.run_all();
  EXPECT_EQ(mux.backends()[0].counters->active, pinned_on_a);

  // FIN the pinned flows: the drain completes without a single reset.
  for (std::uint16_t p = 0; p < 8; ++p) {
    net::Message fin;
    fin.type = net::MsgType::kFin;
    fin.tuple = tuple_with_port(static_cast<std::uint16_t>(1000 + p));
    f.net.send(f.vip, fin);
  }
  f.sim.run_all();
  EXPECT_EQ(mux.backend_count(), 1u);
  EXPECT_EQ(mux.backend_addr(0), b);
  EXPECT_EQ(mux.counters().drains_completed, 1u);
  EXPECT_EQ(mux.counters().flows_reset_by_failure, 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

// A drain with no pinned flows completes within the same transaction, and
// re-listing a draining backend as Active cancels the drain.
TEST(Mux, DrainLifecycleEdges) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};
  PoolProgram v1(1);
  v1.add(a, 5000).add(b, 5000);
  mux.apply_program(v1);

  PoolProgram v2(2);  // no flows pinned: drain is instant
  v2.add(a, 0, BackendState::kDraining).add(b, util::kWeightScale);
  mux.apply_program(v2);
  EXPECT_EQ(mux.backend_count(), 1u);
  EXPECT_EQ(mux.counters().drains_completed, 1u);

  // Pin a flow on b, condemn it, then change course: re-activate.
  f.net.send(f.vip, f.request(1000, 1, 1));
  f.sim.run_all();
  PoolProgram v3(3);
  v3.add(b, 0, BackendState::kDraining);
  mux.apply_program(v3);
  ASSERT_EQ(mux.backend_count(), 1u);
  EXPECT_TRUE(mux.backends()[0].draining);

  PoolProgram v4(4);
  v4.add(b, util::kWeightScale);
  mux.apply_program(v4);
  EXPECT_FALSE(mux.backends()[0].draining);
  EXPECT_EQ(mux.weight_units()[0], util::kWeightScale);
}

// Regression (ISSUE 5): smooth-WRR credits are index-keyed, and only a
// pool-*size* change used to reset them — a same-size membership swap (one
// removed + one admitted in a single transaction) handed the departed
// backend's accumulated smoothing credit to the newcomer at its index.
TEST(Policy, SmoothWrrSameSizeSwapResetsCredits) {
  SmoothWeightedRoundRobin seasoned;
  util::Rng rng(1);
  auto backends = make_backends({7500, 2500});
  for (int i = 0; i < 3; ++i)
    seasoned.pick(tuple_with_port(0), backends, rng);  // mid-cycle credit

  // Same-size swap: index 1's backend is replaced by a newcomer.
  backends[1].addr = net::IpAddr{10, 1, 0, 99};
  seasoned.invalidate();

  // The seasoned policy must now pick exactly like a fresh one: the
  // newcomer starts at zero credit instead of inheriting the leaver's.
  SmoothWeightedRoundRobin fresh;
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(seasoned.pick(tuple_with_port(0), backends, rng),
              fresh.pick(tuple_with_port(0), backends, rng))
        << "diverged at pick " << i;
}

// The same corruption through the transactional path: a one-commit swap
// (B out, C in, same pool size) must leave the dataplane's WRR in the
// same state as a pool that never knew B.
TEST(Mux, TransactionalSameSizeSwapResetsWrrState) {
  MuxFixture f;
  Mux seasoned(f.net, f.vip, make_policy("wrr"), /*attach_to_vip=*/false);
  Mux fresh(f.net, f.vip, make_policy("wrr"), /*attach_to_vip=*/false);
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2}, c{10, 1, 0, 3};

  PoolProgram v1(1);
  v1.add(a, 7500).add(b, 2500);
  seasoned.apply_program(v1);
  for (std::uint16_t p = 0; p < 3; ++p) {  // accumulate smoothing credit
    net::Message m;
    m.type = net::MsgType::kHttpRequest;
    m.tuple = tuple_with_port(static_cast<std::uint16_t>(500 + p));
    seasoned.on_message(m);
  }

  PoolProgram v2(2);  // same-size swap: b leaves, c joins at b's share
  v2.add(a, 7500).add(c, 2500);
  seasoned.apply_program(v2);
  PoolProgram w1(1);
  w1.add(a, 7500).add(c, 2500);
  fresh.apply_program(w1);

  const auto conns = [](const Mux& m, std::size_t i) {
    return m.backends()[i].counters->connections;
  };
  const auto base_a = conns(seasoned, 0);  // pre-swap history
  const auto base_c = conns(seasoned, 1);
  for (std::uint16_t p = 0; p < 20; ++p) {
    net::Message m;
    m.type = net::MsgType::kHttpRequest;
    m.tuple = tuple_with_port(static_cast<std::uint16_t>(2000 + p));
    seasoned.on_message(m);
    fresh.on_message(m);
    // Identical pick sequences <=> identical per-backend tallies at every
    // step (the newcomer inherited nothing).
    ASSERT_EQ(conns(seasoned, 0) - base_a, conns(fresh, 0))
        << "diverged at connection " << p;
    ASSERT_EQ(conns(seasoned, 1) - base_c, conns(fresh, 1))
        << "diverged at connection " << p;
  }
}

// A weights-only transaction (the drain estimator's kind) reweights the
// backends it lists and leaves membership alone: a scale-out that raced
// through the programming delay is not silently reverted by a stale view.
TEST(PoolProgram, WeightsOnlyDoesNotTouchMembership) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2}, c{10, 1, 0, 3};
  PoolProgram v1(1);
  v1.add(a, 4000).add(b, 3000).add(c, 3000);
  mux.apply_program(v1);

  PoolProgram v2(2);  // estimator's stale 2-DIP view, weights only
  v2.weights_only = true;
  v2.add(a, 8000).add(b, 2000);
  mux.apply_program(v2);

  ASSERT_EQ(mux.backend_count(), 3u);  // c untouched
  EXPECT_EQ(mux.weight_units(), (std::vector<std::int64_t>{8000, 2000, 3000}));

  PoolProgram v3(3);  // nor does it admit unknown DIPs
  v3.weights_only = true;
  v3.add(net::IpAddr{10, 1, 0, 9}, 5000);
  mux.apply_program(v3);
  EXPECT_EQ(mux.backend_count(), 3u);
}

// An out-of-range accessor is a loud sentinel, not UB (it used to index
// the backing vector unchecked).
TEST(Mux, OutOfRangeAccessorsAreSafe) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("rr"));
  program_equal(mux, {net::IpAddr{10, 1, 0, 1}});
  EXPECT_EQ(mux.backend_addr(5), net::IpAddr{});
  EXPECT_FALSE(mux.fail_backend(net::IpAddr{10, 1, 0, 9}));  // not served
}

// Regression (ISSUE 2): DrainEstimator::finish restored kWeightScale / n
// per backend, under-programming the pool when n does not divide the
// scale. The estimator aborts here (no samples ever arrive), which drives
// exactly the finish() path.
TEST(DrainEstimator, RestoredEqualSplitSumsToScale) {
  sim::Simulation sim(31);
  auto engine = std::make_shared<store::KvEngine>([&sim] { return sim.now(); });
  store::LatencyStore store(engine);
  RecordingDataplane lb({net::IpAddr{10, 1, 0, 1}, net::IpAddr{10, 1, 0, 2},
                         net::IpAddr{10, 1, 0, 3}});

  core::DrainEstimatorConfig cfg;
  cfg.max_load_time = 5_s;
  core::DrainEstimator est(sim, net::IpAddr{10, 0, 0, 1}, store, lb, cfg);

  bool done_called = false;
  est.run(net::IpAddr{10, 1, 0, 1}, 0, 1.0,
          [&](std::optional<util::SimTime> r) {
            done_called = true;
            EXPECT_FALSE(r.has_value());
          });
  sim.run_all();

  ASSERT_TRUE(done_called);
  ASSERT_EQ(lb.last_units.size(), 3u);
  EXPECT_EQ(sum_units(lb.last_units), util::kWeightScale);
  for (const auto u : lb.last_units) EXPECT_NEAR(u, util::kWeightScale / 3, 1);
}

TEST(LbController, TransactionCommitsAfterDelay) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};
  program_equal(mux, {a, b});
  LbController ctrl(f.sim, mux, 200_ms);

  PoolProgram p(ctrl.issue_version());
  p.add(a, 7000).add(b, 3000);
  ctrl.apply_program(p);
  f.sim.run_until(100_ms);
  EXPECT_EQ(mux.weight_units()[0], util::kWeightScale / 2);  // still equal
  f.sim.run_until(300_ms);
  EXPECT_EQ(mux.weight_units()[0], 7000);
}

TEST(LbController, LaterTransactionWins) {
  MuxFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"));
  const net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};
  program_equal(mux, {a, b});
  LbController ctrl(f.sim, mux, 200_ms);

  PoolProgram first(ctrl.issue_version());
  first.add(a, 7000).add(b, 3000);
  ctrl.apply_program(first);
  f.sim.run_until(100_ms);
  PoolProgram second(ctrl.issue_version());
  second.add(a, 1000).add(b, 9000);
  ctrl.apply_program(second);
  f.sim.run_all();
  EXPECT_EQ(mux.weight_units()[0], 1000);
  EXPECT_EQ(mux.applied_version(), second.version);
}

TEST(DnsTrafficManager, ResolvesByWeight) {
  sim::Simulation sim(21);
  std::vector<net::IpAddr> dips{net::IpAddr{10, 1, 0, 1},
                                net::IpAddr{10, 1, 0, 2},
                                net::IpAddr{10, 1, 0, 3}};
  DnsTrafficManager dns(sim, dips);
  PoolProgram p(dns.issue_version());
  p.add(dips[0], 2000).add(dips[1], 3000).add(dips[2], 5000);
  dns.apply_program(p);
  std::map<std::uint32_t, int> counts;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) counts[dns.resolve_authoritative().value()]++;
  EXPECT_NEAR(counts[dips[0].value()], n * 0.2, n * 0.02);
  EXPECT_NEAR(counts[dips[1].value()], n * 0.3, n * 0.02);
  EXPECT_NEAR(counts[dips[2].value()], n * 0.5, n * 0.02);
}

TEST(DnsTrafficManager, CacheDelaysWeightAdherence) {
  sim::Simulation sim(22);
  std::vector<net::IpAddr> dips{net::IpAddr{10, 1, 0, 1},
                                net::IpAddr{10, 1, 0, 2}};
  DnsTrafficManager dns(sim, dips, 30_s);
  PoolProgram all_first(dns.issue_version());
  all_first.add(dips[0], util::kWeightScale).add(dips[1], 0);
  dns.apply_program(all_first);
  EXPECT_EQ(dns.resolve_cached(7), dips[0]);
  // Flip the weights: the cached stub keeps answering the old DIP...
  PoolProgram all_second(dns.issue_version());
  all_second.add(dips[0], 0).add(dips[1], util::kWeightScale);
  dns.apply_program(all_second);
  EXPECT_EQ(dns.resolve_cached(7), dips[0]);
  EXPECT_GT(dns.cache_hits(), 0u);
  // ...until the TTL expires.
  sim.schedule_in(31_s, [] {});
  sim.run_all();
  EXPECT_EQ(dns.resolve_cached(7), dips[1]);
}

// Regression (ISSUE 3): an all-parked or all-draining pool used to fall
// back to dips_[0] — resolving clients onto a backend the controller had
// deliberately taken out of rotation. Resolution now fails loudly.
TEST(DnsTrafficManager, NoResolvableDipDropsResolution) {
  sim::Simulation sim(23);
  std::vector<net::IpAddr> dips{net::IpAddr{10, 1, 0, 1},
                                net::IpAddr{10, 1, 0, 2}};
  DnsTrafficManager dns(sim, dips);
  PoolProgram p(dns.issue_version());
  p.add(dips[0], 0).add(dips[1], 0);  // fully parked
  dns.apply_program(p);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(dns.resolve_authoritative(), net::IpAddr{});
  EXPECT_EQ(dns.dropped_resolutions(), 50u);
  // Failed resolutions are not cached: once a DIP is back, clients recover
  // immediately instead of caching the failure for a TTL.
  EXPECT_EQ(dns.resolve_cached(9), net::IpAddr{});
  PoolProgram back(dns.issue_version());
  back.add(dips[0], util::kWeightScale).add(dips[1], 0);
  dns.apply_program(back);
  EXPECT_EQ(dns.resolve_cached(9), dips[0]);
}

TEST(DnsTrafficManager, DrainingBackendLeavesRotationNotCaches) {
  sim::Simulation sim(24);
  std::vector<net::IpAddr> dips{net::IpAddr{10, 1, 0, 1},
                                net::IpAddr{10, 1, 0, 2}};
  DnsTrafficManager dns(sim, dips, 30_s);
  PoolProgram p(dns.issue_version());
  p.add(dips[0], util::kWeightScale).add(dips[1], 0);
  dns.apply_program(p);
  EXPECT_EQ(dns.resolve_cached(7), dips[0]);

  // Drain DIP 0: rotation flips immediately, the cached client does not —
  // the DNS analogue of serving a draining backend's pinned flows.
  PoolProgram drain(dns.issue_version());
  drain.add(dips[0], 0, BackendState::kDraining)
      .add(dips[1], util::kWeightScale);
  dns.apply_program(drain);
  EXPECT_EQ(dns.resolve_authoritative(), dips[1]);
  EXPECT_EQ(dns.resolve_cached(7), dips[0]);  // cache honoured
  EXPECT_EQ(dns.cache_evictions(), 0u);
  EXPECT_EQ(dns.backend_count(), 2u);

  // One TTL later every cache referencing it has expired: record dropped.
  sim.schedule_in(31_s, [] {});
  sim.run_all();
  EXPECT_EQ(dns.resolve_cached(7), dips[1]);
  EXPECT_EQ(dns.backend_count(), 1u);
}

// Regression (ISSUE 3): removing a backend used to leave client cache
// entries pointing at it for up to a TTL. kRemoved (and omission) now
// evicts the matching entries so clients re-resolve immediately.
TEST(DnsTrafficManager, RemovalEvictsCacheEntries) {
  sim::Simulation sim(25);
  std::vector<net::IpAddr> dips{net::IpAddr{10, 1, 0, 1},
                                net::IpAddr{10, 1, 0, 2}};
  DnsTrafficManager dns(sim, dips, 30_s);
  PoolProgram p(dns.issue_version());
  p.add(dips[0], util::kWeightScale).add(dips[1], 0);
  dns.apply_program(p);
  EXPECT_EQ(dns.resolve_cached(1), dips[0]);
  EXPECT_EQ(dns.resolve_cached(2), dips[0]);

  PoolProgram removed(dns.issue_version());  // dips[0] omitted: decommission
  removed.add(dips[1], util::kWeightScale);
  dns.apply_program(removed);
  EXPECT_EQ(dns.cache_evictions(), 2u);
  EXPECT_EQ(dns.resolve_cached(1), dips[1]);  // immediate, no TTL wait
  EXPECT_EQ(dns.resolve_cached(2), dips[1]);
  EXPECT_EQ(dns.backend_count(), 1u);
}

TEST(DnsTrafficManager, StaleProgramDiscarded) {
  sim::Simulation sim(26);
  std::vector<net::IpAddr> dips{net::IpAddr{10, 1, 0, 1},
                                net::IpAddr{10, 1, 0, 2}};
  DnsTrafficManager dns(sim, dips);
  PoolProgram v2(2);
  v2.add(dips[0], util::kWeightScale).add(dips[1], 0);
  dns.apply_program(v2);
  PoolProgram v1(1);
  v1.add(dips[0], 0).add(dips[1], util::kWeightScale);
  dns.apply_program(v1);
  EXPECT_EQ(dns.superseded_programs(), 1u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(dns.resolve_authoritative(), dips[0]);
}

}  // namespace
}  // namespace klb::lb
