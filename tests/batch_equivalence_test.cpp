// Batch-vs-scalar equivalence (ISSUE 9): Mux::handle_batch over a shuffled
// burst must leave byte-identical dataplane state to driving the same
// messages one at a time through on_message — per-backend forwarded /
// connections / active counters, affinity size, every DataplaneCounters
// field, and zero drops. Covered for the tuple-deterministic policies
// (maglev, hash), the hybrid stateless dataplane, the per-packet fallback
// that stateful policies (wrr/lc) take under the shared epoch pin, mixed
// request+FIN bursts, and the MuxPool's ECMP batch partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/mux_pool.hpp"
#include "lb/policy.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "util/weight.hpp"

namespace klb::lb {
namespace {

net::FiveTuple flow(std::uint32_t client, std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(0x0a020000 + client);
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
}

net::IpAddr dip_addr(std::size_t d) {
  return net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d + 1));
}

/// `flows` distinct tuples x `reqs` requests each, interleaved
/// round-robin and then shuffled with a fixed seed — a worst-case burst
/// stream where a chunk mixes openers, mid-flow packets, and many shards.
std::vector<net::Message> shuffled_stream(std::size_t flows,
                                          std::uint64_t reqs,
                                          std::uint64_t shuffle_seed) {
  std::vector<net::Message> msgs;
  msgs.reserve(flows * reqs);
  for (std::uint64_t r = 1; r <= reqs; ++r) {
    for (std::size_t f = 0; f < flows; ++f) {
      net::Message m;
      m.type = net::MsgType::kHttpRequest;
      m.tuple = flow(static_cast<std::uint32_t>(f % 16),
                     static_cast<std::uint16_t>(10'000 + f));
      m.conn_id = f + 1;
      m.req_id = r;
      msgs.push_back(m);
    }
  }
  // Shuffle only the relative order of distinct flows per round: req_ids
  // within a flow must stay ascending (a real client's stream), so shuffle
  // each round's slice independently.
  std::mt19937_64 rng(shuffle_seed);
  for (std::uint64_t r = 0; r < reqs; ++r) {
    const auto begin = msgs.begin() + static_cast<std::ptrdiff_t>(r * flows);
    std::shuffle(begin, begin + static_cast<std::ptrdiff_t>(flows), rng);
  }
  return msgs;
}

struct MuxUnderTest {
  sim::Simulation sim;
  net::Network net;
  Mux mux;

  MuxUnderTest(const std::string& policy, std::size_t dips,
               ConsistencyConfig consistency = {})
      : sim(99),
        net(sim),
        mux(net, {10, 0, 0, 1},
            policy == "maglev" ? std::make_unique<MaglevPolicy>(251)
                               : make_policy(policy),
            /*attach_to_vip=*/true, FlowTableConfig{}, consistency) {
    net.set_blackhole(true);
    PoolProgram p(1);
    for (std::size_t d = 0; d < dips; ++d)
      p.add(dip_addr(d),
            static_cast<std::int64_t>(util::kWeightScale / dips));
    mux.apply_program(p);
  }
};

/// Everything the batch path must reproduce exactly.
struct Snapshot {
  std::vector<std::uint64_t> forwarded, connections, active;
  std::size_t affinity = 0;
  DataplaneCounters counters;

  static Snapshot of(const Mux& m) {
    Snapshot s;
    for (const auto& b : m.backends()) {
      s.forwarded.push_back(b.counters->forwarded);
      s.connections.push_back(b.counters->connections);
      s.active.push_back(b.counters->active);
    }
    s.affinity = m.affinity_size();
    s.counters = m.counters();
    return s;
  }
};

void expect_equal(const Snapshot& scalar, const Snapshot& batch,
                  const char* what) {
  EXPECT_EQ(scalar.forwarded, batch.forwarded) << what;
  EXPECT_EQ(scalar.connections, batch.connections) << what;
  EXPECT_EQ(scalar.active, batch.active) << what;
  EXPECT_EQ(scalar.affinity, batch.affinity) << what;
  EXPECT_EQ(scalar.counters, batch.counters) << what;
}

void drive_scalar(Mux& mux, const std::vector<net::Message>& msgs) {
  for (const auto& m : msgs) mux.on_message(m);
}

void drive_batched(Mux& mux, const std::vector<net::Message>& msgs,
                   std::size_t burst) {
  std::vector<const net::Message*> ptrs;
  for (std::size_t i = 0; i < msgs.size(); i += burst) {
    ptrs.clear();
    for (std::size_t j = i; j < std::min(msgs.size(), i + burst); ++j)
      ptrs.push_back(&msgs[j]);
    mux.handle_batch(ptrs.data(), ptrs.size());
  }
}

class BatchEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchEquivalence, MaglevCountersAreByteIdentical) {
  const auto msgs = shuffled_stream(64, 4, 17);
  MuxUnderTest scalar("maglev", 8), batched("maglev", 8);
  drive_scalar(scalar.mux, msgs);
  drive_batched(batched.mux, msgs, GetParam());
  const auto a = Snapshot::of(scalar.mux), b = Snapshot::of(batched.mux);
  EXPECT_EQ(a.counters.no_backend_drops, 0u);
  EXPECT_GT(a.counters.total_forwarded, 0u);
  expect_equal(a, b, "maglev");
}

TEST_P(BatchEquivalence, HashPolicy) {
  const auto msgs = shuffled_stream(48, 3, 5);
  MuxUnderTest scalar("hash", 6), batched("hash", 6);
  drive_scalar(scalar.mux, msgs);
  drive_batched(batched.mux, msgs, GetParam());
  expect_equal(Snapshot::of(scalar.mux), Snapshot::of(batched.mux), "hash");
}

TEST_P(BatchEquivalence, StatefulPoliciesFallBackPerPacketInOrder) {
  // wrr and lc mutate pick state per packet; the batch path must produce
  // the exact scalar pick sequence by processing them one-by-one under the
  // shared generation pin.
  for (const char* policy : {"wrr", "lc", "rr"}) {
    const auto msgs = shuffled_stream(40, 3, 11);
    MuxUnderTest scalar(policy, 5), batched(policy, 5);
    drive_scalar(scalar.mux, msgs);
    drive_batched(batched.mux, msgs, GetParam());
    expect_equal(Snapshot::of(scalar.mux), Snapshot::of(batched.mux), policy);
  }
}

TEST_P(BatchEquivalence, HybridStatelessDataplane) {
  ConsistencyConfig consistency;
  consistency.stateless = true;
  const auto msgs = shuffled_stream(64, 4, 23);
  MuxUnderTest scalar("maglev", 8, consistency),
      batched("maglev", 8, consistency);
  ASSERT_TRUE(scalar.mux.stateless_engaged());
  // Publish twice so the diff engine flags moved slots: some of the stream
  // then takes the exception path (adoption, pinning), the rest routes
  // statelessly — both arms exercised.
  PoolProgram p2(2);
  for (std::size_t d = 0; d < 7; ++d)  // DIP 7 leaves: its slots re-home
    p2.add(dip_addr(d), static_cast<std::int64_t>(util::kWeightScale / 7));
  scalar.mux.apply_program(p2);
  batched.mux.apply_program(p2);
  drive_scalar(scalar.mux, msgs);
  drive_batched(batched.mux, msgs, GetParam());
  const auto a = Snapshot::of(scalar.mux), b = Snapshot::of(batched.mux);
  EXPECT_GT(a.counters.stateless_picks, 0u);
  expect_equal(a, b, "hybrid");
}

TEST_P(BatchEquivalence, MixedRequestAndFinBursts) {
  // Interleave FINs for half the flows into the stream: handle_batch must
  // split the runs and land the same per-backend active counts.
  auto msgs = shuffled_stream(32, 2, 7);
  for (std::size_t f = 0; f < 32; f += 2) {
    net::Message fin;
    fin.type = net::MsgType::kFin;
    fin.tuple = flow(static_cast<std::uint32_t>(f % 16),
                     static_cast<std::uint16_t>(10'000 + f));
    msgs.push_back(fin);
  }
  MuxUnderTest scalar("maglev", 8), batched("maglev", 8);
  drive_scalar(scalar.mux, msgs);
  drive_batched(batched.mux, msgs, GetParam());
  const auto a = Snapshot::of(scalar.mux), b = Snapshot::of(batched.mux);
  EXPECT_EQ(a.affinity, 16u);  // half the flows closed
  expect_equal(a, b, "mixed");
}

INSTANTIATE_TEST_SUITE_P(BurstSizes, BatchEquivalence,
                         ::testing::Values(1, 8, 32, 48, 96),
                         [](const auto& info) {
                           return "burst" + std::to_string(info.param);
                         });

TEST(MuxPoolBatch, EcmpPartitionMatchesScalarDispatch) {
  const auto msgs = shuffled_stream(96, 3, 31);
  auto make = [] {
    struct Rig {
      sim::Simulation sim{42};
      net::Network net{sim};
      MuxPool pool;
      Rig() : pool(net, {10, 0, 0, 1}, 4) {
        net.set_blackhole(true);
        PoolProgram p(pool.issue_version());
        for (std::size_t d = 0; d < 8; ++d)
          p.add(dip_addr(d),
                static_cast<std::int64_t>(util::kWeightScale / 8));
        pool.apply_program(p);
      }
    };
    return std::make_unique<Rig>();
  };
  auto scalar = make(), batched = make();
  for (const auto& m : msgs) scalar->pool.on_message(m);
  std::vector<const net::Message*> ptrs;
  for (std::size_t i = 0; i < msgs.size(); i += 80) {
    ptrs.clear();
    for (std::size_t j = i; j < std::min(msgs.size(), i + 80); ++j)
      ptrs.push_back(&msgs[j]);
    batched->pool.on_batch(ptrs.data(), ptrs.size());
  }
  // Per-member totals must match: the batch partition sends each tuple to
  // the same ECMP shard the scalar path does.
  for (std::size_t k = 0; k < 4; ++k) {
    expect_equal(Snapshot::of(scalar->pool.mux(k)),
                 Snapshot::of(batched->pool.mux(k)), "pool member");
  }
  EXPECT_EQ(scalar->pool.counters(), batched->pool.counters());
  EXPECT_EQ(scalar->pool.counters().no_backend_drops, 0u);
}

}  // namespace
}  // namespace klb::lb
