// testbed::InvariantChecker fires: each contract reports a violation when
// one is constructed, and stays quiet once the setup is sound.
#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "testbed/invariants.hpp"
#include "testbed/testbed.hpp"

namespace klb::testbed {
namespace {

using namespace util::literals;

TEST(InvariantChecker, QuiescedGracefulAndSteadyFlagTheirViolations) {
  sim::Simulation sim(3);
  net::Network net(sim);
  net.set_blackhole(true);
  lb::MuxPool pool(net, {10, 0, 0, 1}, 2, 251);
  lb::PoolProgram p(pool.issue_version());
  for (std::uint32_t d = 0; d < 4; ++d)
    p.add(net::IpAddr(0x0a010001 + d), 2500);
  pool.apply_program(p);
  net::Message m;
  for (m.tuple.src_port = 0; m.tuple.src_port < 64; ++m.tuple.src_port) {
    m.type = net::MsgType::kHttpRequest;
    pool.on_message(m);
    m.type = net::MsgType::kFin;
    if (m.tuple.src_port > 0) pool.on_message(m);  // port 0 stays open
  }
  pool.poll();

  InvariantChecker check;
  check.quiesced(pool, 65, 64);  // one request short, one flow open
  lb::DataplaneCounters window;
  window.no_backend_drops = 1;
  check.graceful(window);  // a refusal is a churn transient...
  check.steady(window);    // ...but not steady
  EXPECT_EQ(check.report(),
            "INVARIANT VIOLATED quiesced: requests forwarded 64, want 65\n"
            "INVARIANT VIOLATED quiesced: active connections 1, want 0\n"
            "INVARIANT VIOLATED quiesced: affinity entries 1, want 0\n"
            "INVARIANT VIOLATED steady: no-backend drops 1, want 0\n");

  m.tuple.src_port = 0;
  pool.on_message(m);
  InvariantChecker closed;
  closed.quiesced(pool, 64, 64);
  EXPECT_TRUE(closed.ok()) << closed.report();
}

TEST(InvariantChecker, DrainedAndSettledFlagAnUnfinishedDrainAndAForeignPool) {
  TestbedConfig cfg;
  cfg.mux_count = 2;
  Testbed bed(std::vector<DipSpec>(4, DipSpec{}), cfg);
  bed.run_for(5_s);
  const auto before = bed.dataplane_counters();
  ASSERT_TRUE(bed.scale_in(0));
  InvariantChecker early;
  early.drained(bed, bed.dataplane_counters() - before, 1);
  EXPECT_EQ(early.report(),
            "INVARIANT VIOLATED drained: drains completed 0, want 2\n");

  bed.run_for(10_s);
  InvariantChecker sound;
  sound.drained(bed, bed.dataplane_counters() - before, 1);
  sound.settled(bed);
  EXPECT_TRUE(sound.ok()) << sound.report();

  // Behind the testbed's back: the live DIPs plus an address it does not
  // run, each at 0.3, so the weights sum to 1.2.
  lb::PoolProgram p(bed.dataplane().issue_version());
  for (std::size_t i = 0; i < bed.dip_count(); ++i)
    p.add(bed.dip(i).address(), 3000);
  bed.dataplane().apply_program(p.add(net::IpAddr{10, 9, 9, 9}, 3000));
  InvariantChecker foreign;
  foreign.settled(bed);
  const std::string mux1 = "INVARIANT VIOLATED settled: mux 1 ";
  EXPECT_NE(foreign.report().find(
                mux1 + "serves 10.1.0.2 10.1.0.3 10.1.0.4 10.9.9.9, want "
                       "10.1.0.2 10.1.0.3 10.1.0.4\n" +
                mux1 + "weights sum to 1.200000000, want 1\n"),
            std::string::npos)
      << foreign.report();
}

}  // namespace
}  // namespace klb::testbed
