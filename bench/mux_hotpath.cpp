// MUX hot-path bench: drives the real Mux packet path on one thread and
// reports picks/sec.
//
// Workload: per round, each flow opens (a maglev table route), sends
// `requests_per_flow - 1` pinned requests (affinity hits), and FINs.
// Rounds >= 2 reconnect the same tuples. The fabric runs in blackhole mode,
// so the number is the Mux alone.
//
// --batch sweeps burst sizes through Mux::handle_batch over the real
// fabric (see run_batch_one); in --short mode it gates batch=32 >= 2x
// batch=1.
//
// --churn measures pool-generation publication between bursts: the same
// drive, once with no commits (the stable baseline) and once committing a
// full PoolProgram (rotated weights, one backend parked at weight 0)
// after every burst of flows. It verifies, beyond the quiesced contract,
// that the current generation is whole and the only one alive, and that
// the Mux's destruction takes it along.
//
// Every run ends with testbed::InvariantChecker::quiesced — request and
// connection conservation, no pin or dangling entry left, zero no-backend
// drops, every superseded generation destroyed — and exits non-zero on
// violation.
//
// --json PATH writes every measured number as BENCH-style JSON (see
// bench_common.hpp) for the CI perf trajectory.
//
// Usage: bench_mux_hotpath [--short] [--batch] [--churn] [--json PATH]
//                          [flows] [requests_per_flow]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/policy.hpp"
#include "lb/pool_generation.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "testbed/invariants.hpp"
#include "testbed/report.hpp"
#include "util/weight.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDips = 64;
const klb::net::IpAddr kVip{10, 0, 0, 1};

klb::net::FiveTuple flow_tuple(std::uint64_t flow) {
  klb::net::FiveTuple t;
  t.src_ip = klb::net::IpAddr(
      static_cast<std::uint32_t>(0x0a020000 + flow / 50'000));
  t.dst_ip = kVip;
  t.src_port = static_cast<std::uint16_t>(10'000 + flow % 50'000);
  t.dst_port = 80;
  return t;
}

/// Flows [first, last): each opens, sends its requests, FINs.
void drive_flows(klb::lb::Mux& mux, std::uint64_t first, std::uint64_t last,
                 std::uint64_t requests_per_flow) {
  klb::net::Message msg;
  for (std::uint64_t f = first; f < last; ++f) {
    msg.tuple = flow_tuple(f);
    msg.type = klb::net::MsgType::kHttpRequest;
    for (std::uint64_t q = 0; q < requests_per_flow; ++q) mux.on_message(msg);
    msg.type = klb::net::MsgType::kFin;
    mux.on_message(msg);
  }
}

/// Handled requests (picks) per second; the run's invariants land in
/// `check`.
double run_one(std::uint64_t flows, std::uint64_t requests_per_flow,
               std::uint64_t rounds, klb::testbed::InvariantChecker& check) {
  klb::sim::Simulation sim(7);
  klb::net::Network net(sim);
  net.set_blackhole(true);
  klb::lb::FlowTableConfig flow_cfg;
  // The drive's concurrent-flow peak is known up front; the hint
  // pre-reserves the shards so no timed round pays for a growth.
  flow_cfg.expected_flows = static_cast<std::size_t>(flows);
  klb::lb::Mux mux(net, kVip, klb::lb::make_policy("maglev"),
                   /*attach_to_vip=*/true, flow_cfg);
  klb::lb::PoolProgram pool(1);
  for (std::size_t d = 0; d < kDips; ++d)
    pool.add(klb::net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d)),
             klb::util::kWeightScale / kDips);
  mux.apply_program(pool);

  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r)
    drive_flows(mux, 0, flows, requests_per_flow);
  const auto dt = std::chrono::duration<double>(Clock::now() - t0).count();

  mux.poll();
  const auto expect_requests = flows * requests_per_flow * rounds;
  check.label = "scalar drive";
  check.quiesced(mux, expect_requests, flows * rounds);
  return dt > 0 ? static_cast<double>(expect_requests) / dt : 0.0;
}

/// The fastest of `reps` runs.
template <typename Run>
double best_of(int reps, Run run) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) best = std::max(best, run());
  return best;
}

// --- batch phase: handle_batch amortization ---------------------------------

/// Terminates bench flows like a DIP would: counts deliveries.
struct SinkNode final : klb::net::Node {
  std::uint64_t received = 0;
  void on_message(const klb::net::Message&) override { ++received; }
  void on_batch(const klb::net::Message* const*, std::size_t n) override {
    received += n;
  }
};

// Drives a prebuilt stream through Mux::handle_batch in bursts of `batch`
// messages — through the REAL fabric (no blackhole): every forward is a
// latency draw plus an event on the queue, delivered to a per-DIP sink.
// That is the full per-packet path a Testbed run pays, and it is exactly
// what the batch path amortizes: one generation read per burst on the MUX
// side, then one fabric event per destination group instead of one per
// packet (send_burst). One round interleaves every flow's requests
// round-robin — a burst spans many flows and shards — then closes every
// flow with a FIN sweep; the event queue is drained inside the timed
// region (delivery cost is part of the path). batch == 1 is the scalar
// baseline through the same entry point.
double run_batch_one(std::size_t batch, std::uint64_t flows,
                     std::uint64_t requests_per_flow, std::uint64_t rounds,
                     klb::testbed::InvariantChecker& check) {
  // 16 DIPs (not the scalar drive's 64): a rack-scale pool where a
  // 32-packet burst lands ~2 packets per destination, so send_burst has
  // runs to coalesce — with 64 DIPs nearly every packet in a burst is a
  // distinct destination and the fabric-side amortization can't show.
  constexpr std::size_t kBatchDips = 16;
  klb::sim::Simulation sim(7);
  klb::net::Network net(sim);
  klb::lb::FlowTableConfig flow_cfg{};  // production default
  flow_cfg.expected_flows = static_cast<std::size_t>(flows);
  klb::lb::Mux mux(net, kVip, klb::lb::make_policy("maglev"),
                   /*attach_to_vip=*/true, flow_cfg);
  klb::lb::PoolProgram pool(1);
  for (std::size_t d = 0; d < kBatchDips; ++d)
    pool.add(klb::net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d)),
             klb::util::kWeightScale / kBatchDips);
  mux.apply_program(pool);
  std::vector<SinkNode> sinks(kBatchDips);
  for (std::size_t d = 0; d < kBatchDips; ++d)
    net.attach(klb::net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d)),
               &sinks[d]);

  // The stream is prebuilt so the timed region measures the packet path,
  // not message construction.
  std::vector<klb::net::Message> stream;
  stream.reserve(flows * (requests_per_flow + 1));
  for (std::uint64_t q = 0; q < requests_per_flow; ++q)
    for (std::uint64_t f = 0; f < flows; ++f) {
      klb::net::Message m;
      m.type = klb::net::MsgType::kHttpRequest;
      m.tuple = flow_tuple(f);
      stream.push_back(m);
    }
  for (std::uint64_t f = 0; f < flows; ++f) {
    klb::net::Message m;
    m.type = klb::net::MsgType::kFin;
    m.tuple = flow_tuple(f);
    stream.push_back(m);
  }
  std::vector<const klb::net::Message*> ptrs;
  ptrs.reserve(stream.size());
  for (const auto& m : stream) ptrs.push_back(&m);

  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < ptrs.size(); i += batch)
      mux.handle_batch(ptrs.data() + i, std::min(batch, ptrs.size() - i));
    sim.run_all();  // deliver this round's forwards before the flows reopen
  }
  const auto dt = std::chrono::duration<double>(Clock::now() - t0).count();

  mux.poll();
  const auto expect_requests = flows * requests_per_flow * rounds;
  const auto expect_conns = flows * rounds;
  std::uint64_t delivered = 0;
  for (const auto& sink : sinks) delivered += sink.received;
  check.label = "batch=" + std::to_string(batch);
  check.quiesced(mux, expect_requests, expect_conns);
  // End-to-end conservation through the fabric: every forwarded request
  // and every pinned flow's FIN reached a sink — burst coalescing loses
  // nothing.
  check.expect(delivered == expect_requests + expect_conns,
               "sinks received every request + FIN (" +
                   std::to_string(delivered) + " vs " +
                   std::to_string(expect_requests + expect_conns) + ")");
  check.expect(net.messages_unreachable() == 0, "no unreachable drops");
  return dt > 0 ? static_cast<double>(expect_requests) / dt : 0.0;
}

// --- churn phase: commits between bursts --------------------------------------

struct ChurnResult {
  double rate = 0.0;              // picks/sec
  double programs_per_sec = 0.0;  // committed PoolPrograms/sec (0 if idle)
  std::uint64_t generations_published = 0;
  std::uint64_t generations_retired = 0;
};

// Drives bursts of `kChurnBurst` flows for ~duration_sec wall seconds.
// With `commit`, a full PoolProgram (same 64 members, rotated weights, one
// backend parked at weight 0 — which one moves every 4th commit) commits
// after every burst. Every commit publishes a fresh immutable
// PoolGeneration and destroys the old one. Membership is stable, so
// counter conservation stays exact across every commit.
ChurnResult run_churn_phase(std::uint64_t flows,
                            std::uint64_t requests_per_flow,
                            double duration_sec, bool commit,
                            klb::testbed::InvariantChecker& check) {
  constexpr std::uint64_t kChurnBurst = 64;
  klb::sim::Simulation sim(7);
  klb::net::Network net(sim);
  net.set_blackhole(true);
  const auto live0 = klb::lb::PoolGeneration::live_count();

  ChurnResult res;
  check.label = commit ? "churn" : "stable";
  {
    // A smaller maglev table than the production default keeps each
    // commit's rebuild cheap; pick cost is table-size independent.
    klb::lb::Mux mux(net, kVip, std::make_unique<klb::lb::MaglevPolicy>(4099),
                     /*attach_to_vip=*/true, klb::lb::FlowTableConfig{});
    // `parked` is programmed at weight 0 (kDips = none parked).
    auto make_program = [&mux](std::uint64_t rotation, std::size_t parked) {
      klb::lb::PoolProgram p(mux.issue_version());
      for (std::size_t d = 0; d < kDips; ++d) {
        const auto units = static_cast<std::int64_t>(
            klb::util::kWeightScale / kDips + ((d + rotation) % 8) * 16);
        p.add(klb::net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d)),
              d == parked ? 0 : units);
      }
      return p;
    };
    mux.apply_program(make_program(0, kDips));

    std::uint64_t commits = 1;  // the initial program above
    std::size_t parked = kDips;
    std::uint64_t rounds = 0;
    const auto t0 = Clock::now();
    double dt = 0.0;
    do {
      ++rounds;
      for (std::uint64_t f = 0; f < flows; f += kChurnBurst) {
        drive_flows(mux, f, std::min(flows, f + kChurnBurst),
                    requests_per_flow);
        if (!commit) continue;
        mux.apply_program(make_program(commits, parked));
        ++commits;
        // At most one backend parked at a time; membership is stable, so
        // the shared per-backend counters keep conservation exact.
        if (commits % 4 == 0) parked = (commits / 4) % kDips;
      }
      dt = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (dt < duration_sec);

    mux.poll();
    const std::uint64_t sent = rounds * flows * requests_per_flow;
    const std::uint64_t opened = rounds * flows;
    res.rate = dt > 0 ? static_cast<double>(sent) / dt : 0.0;
    res.programs_per_sec =
        commit && dt > 0 ? static_cast<double>(commits) / dt : 0.0;
    const auto c = mux.counters();
    res.generations_published = c.generations_published;
    res.generations_retired = c.generations_retired;

    check.quiesced(mux, sent, opened);
    check.expect(mux.generation().self_check(),
                 "current generation self-check");
    check.expect(klb::lb::PoolGeneration::live_count() == live0 + 1,
                 "exactly the current generation object alive (" +
                     std::to_string(klb::lb::PoolGeneration::live_count() -
                                    live0) +
                     ")");
  }
  // Mux destroyed: its last generation must go too.
  check.expect(klb::lb::PoolGeneration::live_count() == live0,
               "all generations destroyed with the Mux");
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  bool churn_mode = false;
  bool batch_mode = false;
  std::string json_path;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::uint64_t flows = 20'000;
  std::uint64_t requests_per_flow = 4;
  std::vector<std::uint64_t> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& a = args[i];
    if (a == "--short") {
      short_mode = true;
    } else if (a == "--churn") {
      churn_mode = true;
    } else if (a == "--batch") {
      batch_mode = true;
    } else if (a == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (!a.empty() && a.size() <= 18 &&
               a.find_first_not_of("0123456789") == std::string::npos) {
      positional.push_back(std::stoull(a));
    } else {
      std::cerr << "unknown argument '" << a << "'\nusage: bench_mux_hotpath"
                << " [--short] [--batch] [--churn] [--json PATH]"
                << " [flows] [requests_per_flow]\n";
      return 2;
    }
  }
  if (!positional.empty()) flows = positional[0];
  if (positional.size() > 1) requests_per_flow = positional[1];
  if (short_mode) flows = std::min<std::uint64_t>(flows, 8'000);
  const std::uint64_t rounds = 3;
  const int reps = short_mode ? 3 : 2;

  klb::testbed::banner("MUX hot path (" + std::to_string(kDips) +
                       " DIPs, maglev, " + std::to_string(requests_per_flow) +
                       " req/flow, " + std::to_string(flows) + " flows)");

  auto json = klb::bench::Json::object();
  json.set("bench", "mux_hotpath")
      .set("mode", short_mode ? "short" : "full")
      .set("dips", kDips)
      .set("flows", flows)
      .set("requests_per_flow", requests_per_flow);

  klb::testbed::InvariantChecker check;
  const auto scalar = best_of(
      reps, [&] { return run_one(flows, requests_per_flow, rounds, check); });
  std::cout << "picks/s: " << klb::testbed::fmt(scalar / 1e6, 2) << "M\n";
  json.set("picks_per_sec", scalar);

  // --- batch phase: burst size sweep through handle_batch -----------------
  bool batch_gate_fail = false;
  if (batch_mode) {
    // End-to-end sweep through the real fabric, so the ratio is the
    // amortization of the per-packet fixed costs — generation read and
    // one fabric event per destination run instead of one per packet.
    const auto batch_flows = std::min<std::uint64_t>(flows, 8'192);
    const std::vector<std::size_t> batch_sizes{1, 8, 32, 64};
    std::cout << "\n";
    klb::testbed::banner(
        "Batched packet path: handle_batch burst-size sweep through the "
        "fabric (" +
        std::to_string(batch_flows) + " flows, " +
        std::to_string(requests_per_flow) + " req/flow, 16 DIPs)");
    klb::testbed::Table batch_table({"batch", "pkts/s", "vs batch=1"});
    auto json_batch = klb::bench::Json::array();
    double rate1 = 0.0, rate32 = 0.0;
    for (const auto b : batch_sizes) {
      const auto r = best_of(reps, [&] {
        return run_batch_one(b, batch_flows, requests_per_flow, rounds, check);
      });
      if (b == 1) rate1 = r;
      if (b == 32) rate32 = r;
      batch_table.row(
          {std::to_string(b), klb::testbed::fmt(r / 1e6, 2) + "M",
           klb::testbed::fmt(r / std::max(1.0, rate1), 2) + "x"});
      json_batch.push(klb::bench::Json::object()
                          .set("batch", b)
                          .set("picks_per_sec", r));
    }
    // The headline gate: a 32-packet burst must at least double scalar
    // throughput on the same packets, or the batch path has stopped
    // amortizing.
    if (short_mode && rate32 < 2.0 * rate1) {
      std::cerr << "FAIL: batch=32 (" << rate32 / 1e6
                << "M/s) below 2x the batch=1 baseline (" << rate1 / 1e6
                << "M/s)\n";
      batch_gate_fail = true;
    }
    batch_table.print();
    std::cout << "\nOne generation read and one fabric event per destination "
                 "group per burst; batch=1 is the scalar path through the "
                 "same entry point.\n";
    if (short_mode && !batch_gate_fail) {
      std::cout << "batch gate passed (batch=32 >= 2x batch=1)\n";
    }
    json.set("batch", std::move(json_batch));
  }

  // --- churn phase: generation publication between bursts -----------------
  if (churn_mode) {
    const double duration_sec = short_mode ? 1.0 : 2.5;
    const auto churn_flows = std::min<std::uint64_t>(flows, 2'000);
    std::cout << "\n";
    klb::testbed::banner(
        "Pool churn: a PoolProgram commits after every burst of 64 flows (" +
        std::to_string(churn_flows) + " flows, ~" +
        klb::testbed::fmt(duration_sec, 1) + "s per phase)");
    const auto stable =
        run_churn_phase(churn_flows, requests_per_flow, duration_sec,
                        /*commit=*/false, check);
    const auto churned =
        run_churn_phase(churn_flows, requests_per_flow, duration_sec,
                        /*commit=*/true, check);
    const double ratio = churned.rate / std::max(1.0, stable.rate);
    klb::testbed::Table churn_table({"stable picks/s", "churn picks/s",
                                     "churn/stable", "programs/s",
                                     "generations"});
    churn_table.row({klb::testbed::fmt(stable.rate / 1e6, 2) + "M",
                     klb::testbed::fmt(churned.rate / 1e6, 2) + "M",
                     klb::testbed::fmt(ratio, 2) + "x",
                     klb::testbed::fmt(churned.programs_per_sec, 0),
                     std::to_string(churned.generations_published)});
    churn_table.print();
    json.set("churn",
             klb::bench::Json::object()
                 .set("stable_picks_per_sec", stable.rate)
                 .set("churn_picks_per_sec", churned.rate)
                 .set("churn_over_stable", ratio)
                 .set("programs_per_sec", churned.programs_per_sec)
                 .set("generations_published", churned.generations_published)
                 .set("generations_retired", churned.generations_retired));
  }

  if (!json_path.empty() &&
      !klb::bench::write_json_file(json_path, json))
    return 1;

  if (!check.ok()) {
    std::cerr << check.report()
              << "FAIL: hot-path counter invariants violated\n";
    return 1;
  }
  return batch_gate_fail ? 1 : 0;
}
