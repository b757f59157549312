// Multi-threaded MUX hot-path bench (ISSUE 5 + ISSUE 6): drives the real
// Mux::on_message packet path from 1/2/4 worker threads and reports
// picks/sec, comparing the sharded FlowTable against the old monolithic
// single-map design (1 shard — every packet behind one lock).
//
// Workload: each thread owns a disjoint flow space; per round, each flow
// opens (a lock-free maglev table route), sends `requests_per_flow - 1`
// pinned requests (affinity hits), and FINs. Rounds >= 2 reconnect the same
// tuples. The fabric runs in blackhole mode (the event queue is
// single-threaded).
//
// --churn (ISSUE 6) additionally measures pool-generation publication under
// fire: a committer thread applies full PoolPrograms (rotated weights) and
// enable/disable flips at a fixed cadence while the worker threads sustain
// traffic. Each phase runs twice per thread count — once with the committer
// idle (the "before the generation switch" stable baseline) and once with
// it committing — and verifies, beyond the quiesced contract, that the
// epoch floor caught up (no reader left pinned) and exactly the current
// generation object is alive. In --short mode it gates programs/s >= 100 and
// churn throughput >= 0.9x the stable baseline at 2+ threads — at worker
// counts that leave the committer its own core (skipped entirely on
// single-core machines). In churn mode these gates replace the stable
// scaling gate, keeping the mode meaningful under TSan.
//
// Every run ends with testbed::InvariantChecker::quiesced — request and
// connection conservation, no pin or dangling entry left, zero no-backend
// drops, every retired generation reclaimed; with concurrent shards, a lost
// update shows up as a mismatch — and exits non-zero on violation. In
// --short mode (the CI smoke) it additionally fails if multi-threaded
// throughput on the sharded table regresses below 0.9x the single-threaded
// baseline (skipped on single-core machines, where extra threads cannot
// help; like bench_fleet_multivip, the headline scaling needs real cores).
//
// --json PATH writes every measured number as BENCH-style JSON (see
// bench_common.hpp) for the CI perf trajectory.
//
// Usage: bench_mux_hotpath [--short] [--churn] [--json PATH]
//                          [flows_per_thread] [requests_per_flow]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
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

klb::net::FiveTuple flow_tuple(unsigned thread, std::uint64_t flow) {
  klb::net::FiveTuple t;
  t.src_ip = klb::net::IpAddr(
      static_cast<std::uint32_t>(0x0a020000 + (thread << 12) + flow / 50'000));
  t.dst_ip = kVip;
  t.src_port = static_cast<std::uint16_t>(10'000 + flow % 50'000);
  t.dst_port = 80;
  return t;
}

/// One round of worker `w`'s flows: each opens, sends its requests, FINs.
void drive_round(klb::lb::Mux& mux, unsigned w, std::uint64_t flows,
                 std::uint64_t requests_per_flow) {
  klb::net::Message msg;
  for (std::uint64_t f = 0; f < flows; ++f) {
    msg.tuple = flow_tuple(w, f);
    msg.type = klb::net::MsgType::kHttpRequest;
    for (std::uint64_t q = 0; q < requests_per_flow; ++q) mux.on_message(msg);
    msg.type = klb::net::MsgType::kFin;
    mux.on_message(msg);
  }
}

/// Handled requests (picks) per second over all threads; the run's
/// invariants land in `check`.
double run_one(std::size_t shards, unsigned threads, std::uint64_t flows,
               std::uint64_t requests_per_flow, std::uint64_t rounds,
               klb::testbed::InvariantChecker& check) {
  klb::sim::Simulation sim(7);
  klb::net::Network net(sim);
  net.set_blackhole(true);  // workers must not touch the event queue
  klb::lb::FlowTableConfig flow_cfg;
  flow_cfg.shard_count = shards;
  // The drive's concurrent-flow peak is known up front; the hint
  // pre-reserves the shard maps so no timed round pays for a rehash.
  flow_cfg.expected_flows = static_cast<std::size_t>(threads) * flows;
  klb::lb::Mux mux(net, kVip, klb::lb::make_policy("maglev"),
                   /*attach_to_vip=*/true, flow_cfg);
  klb::lb::PoolProgram pool(1);
  for (std::size_t d = 0; d < kDips; ++d)
    pool.add(klb::net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d)),
             klb::util::kWeightScale / kDips);
  mux.apply_program(pool);

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t r = 0; r < rounds; ++r)
        drive_round(mux, w, flows, requests_per_flow);
    });
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto dt = std::chrono::duration<double>(Clock::now() - t0).count();

  mux.poll();
  const auto expect_requests =
      static_cast<std::uint64_t>(threads) * flows * requests_per_flow * rounds;
  // Counter conservation: with concurrent shards, any lost update or
  // leaked pin breaks one of these exactly.
  check.label = std::to_string(threads) + "T shards=" + std::to_string(shards);
  check.quiesced(mux, expect_requests,
                 static_cast<std::uint64_t>(threads) * flows * rounds);
  return dt > 0 ? static_cast<double>(expect_requests) / dt : 0.0;
}

/// The fastest of `reps` runs.
template <typename Run>
double best_of(int reps, Run run) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) best = std::max(best, run());
  return best;
}

// --- batch phase (ISSUE 9): handle_batch amortization ------------------------

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
// what the batch path amortizes: one epoch pin and one flow-shard lock
// per run on the MUX side, then one fabric event per destination group
// instead of one per packet (send_burst). One round interleaves every
// flow's requests round-robin — a burst spans many flows and shards —
// then closes every flow with a FIN sweep; the event queue is drained
// inside the timed region (delivery cost is part of the path). batch == 1
// is the scalar baseline through the same entry point. Single-threaded by
// construction (the event queue is), which also makes the 2x gate
// meaningful on any host, CI's single-core runners included.
double run_batch_one(std::size_t batch, std::uint64_t flows,
                     std::uint64_t requests_per_flow, std::uint64_t rounds,
                     klb::testbed::InvariantChecker& check) {
  // 16 DIPs (not the sweep's 64): a rack-scale pool where a 32-packet
  // burst lands ~2 packets per destination, so send_burst has runs to
  // coalesce — with 64 DIPs nearly every packet in a burst is a distinct
  // destination and the fabric-side amortization can't show.
  constexpr std::size_t kBatchDips = 16;
  klb::sim::Simulation sim(7);
  klb::net::Network net(sim);
  klb::lb::FlowTableConfig flow_cfg{};  // production sharded default
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
      m.tuple = flow_tuple(0, f);
      stream.push_back(m);
    }
  for (std::uint64_t f = 0; f < flows; ++f) {
    klb::net::Message m;
    m.type = klb::net::MsgType::kFin;
    m.tuple = flow_tuple(0, f);
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

// --- churn phase (ISSUE 6): commits racing the packet path -------------------

struct ChurnResult {
  double rate = 0.0;              // picks/sec across all worker threads
  double programs_per_sec = 0.0;  // committed PoolPrograms/sec (0 if idle)
  std::uint64_t generations_published = 0;
  std::uint64_t generations_retired = 0;
};

// Drives `threads` workers over their flow spaces for ~duration_sec wall
// seconds. With `commit`, a committer thread concurrently applies a full
// PoolProgram (same 64 members, rotated weights, one backend parked at
// weight 0 — which one moves every 4th commit) every ~1ms. Every commit
// publishes a fresh immutable PoolGeneration and retires the old one
// through the epoch domain. Membership is stable, so counter conservation
// stays exact even though the generation under the packet path changes
// hundreds of times per second.
ChurnResult run_churn_phase(unsigned threads, std::uint64_t flows,
                            std::uint64_t requests_per_flow,
                            double duration_sec, bool commit,
                            klb::testbed::InvariantChecker& check) {
  klb::sim::Simulation sim(7);
  klb::net::Network net(sim);
  net.set_blackhole(true);
  const auto live0 = klb::lb::PoolGeneration::live_count();

  ChurnResult res;
  check.label = (commit ? "churn " : "stable ") + std::to_string(threads) + "T";
  {
    // A smaller maglev table than the production default keeps each
    // commit's rebuild cheap enough to sustain hundreds of programs/sec
    // even under TSan; pick cost is table-size independent.
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

    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> rounds(threads, 0);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        while (!go.load(std::memory_order_acquire)) {
        }
        do {
          drive_round(mux, w, flows, requests_per_flow);
          ++rounds[w];
        } while (!stop.load(std::memory_order_acquire));
      });
    }

    std::uint64_t commits = 1;  // the initial program above
    std::thread committer;
    if (commit) {
      committer = std::thread([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        std::size_t parked = kDips;  // kDips = none parked
        while (!stop.load(std::memory_order_acquire)) {
          mux.apply_program(make_program(commits, parked));
          ++commits;
          // At most one backend parked at a time; membership is stable, so
          // the shared per-backend counters keep conservation exact.
          if (commits % 4 == 0) parked = (commits / 4) % kDips;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }

    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(duration_sec));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    if (committer.joinable()) committer.join();
    const auto dt = std::chrono::duration<double>(Clock::now() - t0).count();

    // No reader is pinned anymore: one poll must drain the retired list.
    mux.poll();

    std::uint64_t total_rounds = 0;
    for (const auto r : rounds) total_rounds += r;
    const std::uint64_t sent = total_rounds * flows * requests_per_flow;
    const std::uint64_t opened = total_rounds * flows;
    res.rate = dt > 0 ? static_cast<double>(sent) / dt : 0.0;
    res.programs_per_sec =
        commit && dt > 0 ? static_cast<double>(commits) / dt : 0.0;
    const auto c = mux.counters();
    res.generations_published = c.generations_published;
    res.generations_retired = c.generations_retired;

    check.quiesced(mux, sent, opened);
    check.expect(mux.oldest_live_epoch() == mux.current_epoch(),
                 "no reader pinned below the current epoch");
    check.expect(mux.debug_check_generation(),
                 "current generation self-check");
    check.expect(klb::lb::PoolGeneration::live_count() == live0 + 1,
                 "exactly the current generation object alive (" +
                     std::to_string(klb::lb::PoolGeneration::live_count() -
                                    live0) +
                     ")");
  }
  // Mux destroyed: its last generation must go too — a use-after-retire
  // bug would show up here as a leaked (or double-freed) snapshot.
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
                << " [--short] [--churn] [--batch] [--json PATH]"
                << " [flows_per_thread] [requests_per_flow]\n";
      return 2;
    }
  }
  if (!positional.empty()) flows = positional[0];
  if (positional.size() > 1) requests_per_flow = positional[1];
  if (short_mode) flows = std::min<std::uint64_t>(flows, 8'000);
  const std::uint64_t rounds = 3;
  const int reps = short_mode ? 3 : 2;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const klb::lb::FlowTableConfig sharded{};  // production default
  std::vector<unsigned> thread_counts{1, 2, 4};
  if (short_mode) {
    thread_counts = {1};
    if (hw >= 2) thread_counts.push_back(std::min(4u, hw));
  }

  klb::testbed::banner("MUX hot path: sharded flow table vs single map (" +
                       std::to_string(kDips) + " DIPs, maglev, " +
                       std::to_string(requests_per_flow) + " req/flow)");
  std::cout << "hardware threads: " << hw << ", flow-table shards: "
            << klb::lb::FlowTable(sharded).shard_count() << "\n\n";

  auto json = klb::bench::Json::object();
  json.set("bench", "mux_hotpath")
      .set("mode", short_mode ? "short" : "full")
      .set("hardware_threads", hw)
      .set("dips", kDips)
      .set("flows_per_thread", flows)
      .set("requests_per_flow", requests_per_flow);
  auto json_stable = klb::bench::Json::array();

  klb::testbed::Table table({"threads", "single-map picks/s", "sharded picks/s",
                             "sharded/single", "scaling vs 1T"});
  klb::testbed::InvariantChecker check;
  double sharded_1t = 0.0, sharded_multi = 0.0;
  for (const auto t : thread_counts) {
    const auto base = best_of(reps, [&] {
      return run_one(1, t, flows, requests_per_flow, rounds, check);
    });
    const auto shard = best_of(reps, [&] {
      return run_one(sharded.shard_count, t, flows, requests_per_flow, rounds,
                     check);
    });
    if (t == 1) sharded_1t = shard;
    if (t > 1) sharded_multi = std::max(sharded_multi, shard);
    table.row({std::to_string(t),
               klb::testbed::fmt(base / 1e6, 2) + "M",
               klb::testbed::fmt(shard / 1e6, 2) + "M",
               klb::testbed::fmt(shard / std::max(1.0, base), 2) +
                   "x",
               klb::testbed::fmt(shard / std::max(1.0, sharded_1t), 2) +
                   "x"});
    json_stable.push(klb::bench::Json::object()
                         .set("threads", t)
                         .set("single_map_picks_per_sec", base)
                         .set("sharded_picks_per_sec", shard));
  }
  table.print();
  std::cout << "\nAffinity hits and maglev table routes never take the pick "
               "lock; only shard locks serialize.\n";
  json.set("stable", std::move(json_stable));

  // --- batch phase (ISSUE 9): burst size sweep through handle_batch -------
  bool batch_gate_fail = false;
  if (batch_mode) {
    // Single-threaded end-to-end sweep through the real fabric (the event
    // queue is single-threaded), so the ratio is the amortization of the
    // per-packet fixed costs — epoch pin, generation load, shard locks,
    // and one fabric event per destination run instead of one per
    // packet — and the gate is meaningful on any host, 1-core CI included.
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
    std::cout << "\nOne epoch pin, one generation load, one lock per "
                 "flow-shard run, and one fabric event per destination "
                 "group per burst; batch=1 is the scalar path through the "
                 "same entry point.\n";
    if (short_mode && !batch_gate_fail) {
      std::cout << "batch gate passed (batch=32 >= 2x batch=1)\n";
    }
    json.set("batch", std::move(json_batch));
  }

  // --- churn phase: generation publication racing the packet path ---------
  bool churn_gate_fail = false;
  int churn_gates_checked = 0;
  if (churn_mode) {
    const double duration_sec = short_mode ? 1.0 : 2.5;
    const auto churn_flows = std::min<std::uint64_t>(flows, 2'000);
    // The committer is a real thread: gates only fire at worker counts
    // that leave it a core (t + 1 <= hw), so an oversubscribed runner
    // measures timesharing, not a regression, and is exempt.
    std::vector<unsigned> churn_counts{1, 2, 4};
    if (short_mode) {
      churn_counts = {1};
      if (hw >= 2) churn_counts.push_back(2);
    }
    std::cout << "\n";
    klb::testbed::banner(
        "Pool churn: PoolPrograms committing while traffic flows (" +
        std::to_string(churn_flows) + " flows/thread, ~" +
        klb::testbed::fmt(duration_sec, 1) + "s per phase)");
    klb::testbed::Table churn_table({"threads", "stable picks/s",
                                     "churn picks/s", "churn/stable",
                                     "programs/s", "generations"});
    auto json_churn = klb::bench::Json::array();
    for (const auto t : churn_counts) {
      const auto stable =
          run_churn_phase(t, churn_flows, requests_per_flow, duration_sec,
                          /*commit=*/false, check);
      const auto churned =
          run_churn_phase(t, churn_flows, requests_per_flow, duration_sec,
                          /*commit=*/true, check);
      const double ratio = churned.rate / std::max(1.0, stable.rate);
      churn_table.row({std::to_string(t),
                       klb::testbed::fmt(stable.rate / 1e6, 2) + "M",
                       klb::testbed::fmt(churned.rate / 1e6, 2) + "M",
                       klb::testbed::fmt(ratio, 2) + "x",
                       klb::testbed::fmt(churned.programs_per_sec, 0),
                       std::to_string(churned.generations_published)});
      json_churn.push(
          klb::bench::Json::object()
              .set("threads", t)
              .set("stable_picks_per_sec", stable.rate)
              .set("churn_picks_per_sec", churned.rate)
              .set("churn_over_stable", ratio)
              .set("programs_per_sec", churned.programs_per_sec)
              .set("generations_published", churned.generations_published)
              .set("generations_retired", churned.generations_retired));
      if (short_mode && hw >= 2 && t + 1 <= hw) {
        ++churn_gates_checked;
        if (churned.programs_per_sec < 100.0) {
          std::cerr << "FAIL: committed only "
                    << klb::testbed::fmt(churned.programs_per_sec, 0)
                    << " programs/s under traffic (gate: >= 100/s)\n";
          churn_gate_fail = true;
        }
        if (t >= 2 && ratio < 0.9) {
          std::cerr << "FAIL: churn throughput at " << t << " threads ("
                    << churned.rate / 1e6 << "M/s) regressed below 0.9x the "
                    << "stable-pool baseline (" << stable.rate / 1e6
                    << "M/s)\n";
          churn_gate_fail = true;
        }
      }
    }
    churn_table.print();
    std::cout << "\nEvery commit publishes an immutable generation; workers "
                 "pin it epoch-style and never block on the committer.\n";
    if (churn_gates_checked > 0 && !churn_gate_fail) {
      std::cout << "churn gates passed (>= 100 programs/s; churn >= 0.9x "
                   "stable at 2+ threads with a spare core)\n";
    } else if (short_mode && churn_gates_checked == 0) {
      std::cout << "churn gates skipped (needs a spare core for the "
                   "committer)\n";
    }
    json.set("churn", std::move(json_churn));
  }

  if (!json_path.empty() &&
      !klb::bench::write_json_file(json_path, json))
    return 1;

  if (!check.ok()) {
    std::cerr << check.report()
              << "FAIL: hot-path counter invariants violated\n";
    return 1;
  }
  if (churn_gate_fail || batch_gate_fail) return 1;
  if (churn_mode) {
    // In churn mode the churn gates carry the regression question; the
    // stable single-vs-multi gate is skipped so the mode stays meaningful
    // under sanitizer instrumentation (where raw scaling is distorted but
    // same-instrumentation churn/stable ratios are not).
    return 0;
  }
  if (short_mode && hw >= 2 && sharded_multi > 0.0) {
    if (sharded_multi < 0.9 * sharded_1t) {
      std::cerr << "FAIL: multi-threaded sharded throughput ("
                << sharded_multi / 1e6 << "M/s) regressed below 0.9x the "
                << "single-threaded baseline (" << sharded_1t / 1e6
                << "M/s)\n";
      return 1;
    }
    std::cout << "short-mode scaling gate passed ("
              << klb::testbed::fmt(sharded_multi / sharded_1t, 2)
              << "x at " << thread_counts.back() << " threads)\n";
  } else if (short_mode) {
    std::cout << "short-mode scaling gate skipped (single-core machine)\n";
  }
  return 0;
}
