// Flow-table memory at 10M-flow scale: the stateless fast path's headline
// (ISSUE 8, lb/consistency.hpp).
//
// A stateful L4 LB pays O(concurrent flows) memory for connection
// affinity. The hybrid dataplane pins only exception flows — slots whose
// maglev pick moved recently — and routes everyone else by hash, so its
// table holds the exception population instead of every flow. This bench
// measures exactly that trade on the real Mux packet path:
//
//   * Open `flows` connections (default 10M; --short: 200k) against a
//     64-DIP maglev pool, stateless OFF vs ON, and compare the flow
//     table's approximate bytes (FlowTable::memory(), an
//     instrumentation-independent estimate, so the OFF/ON ratio holds
//     under TSan/ASan too) and bytes/flow.
//   * Drive graceful-drain churn under live traffic in both modes and
//     count broken affinities two ways: a fabric tap asserts per-packet
//     that no flow's packets ever land on two different DIPs, and the
//     Mux's own affinity_breaks counter must agree. The gate is ZERO
//     additional breaks with stateless on — the whole point of the
//     exception filter.
//   * --gc: sweep-latency microbench on the table itself at `flows`
//     entries — full-shard sweeps vs budgeted incremental sweeps
//     (--gc-budget N, default 4096) — showing the per-call pause a
//     packet-path inline GC pays at 10M flows.
//
// The expected-flows hint is part of the story: the OFF table is
// pre-reserved for the full flow population (how an operator sizes a
// stateful deployment), the ON table for the expected exception fraction
// (flows/64) — rehash storms are excluded from both sides.
//
// --short gates (CI): bytes(OFF) >= 5x bytes(ON) at peak, zero broken
// affinities in both modes, zero additional breaks ON vs OFF, and a
// nonzero stateless-pick share. --json PATH emits the numbers for the
// perf trajectory.
//
// Usage: bench_flow_memory [--short] [--gc] [--gc-budget N] [--json PATH]
//                          [flows]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lb/consistency.hpp"
#include "lb/flow_table.hpp"
#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "testbed/report.hpp"
#include "util/weight.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDips = 64;
constexpr std::uint32_t kDipBase = 0x0a010000;  // 10.1.0.0
const klb::net::IpAddr kVip{10, 0, 0, 1};
constexpr std::uint32_t kSrcBase = 0x0a020000;  // 10.2.0.0
constexpr std::uint64_t kPortSpan = 50'000;

klb::net::FiveTuple flow_tuple(std::uint64_t f) {
  klb::net::FiveTuple t;
  t.src_ip =
      klb::net::IpAddr(static_cast<std::uint32_t>(kSrcBase + f / kPortSpan));
  t.dst_ip = kVip;
  t.src_port = static_cast<std::uint16_t>(10'000 + f % kPortSpan);
  t.dst_port = 80;
  return t;
}

/// Inverse of flow_tuple: which flow does this packet belong to?
std::uint64_t flow_index(const klb::net::FiveTuple& t) {
  return static_cast<std::uint64_t>(t.src_ip.value() - kSrcBase) * kPortSpan +
         (t.src_port - 10'000u);
}

struct ScenarioResult {
  std::size_t peak_bytes = 0;       // steady state, all flows open
  std::size_t peak_entries = 0;
  std::size_t churn_bytes = 0;      // during churn (exception pins live)
  std::uint64_t tap_breaks = 0;     // flows observed on 2+ DIPs (ground truth)
  std::uint64_t affinity_breaks = 0;
  std::uint64_t stateless_picks = 0;
  std::uint64_t exception_pins = 0;
  std::uint64_t breaks_avoided = 0;
  double drive_sec = 0.0;
  bool ok = true;
};

/// One full drive: open `flows`, steady packets, `churn_rounds` graceful
/// drain+cancel cycles with a packet per flow in between, FIN everything.
/// The fabric tap watches every forwarded packet and records any flow that
/// ever reaches a second DIP.
ScenarioResult run_scenario(bool stateless, std::uint64_t flows,
                            int churn_rounds) {
  klb::sim::Simulation sim(11);
  klb::net::Network net(sim);

  ScenarioResult res;
  auto check = [&res](bool cond, const std::string& what) {
    if (!cond) {
      std::cerr << "INVARIANT VIOLATED: " << what << "\n";
      res.ok = false;
    }
  };

  // Per-flow owner observed on the wire; 0 = not yet seen. The tap runs on
  // the (single) driving thread, so plain vectors suffice.
  std::vector<std::uint32_t> owner(flows, 0);
  std::uint64_t tap_breaks = 0;
  net.set_tap([&](klb::net::IpAddr to, const klb::net::Message& m) {
    const auto v = to.value();
    if (v < kDipBase || v >= kDipBase + kDips) return;  // not a DIP
    const auto f = flow_index(m.tuple);
    if (owner[f] == 0) {
      owner[f] = v;
    } else if (owner[f] != v) {
      ++tap_breaks;
      owner[f] = v;  // count each re-home once, then track the new owner
    }
  });
  net.set_blackhole(true);  // tap still runs; the event queue stays cold

  klb::lb::FlowTableConfig flow_cfg;
  // Size the table the way its operator would: the stateful deployment
  // expects every flow pinned; the hybrid one expects the exception
  // fraction (~1/64 here: one backend's slots move per churn round).
  flow_cfg.expected_flows =
      stateless ? static_cast<std::size_t>(flows / kDips)
                : static_cast<std::size_t>(flows);
  klb::lb::ConsistencyConfig consistency;
  consistency.stateless = stateless;

  klb::lb::Mux mux(net, kVip, klb::lb::make_policy("maglev"),
                   /*attach_to_vip=*/true, flow_cfg, consistency);
  std::uint64_t version = 0;
  auto program = [&](std::size_t draining) {  // kDips = nobody draining
    klb::lb::PoolProgram p(++version);
    for (std::size_t d = 0; d < kDips; ++d)
      p.add(klb::net::IpAddr(static_cast<std::uint32_t>(kDipBase + d)),
            klb::util::kWeightScale / kDips,
            d == draining ? klb::lb::BackendState::kDraining
                          : klb::lb::BackendState::kActive);
    return p;
  };
  mux.apply_program(program(kDips));
  check(!stateless || mux.stateless_engaged(),
        "stateless mode engaged on a maglev policy");

  const auto t0 = Clock::now();
  klb::net::Message msg;
  msg.type = klb::net::MsgType::kHttpRequest;
  auto sweep = [&](std::uint64_t req_id) {
    msg.req_id = req_id;
    for (std::uint64_t f = 0; f < flows; ++f) {
      msg.tuple = flow_tuple(f);
      msg.conn_id = f;
      mux.on_message(msg);
    }
  };

  // Open + one steady mid-flow packet per flow: the 10M-concurrent-flows
  // steady state whose footprint is the headline.
  sweep(1);
  sweep(2);
  const auto peak = mux.flow_table().memory();
  res.peak_bytes = peak.approx_bytes;
  res.peak_entries = peak.entries;

  // Graceful churn under live traffic: drain one backend, let every flow
  // send a packet (mid-flow exception adoption happens here), cancel the
  // drain, another packet. Each round's table rebuild moves the victim's
  // slots and back.
  std::uint64_t req = 3;
  for (int r = 0; r < churn_rounds; ++r) {
    mux.apply_program(program(static_cast<std::size_t>(r) % kDips));
    sweep(req++);
    res.churn_bytes = std::max(res.churn_bytes,
                               mux.flow_table().memory().approx_bytes);
    mux.apply_program(program(kDips));
    sweep(req++);
  }

  msg.type = klb::net::MsgType::kFin;
  msg.req_id = req;
  for (std::uint64_t f = 0; f < flows; ++f) {
    msg.tuple = flow_tuple(f);
    msg.conn_id = f;
    mux.on_message(msg);
  }
  mux.poll();
  res.drive_sec = std::chrono::duration<double>(Clock::now() - t0).count();

  res.tap_breaks = tap_breaks;
  const auto c = mux.counters();
  res.affinity_breaks = c.affinity_breaks;
  res.stateless_picks = c.stateless_picks;
  res.exception_pins = c.exception_pins;
  res.breaks_avoided = c.affinity_breaks_avoided;

  // Conservation: every flow opened exactly once (stateless openers count
  // connections without pinning; adoptions must not double-count), every
  // pin released.
  std::uint64_t conns = 0, active = 0;
  for (std::size_t d = 0; d < kDips; ++d) {
    conns += mux.new_connections(d);
    active += mux.active_connections(d);
  }
  check(conns == flows, "new connections == flows (" + std::to_string(conns) +
                            " vs " + std::to_string(flows) + ")");
  check(active == 0,
        "no active connections after all FINs (" + std::to_string(active) +
            " left)");
  check(mux.affinity_size() == 0,
        "affinity empty after all FINs (" +
            std::to_string(mux.affinity_size()) + " left)");
  check(mux.live_exception_pins() == 0,
        "slot-pin counters drained (" +
            std::to_string(mux.live_exception_pins()) + " left)");
  check(c.no_backend_drops == 0, "no refused connections");
  check(mux.dangling_affinity_count() == 0, "no dangling affinity entries");
  return res;
}

// --- --gc: sweep latency on the raw table at `flows` entries -----------------

struct GcResult {
  double full_sweep_ms = 0.0;      // one kScanAll call, worst shard
  double budgeted_max_ms = 0.0;    // worst single budgeted call
  std::uint64_t budgeted_calls = 0;  // calls to reclaim everything
};

GcResult run_gc(std::uint64_t flows, std::size_t budget) {
  using klb::util::SimTime;
  GcResult res;
  const auto alive = [](std::uint64_t id) { return id % 2 == 0; };

  // Two identical tables — sweeping mutates, so full and budgeted each get
  // a fresh population. Odd backend ids are reclaimable.
  for (const bool budgeted : {false, true}) {
    klb::lb::FlowTableConfig cfg;
    cfg.expected_flows = static_cast<std::size_t>(flows);
    cfg.gc_scan_budget = budget;
    klb::lb::FlowTable table(cfg);
    for (std::uint64_t f = 0; f < flows; ++f)
      table.try_insert(flow_tuple(f), f % 8, SimTime::zero());

    if (!budgeted) {
      for (std::size_t k = 0; k < table.shard_count(); ++k) {
        const auto c0 = Clock::now();
        table.gc_shard(k, SimTime::zero(), SimTime::zero(), alive, nullptr,
                       klb::lb::FlowTable::kScanAll);
        res.full_sweep_ms = std::max(
            res.full_sweep_ms,
            std::chrono::duration<double, std::milli>(Clock::now() - c0)
                .count());
      }
    } else {
      std::size_t reclaimed = 0;
      const auto goal = static_cast<std::size_t>(flows) / 2;
      std::size_t k = 0;
      while (reclaimed < goal) {
        const auto c0 = Clock::now();
        reclaimed += table.gc_shard(k++ % table.shard_count(), SimTime::zero(),
                                    SimTime::zero(), alive, nullptr,
                                    klb::lb::FlowTable::kScanBudgeted);
        res.budgeted_max_ms = std::max(
            res.budgeted_max_ms,
            std::chrono::duration<double, std::milli>(Clock::now() - c0)
                .count());
        ++res.budgeted_calls;
      }
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  bool gc_mode = false;
  std::size_t gc_budget = 4096;
  std::string json_path;
  std::uint64_t flows = 10'000'000;
  bool flows_given = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& a = args[i];
    if (a == "--short") {
      short_mode = true;
    } else if (a == "--gc") {
      gc_mode = true;
    } else if (a == "--gc-budget" && i + 1 < args.size()) {
      gc_budget = std::stoull(args[++i]);
    } else if (a == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (!a.empty() && a.size() <= 18 &&
               a.find_first_not_of("0123456789") == std::string::npos) {
      flows = std::stoull(a);
      flows_given = true;
    } else {
      std::cerr << "unknown argument '" << a << "'\nusage: bench_flow_memory"
                << " [--short] [--gc] [--gc-budget N] [--json PATH] [flows]\n";
      return 2;
    }
  }
  if (short_mode && !flows_given) flows = 200'000;
  const int churn_rounds = short_mode ? 2 : 4;

  klb::testbed::banner(
      "Flow-table memory: stateful vs stateless fast path (" +
      std::to_string(kDips) + " DIPs, maglev, " + std::to_string(flows) +
      " concurrent flows, " + std::to_string(churn_rounds) +
      " graceful-drain churn rounds)");

  const auto stateful = run_scenario(/*stateless=*/false, flows, churn_rounds);
  const auto hybrid = run_scenario(/*stateless=*/true, flows, churn_rounds);
  bool ok = stateful.ok && hybrid.ok;

  const double ratio = static_cast<double>(stateful.peak_bytes) /
                       std::max<double>(1.0, static_cast<double>(hybrid.peak_bytes));
  const double flows_d = static_cast<double>(flows);
  klb::testbed::Table table({"mode", "table bytes", "bytes/flow", "entries",
                             "stateless picks", "exception pins",
                             "breaks (tap/ctr)"});
  auto row = [&](const char* name, const ScenarioResult& r) {
    table.row({name, klb::testbed::fmt(static_cast<double>(r.peak_bytes) / 1e6, 1) + " MB",
               klb::testbed::fmt(static_cast<double>(r.peak_bytes) / flows_d, 1),
               std::to_string(r.peak_entries), std::to_string(r.stateless_picks),
               std::to_string(r.exception_pins),
               std::to_string(r.tap_breaks) + "/" +
                   std::to_string(r.affinity_breaks)});
  };
  row("stateful", stateful);
  row("stateless", hybrid);
  table.print();
  std::cout << "\nmemory ratio (stateful/stateless): "
            << klb::testbed::fmt(ratio, 1) << "x   ("
            << klb::testbed::fmt(static_cast<double>(stateful.peak_bytes) / 1e6, 1)
            << " MB -> "
            << klb::testbed::fmt(static_cast<double>(hybrid.peak_bytes) / 1e6, 1)
            << " MB at " << flows << " flows; churn peak "
            << klb::testbed::fmt(static_cast<double>(hybrid.churn_bytes) / 1e6, 1)
            << " MB)\nbreaks avoided by exception adoption: "
            << hybrid.breaks_avoided << "\n";

  auto json = klb::bench::Json::object();
  json.set("bench", "flow_memory")
      .set("mode", short_mode ? "short" : "full")
      .set("flows", flows)
      .set("dips", kDips)
      .set("churn_rounds", churn_rounds)
      .set("stateful_bytes", stateful.peak_bytes)
      .set("stateful_bytes_per_flow",
           static_cast<double>(stateful.peak_bytes) / flows_d)
      .set("stateful_entries", stateful.peak_entries)
      .set("stateless_bytes", hybrid.peak_bytes)
      .set("stateless_bytes_per_flow",
           static_cast<double>(hybrid.peak_bytes) / flows_d)
      .set("stateless_entries", hybrid.peak_entries)
      .set("stateless_churn_peak_bytes", hybrid.churn_bytes)
      .set("memory_ratio", ratio)
      .set("stateless_picks", hybrid.stateless_picks)
      .set("exception_pins", hybrid.exception_pins)
      .set("breaks_avoided", hybrid.breaks_avoided)
      .set("breaks_stateful", stateful.tap_breaks)
      .set("breaks_stateless", hybrid.tap_breaks)
      .set("drive_sec_stateful", stateful.drive_sec)
      .set("drive_sec_stateless", hybrid.drive_sec);

  if (gc_mode) {
    std::cout << "\n";
    klb::testbed::banner("GC sweep latency at " + std::to_string(flows) +
                         " flows (budget " + std::to_string(gc_budget) + ")");
    const auto gc = run_gc(flows, gc_budget);
    klb::testbed::Table gct({"sweep", "worst call", "calls to drain"});
    gct.row({"full shard", klb::testbed::fmt(gc.full_sweep_ms, 2) + " ms", "1/shard"});
    gct.row({"budgeted (" + std::to_string(gc_budget) + ")",
             klb::testbed::fmt(gc.budgeted_max_ms, 3) + " ms",
             std::to_string(gc.budgeted_calls)});
    gct.print();
    std::cout << "\nA budgeted sweep bounds the per-packet pause; successive "
                 "calls resume from the shard's bucket cursor.\n";
    json.set("gc", klb::bench::Json::object()
                       .set("budget", gc_budget)
                       .set("full_sweep_worst_ms", gc.full_sweep_ms)
                       .set("budgeted_worst_ms", gc.budgeted_max_ms)
                       .set("budgeted_calls", gc.budgeted_calls));
  }

  // --- gates (always checked; hard-fail the run) ----------------------------
  // Same-instrumentation ratio: approx_bytes is computed from sizeofs, not
  // RSS, so the OFF/ON comparison is identical under TSan.
  if (ratio < 5.0) {
    std::cerr << "FAIL: stateless memory ratio " << klb::testbed::fmt(ratio, 2)
              << "x below the 5x gate\n";
    ok = false;
  }
  if (hybrid.tap_breaks != 0 || hybrid.affinity_breaks != 0) {
    std::cerr << "FAIL: " << hybrid.tap_breaks << " tap-observed / "
              << hybrid.affinity_breaks
              << " counted affinity breaks with stateless on (gate: 0)\n";
    ok = false;
  }
  if (hybrid.tap_breaks > stateful.tap_breaks) {
    std::cerr << "FAIL: stateless mode broke more flows ("
              << hybrid.tap_breaks << ") than stateful (" << stateful.tap_breaks
              << ")\n";
    ok = false;
  }
  if (hybrid.stateless_picks == 0) {
    std::cerr << "FAIL: no stateless picks — the fast path never engaged\n";
    ok = false;
  }

  if (!json_path.empty() && !klb::bench::write_json_file(json_path, json))
    return 1;
  if (!ok) return 1;
  std::cout << "\ngates passed (>= 5x memory at " << flows
            << " flows, zero broken affinities under graceful churn)\n";
  return 0;
}
