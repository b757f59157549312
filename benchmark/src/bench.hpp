// Shared plumbing for klb_benchmark: run options, the result record every
// workload fills, wall-clock spans, and the timing proxy a traced run puts
// in front of a fabric node.
//
// Spans live in the benchmark's own files only: they wrap calls into the
// library's public entry points (Node::on_message/on_batch, apply_program,
// Simulation::run_for, the controller's round phases), never code inside
// the library. A traced run changes wall-clock time and nothing else, so
// it must reproduce the untraced run's virtual behaviour bit for bit; each
// workload records a fingerprint of that behaviour for main() to compare.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/mux_pool.hpp"
#include "net/fabric.hpp"

namespace klb::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

struct Options {
  std::uint64_t seed = 1;
  /// Scales each workload's timed window; at 10 the windows take roughly
  /// 10 wall seconds on a 4-core x86 host (see README.md).
  double seconds = 10.0;
  bool trace = false;
};

/// A measured value. Names and units are declared once, in main.cpp's
/// metric tables (mirrored by BENCHMARK.json); workloads only fill values.
struct Metric {
  std::string name;
  double value = 0.0;
  /// Samples behind the value: slices for a throughput, latency samples
  /// for a percentile, set-ups for setup_s (0 for plain ratios).
  std::uint64_t samples = 0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Wall seconds of the timed window (trace.overhead_frac compares them).
  double window_s = 0.0;
  /// Wall seconds inside spanned entry points (traced runs).
  double entry_s = 0.0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Check> checks;
  /// Virtual behaviour a traced run must reproduce exactly: counters and
  /// bit patterns of virtual-time metrics and weights.
  std::vector<std::pair<std::string, std::uint64_t>> fingerprint;

  void e2e(std::string name, double value, std::uint64_t samples = 0) {
    end_to_end.push_back({std::move(name), value, samples});
  }
  /// Per-layer values are only recorded by traced runs; a layer the
  /// workload does not exercise is left out and reads 0.
  void layer(std::string name, double value, std::uint64_t samples = 0) {
    per_layer.push_back({std::move(name), value, samples});
  }
  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void note(std::string name, std::uint64_t value) {
    fingerprint.emplace_back(std::move(name), value);
  }
  void note(std::string name, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    fingerprint.emplace_back(std::move(name), bits);
  }
};

/// Accumulated wall time of one layer's entry point.
struct Span {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  // messages, packets, commits, ...

  void add(Clock::time_point t0, std::uint64_t n = 1) {
    ns += ns_since(t0);
    ++calls;
    items += n;
  }
  double seconds() const { return static_cast<double>(ns) * 1e-9; }
  /// Mean nanoseconds per item; 0 when the layer saw no work.
  double ns_per_item() const {
    return items == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(items);
  }
};

/// Timing proxy: rebinding a fabric address to it forwards every delivery
/// to the original node unchanged and charges the wall time to `span`.
/// Forwarding schedules nothing and draws no randomness, so the simulation
/// runs exactly as it would without the proxy.
class TimedNode final : public net::Node {
 public:
  TimedNode(net::Node& inner, Span& span) : inner_(inner), span_(span) {}

  void on_message(const net::Message& msg) override {
    const auto t0 = Clock::now();
    inner_.on_message(msg);
    span_.add(t0, 1);
  }
  void on_batch(const net::Message* const* msgs, std::size_t n) override {
    const auto t0 = Clock::now();
    inner_.on_batch(msgs, n);
    span_.add(t0, n);
  }

 private:
  net::Node& inner_;
  Span& span_;
};

/// Exact percentile (rank floor(p * (n - 1)) of the sorted samples).
/// Reorders `v`; returns 0 for an empty sample.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const auto k =
      static_cast<std::ptrdiff_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[static_cast<std::size_t>(k)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

// Wall-clock metrics are measured per slice of the timed window and
// reported from the slices' better quartile. On a shared host a
// neighbour's cache or memory traffic only ever slows a slice down (on a
// 4-vCPU KVM guest, a random walk over 8 MB swung between 38 and 82 ns per
// access from one second to the next), so the median still moves with how
// long the host was disturbed, while the better quartile tracks what the
// code costs. A change that slows the code slows every slice, so it still
// shows.

/// Throughput: the upper quartile of per-slice rates.
inline double upper_quartile(std::vector<double> v) {
  return percentile(v, 0.75);
}
/// Latency: the lower quartile of per-slice percentiles.
inline double lower_quartile(std::vector<double> v) {
  return percentile(v, 0.25);
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Build the workload's state `k` times and keep the last build: set-up
/// time is reported as the median over the builds, so one slow build (a
/// page-fault storm, a neighbour's burst) does not move it.
template <typename Make>
auto repeat_setup(int k, double* median_s, Make make) {
  std::vector<double> took;
  auto t0 = Clock::now();
  auto state = make();
  took.push_back(seconds_since(t0));
  for (int i = 1; i < k; ++i) {
    state = nullptr;  // one instance alive at a time: peak RSS stays honest
    t0 = Clock::now();
    state = make();
    took.push_back(seconds_since(t0));
  }
  *median_s = median(took);
  return state;
}

/// Number of set-ups an untraced run times (traced runs build once).
inline constexpr int kSetupRepeats = 5;

/// Micro-timing: call `body` (which does `units` units of work) until
/// `min_s` wall seconds have passed; returns nanoseconds per unit.
template <typename Body>
double time_per_unit(double min_s, double units, Body body) {
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  do {
    body();
    ++calls;
  } while (seconds_since(t0) < min_s);
  return static_cast<double>(ns_since(t0)) /
         (static_cast<double>(calls) * units);
}

/// Quiesced and polled, a Mux must have freed every generation it retired:
/// only the live one remains.
inline bool generations_reclaimed(const lb::Mux& m) {
  return m.pending_retired_generations() == 0 &&
         m.generations_retired() + 1 == m.generations_published();
}

/// MuxPool counters, read as deltas and never reset: a counter zeroed
/// before it is read hides exactly the events a check must see.
struct PoolCounters {
  std::uint64_t no_backend_drops = 0;
  std::uint64_t drains_completed = 0;
  std::uint64_t generations_published = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t flow_inserts = 0;
};

inline PoolCounters pool_counters(const lb::MuxPool& pool) {
  PoolCounters c;
  c.no_backend_drops = pool.no_backend_drops();
  c.drains_completed = pool.drains_completed();
  c.generations_published = pool.generations_published();
  for (std::size_t k = 0; k < pool.mux_count(); ++k) {
    const auto s = pool.mux(k).flow_table().stats();
    c.cache_hits += s.cache_hits;
    c.cache_misses += s.cache_misses;
    c.flow_inserts += s.inserts;
  }
  return c;
}

/// The flow-table and generation layer metrics between two snapshots,
/// over `msgs` messages into the pool.
inline void report_pool_layers(const PoolCounters& c0, const PoolCounters& c1,
                               double msgs, RunResult& r) {
  const auto hits = static_cast<double>(c1.cache_hits - c0.cache_hits);
  const auto misses = static_cast<double>(c1.cache_misses - c0.cache_misses);
  r.layer("lb.cache_hit_frac", ratio(hits, hits + misses));
  r.layer("lb.flow_inserts_per_msg",
          ratio(static_cast<double>(c1.flow_inserts - c0.flow_inserts), msgs));
  r.layer("lb.generations_published",
          static_cast<double>(c1.generations_published -
                              c0.generations_published));
  r.layer("lb.drains_completed",
          static_cast<double>(c1.drains_completed - c0.drains_completed));
}

/// Milliseconds per MaglevTable::build of `entries` at the default size.
double maglev_build_ms(const std::vector<lb::MaglevEntry>& entries);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Workloads. Each runs one seeded instance and reports its metrics.
RunResult run_steady_pool(const Options& opt);
RunResult run_klb_churn(const Options& opt);
RunResult run_dataplane_burst(const Options& opt);
RunResult run_fleet_control(const Options& opt);

}  // namespace klb::benchmark
