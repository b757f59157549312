// Shared harness for the figure/table reproduction benches: run one LB
// policy (or KnapsackLB) on a DIP pool, collect per-DIP and per-VM-type
// metrics over a measurement window, and compute the latency-gain numbers
// the paper reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "testbed/report.hpp"
#include "testbed/testbed.hpp"

namespace klb::bench {

using namespace util::literals;

struct PolicyRunResult {
  std::string policy;
  std::vector<testbed::DipMetrics> dips;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  std::vector<double> raw_latencies_ms;  // per request, for CDF comparisons
  bool converged = true;                 // KnapsackLB exploration finished
  util::SimTime convergence_time = util::SimTime::zero();
};

struct PolicyRunOptions {
  std::uint64_t seed = 1;
  double load_fraction = 0.70;
  util::SimTime warmup = util::SimTime::seconds(20);
  util::SimTime window = util::SimTime::seconds(30);
  util::SimTime klb_limit = util::SimTime::minutes(20);
  /// Extra settle time after exploration finishes, before the warmup:
  /// lets §4.5's capacity rescales correct any under-discovered wmax
  /// (visible as an initial infeasible-ILP fallback) before measuring.
  util::SimTime klb_settle = util::SimTime::minutes(3);
  /// Static weights for weighted baselines (normalized internally); empty
  /// keeps the MUX's equal split.
  std::vector<double> static_weights;
  /// Cluster profile (the KLB comparison benches): one-request sessions, a
  /// large client-concurrency budget, and a small accept backlog. Multiple
  /// DIPs probe over-capacity weights at once during exploration; small
  /// backlogs shed overload via 503s instead of letting a few saturated
  /// DIPs hoard every client-concurrency slot and starve the others'
  /// measurements. All policies within a bench run the same profile, so
  /// comparisons stay apples-to-apples.
  bool cluster_profile = false;
};

/// Run `policy` ("rr", "lc", "wrr", "wlc", "random", "wrandom", "p2",
/// "hash", or "klb") on the pool and measure a steady window.
inline PolicyRunResult run_policy(const std::vector<testbed::DipSpec>& specs,
                                  const std::string& policy,
                                  const PolicyRunOptions& opt) {
  PolicyRunResult result;
  result.policy = policy;

  testbed::TestbedConfig cfg;
  cfg.seed = opt.seed;
  cfg.load_fraction = opt.load_fraction;
  cfg.use_knapsacklb = (policy == "klb");
  cfg.policy = cfg.use_knapsacklb ? "wrr" : policy;
  if (opt.cluster_profile) {
    cfg.requests_per_session = 1.0;
    cfg.closed_loop_factor = 20.0;
    cfg.dip.backlog_per_core = 24;
    // Steady-state comparison windows measure the converged assignment;
    // periodic curve refreshes (validated separately by the dynamics
    // benches and tests) would churn the window.
    cfg.controller.refresh_interval = util::SimTime::zero();
  }

  testbed::Testbed bed(specs, cfg);

  if (!opt.static_weights.empty()) bed.set_static_weights(opt.static_weights);

  if (cfg.use_knapsacklb) {
    result.converged = bed.run_until_ready(opt.klb_limit);
    result.convergence_time = bed.sim().now();
    bed.run_for(opt.klb_settle);
    bed.run_for(opt.warmup);
  } else {
    bed.run_for(opt.warmup);
  }

  bed.reset_stats();
  bed.run_for(opt.window);

  result.dips = bed.metrics();
  result.mean_latency_ms = bed.overall_latency_ms();
  result.p99_latency_ms = bed.overall_p99_ms();
  const auto raw = bed.clients().recorder().raw_latencies_ms();
  result.raw_latencies_ms.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    result.raw_latencies_ms.push_back(raw[i]);
  return result;
}

/// Aggregate per-DIP metrics by VM type, preserving first-seen order.
struct TypeAgg {
  std::string type;
  double cpu = 0.0;
  double latency_ms = 0.0;
  double weight = 0.0;
  std::uint64_t requests = 0;
  int count = 0;
};

inline std::vector<TypeAgg> by_type(const PolicyRunResult& r) {
  std::vector<TypeAgg> out;
  auto find = [&](const std::string& t) -> TypeAgg& {
    for (auto& a : out)
      if (a.type == t) return a;
    out.push_back(TypeAgg{t, 0, 0, 0, 0, 0});
    return out.back();
  };
  for (const auto& d : r.dips) {
    auto& agg = find(d.vm_type);
    agg.cpu += d.cpu_utilization;
    agg.latency_ms += d.client_latency_ms * static_cast<double>(d.client_requests);
    agg.weight += d.weight;
    agg.requests += d.client_requests;
    agg.count += 1;
  }
  for (auto& a : out) {
    a.cpu /= std::max(1, a.count);
    a.latency_ms =
        a.requests > 0 ? a.latency_ms / static_cast<double>(a.requests) : 0.0;
  }
  return out;
}

/// The paper's "cuts latency by up to X% for Y% of requests": compare the
/// two latency CDFs; X = max relative improvement across matching
/// percentiles, Y = fraction of percentiles where KLB is at least 2% better.
/// X alone can hide a loss (a best percentile says nothing of the mean), so
/// the summary also carries KLB's signed change of the mean and the P99
/// against the baseline: positive means KLB is slower.
struct GainSummary {
  double max_gain = 0.0;       // at some percentile
  double request_share = 0.0;  // fraction of requests seeing >=2% gain
  double mean_delta = 0.0;     // (KLB mean - baseline mean) / baseline mean
  double p99_delta = 0.0;      // (KLB P99 - baseline P99) / baseline P99
};

/// A signed relative change, e.g. "+81.1% (worse)" or "-12.0% (better)".
inline std::string fmt_delta(double delta) {
  return (delta > 0.0 ? "+" : "") + testbed::fmt_pct(delta) +
         (delta > 0.0 ? " (worse)" : delta < 0.0 ? " (better)" : "");
}

/// KLB's signed mean and P99 changes against `baseline_name`, for printing
/// next to a max gain.
inline std::string fmt_deltas(const GainSummary& g,
                              const std::string& baseline_name) {
  return "KLB mean " + fmt_delta(g.mean_delta) + ", P99 " +
         fmt_delta(g.p99_delta) + " vs " + baseline_name;
}

inline GainSummary compare_gains(const PolicyRunResult& baseline,
                                 const PolicyRunResult& klb) {
  GainSummary g;
  if (baseline.raw_latencies_ms.empty() || klb.raw_latencies_ms.empty())
    return g;
  auto base = baseline.raw_latencies_ms;
  auto ours = klb.raw_latencies_ms;
  std::sort(base.begin(), base.end());
  std::sort(ours.begin(), ours.end());

  int improved = 0;
  const int kSteps = 1000;
  for (int i = 0; i < kSteps; ++i) {
    const double q = (i + 0.5) / kSteps;
    const double b = base[static_cast<std::size_t>(q * static_cast<double>(base.size()))];
    const double o = ours[static_cast<std::size_t>(q * static_cast<double>(ours.size()))];
    if (b <= 0.0) continue;
    const double gain = (b - o) / b;
    g.max_gain = std::max(g.max_gain, gain);
    if (gain >= 0.02) ++improved;
  }
  g.request_share = static_cast<double>(improved) / kSteps;
  if (baseline.mean_latency_ms > 0.0)
    g.mean_delta = (klb.mean_latency_ms - baseline.mean_latency_ms) /
                   baseline.mean_latency_ms;
  if (baseline.p99_latency_ms > 0.0)
    g.p99_delta = (klb.p99_latency_ms - baseline.p99_latency_ms) /
                  baseline.p99_latency_ms;
  return g;
}

/// Print the standard per-type CPU/latency table for a set of runs.
inline void print_by_type(const std::vector<PolicyRunResult>& runs) {
  std::vector<std::string> headers{"DIP type"};
  for (const auto& r : runs) headers.push_back(r.policy + " CPU");
  for (const auto& r : runs) headers.push_back(r.policy + " lat(ms)");
  testbed::Table table(headers);

  const auto first = by_type(runs.front());
  for (std::size_t t = 0; t < first.size(); ++t) {
    std::vector<std::string> row{first[t].type};
    for (const auto& r : runs) {
      const auto agg = by_type(r);
      row.push_back(testbed::fmt_pct(agg[t].cpu));
    }
    for (const auto& r : runs) {
      const auto agg = by_type(r);
      row.push_back(testbed::fmt(agg[t].latency_ms));
    }
    table.row(row);
  }
  table.print();
  for (const auto& r : runs) {
    std::cout << r.policy << ": mean " << testbed::fmt(r.mean_latency_ms)
              << " ms, P99 " << testbed::fmt(r.p99_latency_ms) << " ms";
    if (r.policy == "klb")
      std::cout << (r.converged ? "" : "  [WARN: exploration did not finish]");
    std::cout << "\n";
  }
}

/// Weights proportional to core count (the paper's WRR/WLC baselines).
inline std::vector<double> core_weights(const std::vector<testbed::DipSpec>& specs) {
  std::vector<double> w;
  for (const auto& s : specs) w.push_back(static_cast<double>(s.vm.cores));
  return w;
}

// --- machine-readable bench results (BENCH_*.json) ---------------------------
//
// Every Release bench-smoke run in CI emits its headline numbers through
// this tiny JSON value type and commits them to the repo root, so
// BENCH_mux_hotpath.json / BENCH_fig16_churn.json track PR-over-PR
// performance. Deliberately minimal: objects keep insertion order (stable
// diffs), doubles round-trip via max_digits-ish formatting, NaN/inf
// degrade to 0 (JSON has no spelling for them).
class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}  // NOLINT(google-explicit-constructor)
  Json(double v) : kind_(Kind::kNumber), num_(v) {}  // NOLINT
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}  // NOLINT
  Json(std::uint64_t v)  // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}       // NOLINT
  Json(unsigned v) : kind_(Kind::kInt), int_(v) {}  // NOLINT
  Json(const char* v) : kind_(Kind::kString), str_(v) {}  // NOLINT
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}  // NOLINT

  /// Object member (insertion-ordered; a repeated key overwrites).
  Json& set(const std::string& key, Json value) {
    for (auto& [k, v] : members_) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  Json& push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  std::string dump(int indent = 2) const {
    std::ostringstream out;
    write(out, indent, 0);
    return out.str();
  }

 private:
  enum class Kind { kNull, kBool, kInt, kNumber, kString, kObject, kArray };
  explicit Json(Kind k) : kind_(k) {}

  static void escape(std::ostream& out, const std::string& s) {
    out << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\t': out << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
                << "0123456789abcdef"[c & 0xf];
          } else {
            out << c;
          }
      }
    }
    out << '"';
  }

  void write(std::ostream& out, int indent, int depth) const {
    const std::string pad(static_cast<std::size_t>(indent) *
                              static_cast<std::size_t>(depth + 1),
                          ' ');
    const std::string close_pad(
        static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
        ' ');
    switch (kind_) {
      case Kind::kNull: out << "null"; break;
      case Kind::kBool: out << (bool_ ? "true" : "false"); break;
      case Kind::kInt: out << int_; break;
      case Kind::kNumber: {
        if (!std::isfinite(num_)) {
          out << 0;
          break;
        }
        std::ostringstream num;
        num.precision(12);
        num << num_;
        out << num.str();
        break;
      }
      case Kind::kString: escape(out, str_); break;
      case Kind::kObject: {
        if (members_.empty()) {
          out << "{}";
          break;
        }
        out << "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out << pad;
          escape(out, members_[i].first);
          out << ": ";
          members_[i].second.write(out, indent, depth + 1);
          out << (i + 1 < members_.size() ? ",\n" : "\n");
        }
        out << close_pad << "}";
        break;
      }
      case Kind::kArray: {
        if (items_.empty()) {
          out << "[]";
          break;
        }
        out << "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
          out << pad;
          items_[i].write(out, indent, depth + 1);
          out << (i + 1 < items_.size() ? ",\n" : "\n");
        }
        out << close_pad << "]";
        break;
      }
    }
  }

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

/// Build provenance stamped into every BENCH_*.json: which compiler (and
/// version) produced the numbers, under which flags and sanitizers. A
/// regression that is really a toolchain change (gcc vs clang CI lanes,
/// an -O level slip, an accidentally-sanitized binary) is then visible in
/// the result diff itself instead of sending someone bisecting the code.
inline Json build_stamp() {
  auto build = Json::object();
#if defined(__clang__)
  build.set("compiler", "clang");
  build.set("compiler_version", Json(static_cast<std::int64_t>(__clang_major__)));
#elif defined(__GNUC__)
  build.set("compiler", "gcc");
  build.set("compiler_version", Json(static_cast<std::int64_t>(__GNUC__)));
#else
  build.set("compiler", "unknown");
#endif
#ifdef __VERSION__
  build.set("compiler_banner", __VERSION__);
#endif
#ifdef KLB_CXX_FLAGS
  // Injected per bench target by CMake: the flags this binary was
  // actually built with (build type included).
  build.set("cxx_flags", KLB_CXX_FLAGS);
#endif
#ifdef NDEBUG
  build.set("assertions", false);
#else
  build.set("assertions", true);
#endif
  bool sanitized = false;
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  sanitized = true;
#endif
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  build.set("sanitized", sanitized);
  return build;
}

/// Write `value` to `path` with a trailing newline, stamping the build
/// provenance (see build_stamp) under a top-level "build" key. Returns
/// false (with a stderr note) on I/O failure so benches can exit non-zero.
inline bool write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  Json stamped = value;
  stamped.set("build", build_stamp());
  out << stamped.dump() << "\n";
  return static_cast<bool>(out);
}


/// The Fig. 3/4 capacity-ratio sweep: 2x DIP-HC + 1x DIP-LC, DIP-LC
/// degraded to `ratio`, fixed traffic at 80% of healthy capacity.
inline void run_capacity_sweep(const std::string& policy) {
  testbed::banner("capacity-ratio sweep, policy = " + policy);
  testbed::Table table({"capacity ratio", "DIP-LC CPU", "DIP-HC CPU",
                        "DIP-LC lat(ms)", "DIP-HC lat(ms)", "LC/HC latency"});

  for (const double ratio : {1.0, 0.9, 0.75, 0.6}) {
    PolicyRunOptions opt;
    opt.seed = 42;
    opt.load_fraction = 0.80;  // paper: ~80% CPU at ratio 100%
    const auto r =
        run_policy(testbed::three_dip_specs(1.0, 1.0, ratio), policy, opt);

    const auto& hc1 = r.dips[0];
    const auto& hc2 = r.dips[1];
    const auto& lc = r.dips[2];
    const double hc_cpu = (hc1.cpu_utilization + hc2.cpu_utilization) / 2.0;
    const double hc_lat =
        (hc1.client_latency_ms * static_cast<double>(hc1.client_requests) +
         hc2.client_latency_ms * static_cast<double>(hc2.client_requests)) /
        std::max<double>(1.0, static_cast<double>(hc1.client_requests +
                                                  hc2.client_requests));
    table.row({testbed::fmt_pct(ratio, 0), testbed::fmt_pct(lc.cpu_utilization),
               testbed::fmt_pct(hc_cpu), testbed::fmt(lc.client_latency_ms),
               testbed::fmt(hc_lat),
               testbed::fmt(hc_lat > 0 ? lc.client_latency_ms / hc_lat : 0.0) +
                   "x"});
  }
  table.print();
}

}  // namespace klb::bench

