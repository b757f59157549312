// klb_benchmark: the repository benchmark's one binary.
//
//   klb_benchmark --workload NAME|all [--seed N] [--seconds S] [--trace]
//                 [--json PATH]
//   klb_benchmark --list
//
// Each workload runs once untraced and reports the end-to-end metrics.
// --trace then runs it again, same seed, with spans around the library's
// entry points, and reports the per-layer metrics; the traced run must
// reproduce the untraced run's virtual behaviour exactly. Every contract
// check a workload makes is printed; any violation exits 1. Usage errors
// (an unknown flag or workload) exit 2.
//
// stderr gets a human-readable table, stdout one JSON object per workload
// (benchmark/run.py turns that into the one-line result BENCHMARK.json's
// command prints).
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "util/logging.hpp"

namespace klb::benchmark {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric tables. BENCHMARK.json lists the same names and units (with
// each end-to-end bound); benchmark/run.py refuses a result that misses
// one, so the two cannot drift apart silently.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},     {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not exercise reads 0 (units are per unit of
// that layer's own work, so 0 never poses as a measured time).
constexpr MetricDef kPerLayer[] = {
    {"sim.self_ns_per_event", "ns/event"},
    {"sim.events_per_op", "events/op"},
    {"sim.queue_depth", "events"},
    {"net.msgs_per_op", "msgs/op"},
    {"net.send_burst_ns_per_pkt", "ns/pkt"},
    {"lb.ns_per_msg", "ns/msg"},
    {"lb.busy_frac", "frac"},
    {"lb.flow_lookup_ns", "ns/lookup"},
    {"lb.epoch_pin_ns", "ns/pin"},
    {"lb.cache_hit_frac", "frac"},
    {"lb.flow_inserts_per_msg", "inserts/msg"},
    {"lb.commit_ms", "ms/commit"},
    {"lb.maglev_build_ms", "ms/build"},
    {"lb.generations_published", "count"},
    {"lb.drains_completed", "count"},
    {"server.ns_per_msg", "ns/msg"},
    {"server.busy_frac", "frac"},
    {"workload.ns_per_msg", "ns/msg"},
    {"workload.busy_frac", "frac"},
    {"klm.busy_frac", "frac"},
    {"store.busy_frac", "frac"},
    {"store.record_us", "us/record"},
    {"core.prepare_us", "us/vip"},
    {"core.solve_ms", "ms/solve"},
    {"core.apply_self_ms", "ms/apply"},
    {"core.ilp_runs", "count"},
    {"core.rescales", "count"},
    {"core.converge_vs", "vs"},
    {"trace.overhead_frac", "frac"},
    {"trace.entry_frac", "frac"},
};

struct Workload {
  const char* name;
  const char* why;
  RunResult (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"steady_pool",
     "Table-3 testbed at 70% load, static weights: event loop, fabric, "
     "codecs, DIPs and clients; no control plane",
     run_steady_pool},
    {"klb_churn",
     "KnapsackLB explores to Ready, then capacity steal, scale-out, rolling "
     "drain and correlated failure under live traffic",
     run_klb_churn},
    {"dataplane_burst",
     "3-mux MuxPool fed 32-packet bursts of short flows plus a reweighting "
     "commit every 20 ms: flow-table churn, no servers",
     run_dataplane_burst},
    {"fleet_control",
     "100 VIPs x 30 DIPs under the multi-VIP coordinator: prepare, solve "
     "and commit into Mux generations, no packets",
     run_fleet_control},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "klb_benchmark: " << error
            << "\nusage: klb_benchmark --workload NAME|all [--seed N] "
               "[--seconds S] [--trace] [--json PATH]\n"
               "       klb_benchmark --list\n";
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const MetricDef* find_def(const MetricDef* defs, std::size_t n,
                          const std::string& name) {
  for (std::size_t i = 0; i < n; ++i)
    if (name == defs[i].name) return &defs[i];
  return nullptr;
}

/// Render one metric group in table order; a workload reporting a name
/// the table does not declare is a bug in the benchmark itself.
template <std::size_t N>
std::string metric_group(const MetricDef (&defs)[N],
                         const std::vector<Metric>& got, bool zero_missing,
                         std::ostream& human) {
  for (const auto& m : got) {
    if (find_def(defs, N, m.name) == nullptr) {
      std::cerr << "klb_benchmark: undeclared metric " << m.name << "\n";
      std::exit(3);
    }
  }
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const Metric* m = nullptr;
    for (const auto& g : got)
      if (g.name == defs[i].name) m = &g;
    if (m == nullptr && !zero_missing) {
      std::cerr << "klb_benchmark: workload did not report " << defs[i].name
                << "\n";
      std::exit(3);
    }
    const double value = m != nullptr ? m->value : 0.0;
    const std::uint64_t samples = m != nullptr ? m->samples : 0;
    if (i > 0) out += ", ";
    out += json_string(defs[i].name) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(defs[i].unit) +
           ", \"samples\": " + std::to_string(samples) + "}";
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %16.6g %-12s", defs[i].name,
                  value, defs[i].unit);
    human << line;
    if (samples > 0) human << " (n=" << samples << ")";
    human << "\n";
  }
  return out + "}";
}

/// Names of fingerprint entries whose values differ between two runs.
std::string fingerprint_diff(const RunResult& a, const RunResult& b) {
  if (a.fingerprint.size() != b.fingerprint.size()) return "entry count";
  std::string diff;
  for (std::size_t i = 0; i < a.fingerprint.size(); ++i)
    if (a.fingerprint[i] != b.fingerprint[i])
      diff += a.fingerprint[i].first + " ";
  return diff;
}

/// Run one workload (untraced, then traced on request) and render it.
bool run_one(const Workload& w, const Options& opt, std::string* json) {
  std::ostringstream human;
  human << "== " << w.name << " (seed " << opt.seed << ", seconds "
        << opt.seconds << (opt.trace ? ", traced" : "") << ")\n";

  Options plain = opt;
  plain.trace = false;
  RunResult base = w.run(plain);
  base.e2e("peak_rss_mb", peak_rss_mb());
  std::vector<Check> checks = base.checks;

  std::optional<RunResult> traced;
  if (opt.trace) {
    Options t = opt;
    t.trace = true;
    traced = w.run(t);
    for (const auto& c : traced->checks)
      checks.push_back({"traced: " + c.name, c.ok, c.detail});
    const auto diff = fingerprint_diff(base, *traced);
    checks.push_back({"traced run reproduces the untraced run", diff.empty(),
                      diff.empty() ? "" : "differs in: " + diff});
    traced->layer("trace.overhead_frac",
                  ratio(traced->window_s, base.window_s) - 1.0);
    traced->layer("trace.entry_frac", ratio(traced->entry_s, traced->window_s));
  }

  bool correct = true;
  for (const auto& c : checks) correct = correct && c.ok;

  *json = "{\"workload\": " + json_string(w.name) +
          ", \"seed\": " + std::to_string(opt.seed) +
          ", \"seconds\": " + json_number(opt.seconds) +
          ", \"trace\": " + (opt.trace ? "true" : "false") +
          ", \"correct\": " + (correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(base.attempted) +
          ", \"failed\": " + std::to_string(base.failed) +
          ", \"window_s\": " + json_number(base.window_s);
  human << "end-to-end (attempted " << base.attempted << ", failed "
        << base.failed << ", window " << base.window_s << " s wall)\n";
  *json += ", \"end_to_end\": " +
           metric_group(kEndToEnd, base.end_to_end, false, human);
  if (traced) {
    human << "per-layer (traced window " << traced->window_s << " s wall)\n";
    *json += ", \"per_layer\": " +
             metric_group(kPerLayer, traced->per_layer, true, human);
  }
  *json += ", \"checks\": [";
  human << "checks\n";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto& c = checks[i];
    if (i > 0) *json += ", ";
    *json += "{\"name\": " + json_string(c.name) +
             ", \"ok\": " + (c.ok ? "true" : "false") +
             ", \"detail\": " + json_string(c.detail) + "}";
    human << "  [" << (c.ok ? "ok" : "FAIL") << "] " << c.name;
    if (!c.detail.empty()) human << ": " << c.detail;
    human << "\n";
  }
  *json += "]}";
  std::cerr << human.str() << std::flush;
  return correct;
}

}  // namespace
}  // namespace klb::benchmark

int main(int argc, char** argv) {
  using namespace klb::benchmark;
  Options opt;
  std::string workload;
  std::string json_path;
  bool list = false;

  const auto value_of = [&](int& i, const std::string& flag) {
    if (i + 1 >= argc) usage(flag + " needs a value");
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      workload = value_of(i, a);
    } else if (a == "--seed") {
      const auto v = value_of(i, a);
      char* end = nullptr;
      errno = 0;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-' || errno == ERANGE)
        usage("bad --seed " + v);
    } else if (a == "--seconds") {
      const auto v = value_of(i, a);
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0)
        usage("bad --seconds " + v);
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--json") {
      json_path = value_of(i, a);
    } else if (a == "--list") {
      list = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (list) {
    for (const auto& w : kWorkloads) std::cout << w.name << "\t" << w.why << "\n";
    return 0;
  }
  if (workload.empty()) usage("--workload is required");

  std::vector<const Workload*> chosen;
  for (const auto& w : kWorkloads)
    if (workload == "all" || workload == w.name) chosen.push_back(&w);
  if (chosen.empty()) usage("unknown workload '" + workload + "'");

  // Library warnings (stale-program discards, infeasible-ILP fallbacks) are
  // expected under churn; the checks below are the verdict.
  klb::util::set_log_threshold(klb::util::LogLevel::kError);

  bool all_correct = true;
  std::string json_all = "[";
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    std::string json;
    all_correct = run_one(*chosen[i], opt, &json) && all_correct;
    std::cout << json << "\n" << std::flush;
    json_all += (i > 0 ? ", " : "") + json;
  }
  json_all += "]\n";
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    f << json_all;
    if (!f) {
      std::cerr << "klb_benchmark: cannot write " << json_path << "\n";
      return 1;
    }
  }
  return all_correct ? 0 : 1;
}
