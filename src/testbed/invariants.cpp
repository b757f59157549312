#include "testbed/invariants.hpp"

#include <algorithm>
#include <cmath>

#include "testbed/report.hpp"
#include "testbed/testbed.hpp"
#include "util/weight.hpp"

namespace klb::testbed {

void InvariantChecker::expect(bool cond, const std::string& what) {
  if (!cond) violations_.push_back(label.empty() ? what : label + ": " + what);
}

void InvariantChecker::expect_eq(const std::string& what, std::uint64_t got,
                                 std::uint64_t want) {
  expect(got == want, what + " " + std::to_string(got) + ", want " +
                          std::to_string(want));
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const auto& v : violations_) out += "INVARIANT VIOLATED " + v + "\n";
  return out;
}

void InvariantChecker::quiesced(const lb::MuxPool& pool,
                                std::uint64_t requests,
                                std::uint64_t connections) {
  std::vector<const lb::Mux*> members;
  for (std::size_t k = 0; k < pool.mux_count(); ++k)
    members.push_back(&pool.mux(k));
  quiesced(members, requests, connections);
}

void InvariantChecker::quiesced(const std::vector<const lb::Mux*>& members,
                                std::uint64_t requests,
                                std::uint64_t connections) {
  lb::DataplaneCounters c;
  std::uint64_t conns = 0, active = 0, entries = 0, pins = 0, dangling = 0,
                pending = 0;
  for (const auto* m : members) {
    c += m->counters();
    for (const auto& b : m->backends()) {  // one generation's membership
      conns += b.counters->connections.load(std::memory_order_relaxed);
      active += b.counters->active.load(std::memory_order_relaxed);
    }
    entries += m->affinity_size();
    pins += m->live_exception_pins();
    dangling += m->dangling_affinity_count();
    pending += m->pending_retired_generations();
  }
  expect_eq("quiesced: requests forwarded", c.total_forwarded, requests);
  expect_eq("quiesced: connections opened", conns, connections);
  expect_eq("quiesced: active connections", active, 0);
  expect_eq("quiesced: affinity entries", entries, 0);
  expect_eq("quiesced: live exception pins", pins, 0);
  expect_eq("quiesced: dangling affinity entries", dangling, 0);
  expect_eq("quiesced: no-backend drops", c.no_backend_drops, 0);
  expect_eq("quiesced: pending retired generations", pending, 0);
  // Only each member's current generation lives.
  expect_eq("quiesced: generations retired", c.generations_retired,
            c.generations_published - members.size());
}

void InvariantChecker::graceful(const lb::DataplaneCounters& window) {
  expect_eq("graceful: flows reset by failure", window.flows_reset_by_failure,
            0);
  expect_eq("graceful: flows dropped by removal",
            window.flows_dropped_by_removal, 0);
  expect_eq("graceful: affinity breaks", window.affinity_breaks, 0);
}

void InvariantChecker::steady(const lb::DataplaneCounters& window) {
  graceful(window);
  expect_eq("steady: no-backend drops", window.no_backend_drops, 0);
}

void InvariantChecker::drained(Testbed& bed,
                               const lb::DataplaneCounters& window,
                               std::size_t leavers) {
  const auto* pool = bed.mux_pool();
  expect_eq("drained: drains completed", window.drains_completed,
            leavers * (pool ? pool->mux_count() : 1));
  expect_eq("drained: backends still draining",
            pool ? pool->draining_count() : bed.mux().draining_count(), 0);
}

void InvariantChecker::settled(Testbed& bed) {
  const auto listed = [](std::vector<net::IpAddr> addrs) {
    std::sort(addrs.begin(), addrs.end());
    std::string s;
    for (const auto a : addrs) s += " " + a.str();
    return s;
  };
  std::vector<net::IpAddr> addrs;
  for (std::size_t i = 0; i < bed.dip_count(); ++i)
    addrs.push_back(bed.dip(i).address());
  const auto live = listed(addrs);
  const auto* ctl = bed.controller();
  auto* pool = bed.mux_pool();
  for (std::size_t k = 0; k < (pool ? pool->mux_count() : 1); ++k) {
    const std::string who = "settled: mux " + std::to_string(k);
    addrs.clear();
    std::int64_t units = 0;
    for (const auto& b : (pool ? pool->mux(k) : bed.mux()).backends()) {
      if (b.draining) continue;
      addrs.push_back(b.addr);
      units += b.weight_units;
      const double w = util::units_to_weight(b.weight_units);
      const auto cw = ctl ? ctl->weight_of(b.addr) : std::optional<double>(w);
      expect(cw && std::abs(*cw - w) <= 2e-3,
             who + " weight of " + b.addr.str() + " " + fmt(w, 4) +
                 ", want the controller's " + (cw ? fmt(*cw, 4) : "none"));
    }
    const auto served = listed(addrs);
    expect(served == live, who + " serves" + served + ", want" + live);
    const double sum = util::units_to_weight(units);
    expect(std::abs(sum - 1.0) <= 1e-6,
           who + " weights sum to " + fmt(sum, 9) + ", want 1");
  }
  bed.dataplane().poll();
  expect_eq("settled: pending retired generations",
            pool ? pool->pending_retired_generations()
                 : bed.mux().pending_retired_generations(),
            0);
}

}  // namespace klb::testbed
