// The dataplane and churn contracts, checked in one place: each method
// checks one contract and records one line per violation, with the
// observed and expected values. Callers gate on ok() and print report().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lb/mux_pool.hpp"

namespace klb::testbed {

class Testbed;

class InvariantChecker {
 public:
  /// Prefixes the violations recorded while it is set (e.g. "seed=3").
  std::string label;

  /// Once traffic stopped, every FIN arrived and poll() ran, membership
  /// unchanged since the drive began: all `requests` forwarded and
  /// `connections` counted; nothing pinned, dangling or refused; every
  /// retired generation reclaimed.
  void quiesced(const lb::Mux& mux, std::uint64_t requests,
                std::uint64_t connections) {
    quiesced({&mux}, requests, connections);
  }
  void quiesced(const lb::MuxPool& pool, std::uint64_t requests,
                std::uint64_t connections);
  /// No flow reset by failure, dropped by removal or re-homed in a counter
  /// `window`; steady also refused no connection.
  void graceful(const lb::DataplaneCounters& window);
  void steady(const lb::DataplaneCounters& window);
  /// `leavers` drains completed on every pool member during `window`;
  /// nothing still drains.
  void drained(Testbed& bed, const lb::DataplaneCounters& window,
               std::size_t leavers);
  /// After controller()->stop() (if any) and one programming delay: each
  /// member serves exactly the live DIPs at weights summing to 1 (1e-6)
  /// that match the controller's (2e-3); after poll(), nothing pending.
  void settled(Testbed& bed);
  /// A caller-specific check, reported with the contracts.
  void expect(bool cond, const std::string& what);

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  std::string report() const;

 private:
  void quiesced(const std::vector<const lb::Mux*>& members,
                std::uint64_t requests, std::uint64_t connections);
  void expect_eq(const std::string& what, std::uint64_t got,
                 std::uint64_t want);

  std::vector<std::string> violations_;
};

}  // namespace klb::testbed
