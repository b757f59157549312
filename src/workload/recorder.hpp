// Client-side latency accounting.
//
// Records per-request outcomes, overall and attributed per DIP (clients
// learn the serving DIP from the Server response header — purely an
// observability convenience; no component of KnapsackLB consumes it).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/address.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace klb::workload {

/// A recorder's raw latency log, read as milliseconds. Stored as whole
/// virtual microseconds (4 bytes a request, not 8); operator[] returns
/// exactly SimTime::ms() of the recorded latency.
class LatencyLogView {
 public:
  explicit LatencyLogView(const std::vector<std::uint32_t>& us) : us_(us) {}
  std::size_t size() const { return us_.size(); }
  double operator[](std::size_t i) const {
    return util::SimTime::micros(us_[i]).ms();
  }

 private:
  const std::vector<std::uint32_t>& us_;
};

class LatencyRecorder {
 public:
  /// `latency` is bounded by the client's request timeout, far below the
  /// 2^32 us (~71 min) the log can hold.
  void record_success(net::IpAddr dip, util::SimTime latency) {
    const double latency_ms = latency.ms();
    overall_.add(latency_ms);
    histogram_.add(latency_ms / 1e3);  // histogram works in seconds
    per_dip_[dip].add(latency_ms);
    latencies_us_.push_back(static_cast<std::uint32_t>(latency.us()));
  }

  void record_error(net::IpAddr dip) { ++errors_[dip]; }
  void record_timeout() { ++timeouts_; }

  const util::Welford& overall() const { return overall_; }
  double percentile_ms(double p) const { return histogram_.percentile(p) * 1e3; }

  const std::map<net::IpAddr, util::Welford>& per_dip() const {
    return per_dip_;
  }
  std::uint64_t errors() const {
    std::uint64_t total = 0;
    for (const auto& [_, n] : errors_) total += n;
    return total;
  }
  std::uint64_t errors_for(net::IpAddr dip) const {
    const auto it = errors_.find(dip);
    return it == errors_.end() ? 0 : it->second;
  }
  std::uint64_t timeouts() const { return timeouts_; }

  /// Raw per-request latencies (ms) in completion order — used for the
  /// "cuts latency by X% for Y% of requests" CDF comparisons.
  LatencyLogView raw_latencies_ms() const {
    return LatencyLogView(latencies_us_);
  }

  void reset() {
    overall_.reset();
    histogram_.reset();
    per_dip_.clear();
    errors_.clear();
    timeouts_ = 0;
    latencies_us_.clear();
  }

 private:
  util::Welford overall_;
  util::LogHistogram histogram_{1e-5, 1e2, 50};
  std::map<net::IpAddr, util::Welford> per_dip_;
  std::map<net::IpAddr, std::uint64_t> errors_;
  std::uint64_t timeouts_ = 0;
  std::vector<std::uint32_t> latencies_us_;
};

}  // namespace klb::workload
