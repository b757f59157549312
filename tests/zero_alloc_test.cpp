// Zero-allocation contract of the packet path: after warm-up, a
// steady-state step of every packet lane makes no heap allocation at all.
// This binary is the project's one hot-path checker.
//
// The binary replaces the global allocation functions with counting ones
// and runs one case per lane:
//
//   pool_stateful   a 3-member maglev MuxPool over the real fabric to 30
//                   sink nodes, fed 32-packet bursts through on_batch: 16
//                   opens, then 16 FINs of flows opened 8k flows earlier.
//                   A step is the fabric delivering everything due, then
//                   the pool routing the next burst and scheduling its
//                   hops.
//   pool_stateless  the same burst with ConsistencyConfig{stateless =
//                   true}: unchanged slots route by hash alone, and slots
//                   a commit moved pin exception flows.
//   mux_<policy>    one Mux fed the same packets one at a time through the
//                   scalar on_message entry, for rr, lc, wlc, wrr, hash
//                   and maglev. The policies without a table pick per
//                   packet (a virtual call); the first pick after each
//                   commit rebuilds the policy's usable-index cache in
//                   place.
//   response_head   the client reading a DIP response's status and Server
//                   header.
//
// Reweighting commits run every 256 steps and are not counted; the steps
// after them are. The count excludes by design:
//   - commits, failures and drain completions: each builds and publishes
//     a generation (and a maglev table);
//   - idle-GC sweeps: they collect their reclaims in a vector (the lanes
//     leave the idle timeout off);
//   - flow-table growth past its pre-sized capacity: the tables are sized
//     for twice the open flows up front, so no shard whose share drifts
//     past 3/4 load grows at a random time;
//   - an installed fabric tap: it is a std::function and may allocate per
//     call (the lanes install none).
//
// What this cannot catch: a violation on a path no lane drives, and a
// syscall that allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "lb/mux.hpp"
#include "lb/mux_pool.hpp"
#include "lb/policy.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "net/http.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/weight.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace klb {
namespace {

using util::SimTime;

constexpr std::size_t kSinks = 30;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kHalf = kBurst / 2;
constexpr std::uint64_t kOpenFlows = 8'192;
constexpr std::uint64_t kWarmUp = 2'048;
constexpr std::uint64_t kMeasured = 2'048;
constexpr std::uint64_t kCommitEvery = 256;
constexpr SimTime kBurstGap = SimTime::micros(16);
const net::IpAddr kVip{10, 0, 0, 1};
const net::IpAddr kSinkBase{10, 1, 0, 1};
const lb::FlowTableConfig kFlowCfg{16, 2 * kOpenFlows, 0};

class Sink final : public net::Node {
 public:
  std::uint64_t received = 0;
  void on_message(const net::Message&) override { ++received; }
  void on_batch(const net::Message* const*, std::size_t n) override {
    received += n;
  }
};

net::FiveTuple flow_tuple(std::uint64_t flow) {
  std::uint64_t x = flow * 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  net::FiveTuple t;
  t.src_ip = net::IpAddr(static_cast<std::uint32_t>(x >> 16));
  t.src_port = static_cast<std::uint16_t>(x);
  t.dst_ip = kVip;
  t.dst_port = 80;
  return t;
}

/// One lane under the counter. step(b) is steady-state step b and is
/// counted; uncounted(b) runs just before it and is not. check() runs
/// after the measured window and asserts the lane really did its work.
class Lane {
 public:
  virtual ~Lane() = default;
  virtual void uncounted(std::uint64_t) {}
  virtual void step(std::uint64_t b) = 0;
  /// Called between warm-up and the measured window.
  virtual void begin_window() {}
  virtual void check() = 0;
};

/// A dataplane lane: a MuxPool fed bursts through on_batch, or a lone Mux
/// fed the same packets one at a time through on_message.
class PacketLane final : public Lane {
 public:
  /// `policy` empty: a 3-member MuxPool; otherwise a Mux running it.
  PacketLane(const std::string& policy, bool stateless)
      : stateless_(stateless), net_(sim_), rng_(7) {
    for (std::size_t i = 0; i < kSinks; ++i) {
      sinks_.push_back(std::make_unique<Sink>());
      net_.attach(kSinkBase.next(static_cast<std::uint32_t>(i)),
                  sinks_.back().get());
    }
    lb::ConsistencyConfig consistency;
    consistency.stateless = stateless;
    if (policy.empty()) {
      pool_ = std::make_unique<lb::MuxPool>(net_, kVip, 3,
                                            lb::MaglevTable::kDefaultMinSize,
                                            kFlowCfg, consistency);
    } else {
      mux_ = std::make_unique<lb::Mux>(net_, kVip, lb::make_policy(policy),
                                       true, kFlowCfg, consistency);
    }
    commit();
    // Open the first kOpenFlows flows: the table starts at steady size.
    for (std::uint64_t f = 0; f < kOpenFlows; f += kBurst) {
      for (std::size_t s = 0; s < kBurst; ++s)
        burst_[s].tuple = flow_tuple(f + s);
      route();
    }
  }

  void uncounted(std::uint64_t b) override {
    if (b % kCommitEvery == 0) commit();
    // Burst b: opens flows kOpenFlows + 16b.., closes flows 16b...
    for (std::size_t s = 0; s < kHalf; ++s) {
      burst_[s].type = net::MsgType::kHttpRequest;
      burst_[s].tuple = flow_tuple(kOpenFlows + kHalf * b + s);
      burst_[kHalf + s].type = net::MsgType::kFin;
      burst_[kHalf + s].tuple = flow_tuple(kHalf * b + s);
    }
  }

  void step(std::uint64_t) override { route(); }

  void begin_window() override { window_start_ = counters(); }

  void check() override {
    // The drive really routed: every packet offered reached a sink.
    sim_.run_until(due_ + SimTime::millis(10));
    std::uint64_t delivered = 0;
    for (const auto& s : sinks_) delivered += s->received;
    EXPECT_EQ(delivered, offered_);
    const auto window = counters() - window_start_;
    EXPECT_EQ(window.no_backend_drops, 0u);
    EXPECT_EQ(window.total_forwarded, kMeasured * kHalf);  // the opens
    if (stateless_) {
      // The hybrid lane ran both arms across the commits.
      EXPECT_TRUE(pool_->stateless_engaged());
      EXPECT_GT(window.stateless_picks, 0u);
      EXPECT_GT(window.exception_pins, 0u);
    }
  }

 private:
  lb::PoolProgrammer& programmer() {
    return pool_ ? static_cast<lb::PoolProgrammer&>(*pool_) : *mux_;
  }
  lb::DataplaneCounters counters() const {
    return pool_ ? pool_->counters() : mux_->counters();
  }

  void commit() {
    std::vector<double> w(kSinks);
    for (auto& x : w) x = rng_.uniform(0.5, 1.5);
    const auto units = util::normalize_to_units(w);
    lb::PoolProgram p(programmer().issue_version());
    for (std::size_t i = 0; i < kSinks; ++i)
      p.add(kSinkBase.next(static_cast<std::uint32_t>(i)), units[i]);
    programmer().apply_program(p);
  }

  /// Deliver everything due, then route burst_: as one on_batch into the
  /// pool, or packet by packet into the Mux.
  void route() {
    due_ += kBurstGap;
    offered_ += kBurst;
    sim_.run_until(due_);
    if (pool_) {
      const net::Message* ptrs[kBurst];
      for (std::size_t s = 0; s < kBurst; ++s) ptrs[s] = &burst_[s];
      pool_->on_batch(ptrs, kBurst);
    } else {
      for (const auto& m : burst_) mux_->on_message(m);
    }
  }

  const bool stateless_;
  sim::Simulation sim_{11};
  net::Network net_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::unique_ptr<lb::MuxPool> pool_;
  std::unique_ptr<lb::Mux> mux_;
  util::Rng rng_;
  net::Message burst_[kBurst];
  SimTime due_ = SimTime::zero();
  std::uint64_t offered_ = 0;
  lb::DataplaneCounters window_start_;
};

/// The client's side of a response: each step reads one response's
/// status and Server header in place, alternating 200 and 503.
class ResponseHeadLane final : public Lane {
 public:
  ResponseHeadLane() {
    net::write_response(ok_wire_, 200, "klb-dip/10.1.0.7", "result");
    net::write_response(overloaded_wire_, 503, "klb-dip/10.1.0.7",
                        "overloaded");
  }
  void begin_window() override { ok_ = attributed_ = 0; }
  void step(std::uint64_t b) override {
    const auto head =
        net::read_response_head(b % 2 == 0 ? ok_wire_ : overloaded_wire_);
    ok_ += head && head->ok() ? 1 : 0;
    attributed_ += head && head->server == "klb-dip/10.1.0.7" ? 1 : 0;
  }
  void check() override {
    EXPECT_EQ(ok_, kMeasured / 2);
    EXPECT_EQ(attributed_, kMeasured);
  }

 private:
  std::string ok_wire_, overloaded_wire_;
  std::uint64_t ok_ = 0, attributed_ = 0;
};

std::unique_ptr<Lane> make_lane(const std::string& name) {
  if (name == "pool_stateful") return std::make_unique<PacketLane>("", false);
  if (name == "pool_stateless") return std::make_unique<PacketLane>("", true);
  if (name == "response_head") return std::make_unique<ResponseHeadLane>();
  return std::make_unique<PacketLane>(name.substr(4), false);  // "mux_"
}

class ZeroAlloc : public ::testing::TestWithParam<std::string> {};

TEST_P(ZeroAlloc, SteadyStateStepAllocatesNothingAfterWarmUp) {
  const auto lane = make_lane(GetParam());
  for (std::uint64_t b = 0; b < kWarmUp; ++b) {
    lane->uncounted(b);
    lane->step(b);
  }
  lane->begin_window();
  std::uint64_t allocating_steps = 0, allocations = 0;
  for (std::uint64_t b = kWarmUp; b < kWarmUp + kMeasured; ++b) {
    lane->uncounted(b);
    const auto before = g_allocations.load(std::memory_order_relaxed);
    lane->step(b);
    const auto n = g_allocations.load(std::memory_order_relaxed) - before;
    allocations += n;
    allocating_steps += n > 0 ? 1 : 0;
  }
  EXPECT_EQ(allocations, 0u) << allocating_steps << " of " << kMeasured
                             << " steps allocated";
  lane->check();
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, ZeroAlloc,
    ::testing::Values("pool_stateful", "pool_stateless", "mux_rr", "mux_lc",
                      "mux_wlc", "mux_wrr", "mux_hash", "mux_maglev",
                      "response_head"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace klb
