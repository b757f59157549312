// Zero-allocation contract of the packet hop: after warm-up, a burst step —
// the fabric delivering everything due, then MuxPool::on_batch routing the
// next burst and scheduling its hops — makes no heap allocation at all.
//
// The binary replaces the global allocation functions with counting ones
// and drives a 3-member MuxPool over the real fabric to 30 sink nodes with
// 32-packet bursts of short payload-free flows: 16 opens, then 16 FINs of
// flows opened 8k flows earlier. Reweighting commits run between bursts
// and are excluded from the count (a commit builds a generation and a
// maglev table by design); the steps after them are not. The flow tables
// are sized for twice the open flows up front: the one allocation a table
// may still make is its amortized growth, which a shard whose share of the
// open flows drifts past 3/4 load would otherwise hit at random times.
//
// The same counter checks the client's side of a response: reading a DIP
// response's status and Server header allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "lb/mux_pool.hpp"
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
constexpr SimTime kBurstGap = SimTime::micros(16);
const net::IpAddr kVip{10, 0, 0, 1};
const net::IpAddr kSinkBase{10, 1, 0, 1};

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

class BurstDrive {
 public:
  BurstDrive()
      : net_(sim_),
        pool_(net_, kVip, 3, lb::MaglevTable::kDefaultMinSize,
              lb::FlowTableConfig{16, 2 * kOpenFlows, 0}),
        rng_(7) {
    for (std::size_t i = 0; i < kSinks; ++i) {
      sinks_.push_back(std::make_unique<Sink>());
      net_.attach(kSinkBase.next(static_cast<std::uint32_t>(i)),
                  sinks_.back().get());
    }
    commit();
    // Open the first kOpenFlows flows: the table starts at steady size.
    for (std::uint64_t f = 0; f < kOpenFlows; f += kBurst) {
      net::Message opens[kBurst];
      for (std::size_t s = 0; s < kBurst; ++s)
        opens[s].tuple = flow_tuple(f + s);
      const net::Message* ptrs[kBurst];
      for (std::size_t s = 0; s < kBurst; ++s) ptrs[s] = &opens[s];
      step(ptrs);
    }
  }

  /// Burst `b`: opens flows kOpenFlows + 16b.., closes flows 16b...
  void fill(std::uint64_t b) {
    for (std::size_t s = 0; s < kHalf; ++s) {
      burst_[s].type = net::MsgType::kHttpRequest;
      burst_[s].tuple = flow_tuple(kOpenFlows + kHalf * b + s);
      burst_[kHalf + s].type = net::MsgType::kFin;
      burst_[kHalf + s].tuple = flow_tuple(kHalf * b + s);
    }
  }

  /// One burst step: returns the allocations it made.
  std::uint64_t step_burst() {
    const net::Message* ptrs[kBurst];
    for (std::size_t s = 0; s < kBurst; ++s) ptrs[s] = &burst_[s];
    const auto before = g_allocations.load(std::memory_order_relaxed);
    step(ptrs);
    return g_allocations.load(std::memory_order_relaxed) - before;
  }

  void commit() {
    std::vector<double> w(kSinks);
    for (auto& x : w) x = rng_.uniform(0.5, 1.5);
    const auto units = util::normalize_to_units(w);
    lb::PoolProgram p(pool_.issue_version());
    for (std::size_t i = 0; i < kSinks; ++i)
      p.add(kSinkBase.next(static_cast<std::uint32_t>(i)), units[i]);
    pool_.apply_program(p);
  }

  /// Let the fabric deliver everything in flight.
  void drain() { sim_.run_until(due_ + SimTime::millis(10)); }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& s : sinks_) n += s->received;
    return n;
  }
  std::uint64_t offered() const { return offered_; }
  lb::MuxPool& pool() { return pool_; }

 private:
  void step(const net::Message* const* ptrs) {
    due_ += kBurstGap;
    offered_ += kBurst;
    sim_.run_until(due_);
    pool_.on_batch(ptrs, kBurst);
  }

  sim::Simulation sim_{11};
  net::Network net_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  lb::MuxPool pool_;
  util::Rng rng_;
  net::Message burst_[kBurst];
  SimTime due_ = SimTime::zero();
  std::uint64_t offered_ = 0;
};

TEST(ZeroAlloc, BurstStepAllocatesNothingAfterWarmUp) {
  BurstDrive drive;
  constexpr std::uint64_t kWarmUp = 2'048;
  constexpr std::uint64_t kMeasured = 2'048;
  constexpr std::uint64_t kCommitEvery = 256;
  for (std::uint64_t b = 0; b < kWarmUp; ++b) {
    drive.fill(b);
    drive.step_burst();
  }
  std::uint64_t allocating_steps = 0, allocations = 0;
  for (std::uint64_t b = kWarmUp; b < kWarmUp + kMeasured; ++b) {
    if (b % kCommitEvery == 0) drive.commit();  // not counted
    drive.fill(b);
    const auto n = drive.step_burst();
    allocations += n;
    allocating_steps += n > 0 ? 1 : 0;
  }
  EXPECT_EQ(allocations, 0u) << allocating_steps << " of " << kMeasured
                             << " burst steps allocated";
  // The drive really routed: every packet offered reached a sink.
  drive.drain();
  EXPECT_EQ(drive.delivered(), drive.offered());
  EXPECT_EQ(drive.pool().counters().no_backend_drops, 0u);
}

TEST(ZeroAlloc, ReadingADipResponseHeadAllocatesNothing) {
  // The client reads every response's status and Server header in place.
  std::string ok_wire, overloaded_wire;  // built before the count starts
  net::write_response(ok_wire, 200, "klb-dip/10.1.0.7", "result");
  net::write_response(overloaded_wire, 503, "klb-dip/10.1.0.7", "overloaded");
  constexpr int kReads = 1'000;
  int ok = 0, attributed = 0;
  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kReads; ++i) {
    const auto head =
        net::read_response_head(i % 2 == 0 ? ok_wire : overloaded_wire);
    ok += head && head->ok() ? 1 : 0;
    attributed += head && head->server == "klb-dip/10.1.0.7" ? 1 : 0;
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(ok, kReads / 2);
  EXPECT_EQ(attributed, kReads);
}

}  // namespace
}  // namespace klb
