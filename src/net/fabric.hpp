// The simulated datacenter network.
//
// Nodes (clients, MUXes, DIP servers, the KLM prober, the latency store)
// register an address and a message handler. send() delivers a Message
// after a one-way latency drawn as base + exponential jitter — the
// intra-datacenter RTT model; there is no loss in the fabric itself (the
// paper's "packet drops" happen at overloaded DIPs, which we model at the
// server's accept backlog).
//
// Messages carry the original client 5-tuple end-to-end even when a MUX
// forwards them (IP-in-IP encap in Ananta/Maglev terms): the delivery
// address is separate from the tuple, which is what enables direct server
// return (DIP responds straight to the client).
//
// Burst path: send_burst() ships several same-destination messages in one
// fabric hop — one latency draw, one scheduled event, one Node::on_batch
// callback at the far end (the default on_batch falls back to per-message
// on_message). The Mux uses it to forward a batch's worth of packets per
// DIP; the coalescing is by construction (the sender hands the fabric a
// same-tick burst) rather than by queue inspection. A hop's event callback
// fits the event queue's inline storage and a burst's message buffer is
// recycled, so after warm-up a payload-free hop does not allocate.
//
// Event loop: every hop is an event on the one Simulation the Network was
// built with, which is also the one sim() hands attached components for
// their own clocks and timers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "net/five_tuple.hpp"
#include "sim/simulation.hpp"
#include "util/effects.hpp"
#include "util/sync.hpp"

namespace klb::net {

enum class MsgType : std::uint8_t {
  kHttpRequest,
  kHttpResponse,
  kFin,        // client closes the connection (seen by MUX for LC counting)
  kPing,       // ICMP/TCP-SYN style probe: answered in kernel, load-blind
  kPingReply,
  kRespCommand,  // RESP bytes to the latency store
  kRespReply,
};

struct Message {
  MsgType type = MsgType::kHttpRequest;
  FiveTuple tuple;            // original client <-> VIP tuple
  std::uint64_t conn_id = 0;  // connection this message belongs to
  std::uint64_t req_id = 0;   // request within the connection
  std::string payload;        // HTTP or RESP wire bytes
};

class Node {
 public:
  virtual ~Node() = default;
  virtual void on_message(const Message& msg) = 0;

  /// Burst delivery: `n` same-destination messages that crossed the fabric
  /// as one hop. Default unrolls to on_message; batch-aware nodes (Mux,
  /// MuxPool) override to amortize per-packet overhead.
  virtual void on_batch(const Message* const* msgs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) on_message(*msgs[i]);
  }
};

struct FabricConfig {
  util::SimTime base_latency = util::SimTime::micros(150);  // one-way
  util::SimTime jitter_mean = util::SimTime::micros(30);
};

class Network {
 public:
  Network(sim::Simulation& sim, FabricConfig cfg = {})
      : sim_(sim), cfg_(cfg), rng_(sim.rng().fork()) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Bind `node` to `addr`. Re-binding replaces the previous owner (used
  /// when a failed DIP is replaced). Unbind with nullptr.
  void attach(IpAddr addr, Node* node) KLB_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    if (node == nullptr) {
      nodes_.erase(addr);
    } else {
      nodes_[addr] = node;
    }
  }

  bool attached(IpAddr addr) const KLB_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return nodes_.count(addr) > 0;
  }

  /// Blackhole mode (benches): drop every send() before it touches the
  /// event queue or the fabric RNG — both are single-threaded — so the MUX
  /// packet path can be driven from worker threads (bench/mux_hotpath.cpp).
  /// Dropped messages are counted in messages_blackholed().
  void set_blackhole(bool on) {
    blackhole_.store(on, std::memory_order_relaxed);
  }
  std::uint64_t messages_blackholed() const {
    return blackholed_.load(std::memory_order_relaxed);
  }

  /// Observation tap: runs at every send()/send_burst() entry — before
  /// blackhole mode drops the message — with the destination and the
  /// message. Benches use it to assert per-packet routing invariants
  /// (e.g. "every packet of a pinned flow reaches the same DIP") at
  /// blackhole-mode rates. The tap runs on the sender's thread with no
  /// fabric lock held; it must be thread-safe itself. Install nullptr to
  /// remove. Not for concurrent install/uninstall while traffic is flowing
  /// — set it up before the drive starts, like set_blackhole. The send
  /// path sees it through a single atomic load.
  using Tap = std::function<void(IpAddr, const Message&)>;
  void set_tap(Tap tap) {
    if (tap) {
      tap_storage_ = std::make_unique<Tap>(std::move(tap));
      tap_live_.store(tap_storage_.get(), std::memory_order_release);
    } else {
      tap_live_.store(nullptr, std::memory_order_release);
      tap_storage_.reset();
    }
  }

  /// Deliver `msg` to the node bound to `to` after the fabric latency.
  /// Messages to unbound addresses vanish (host unreachable) — callers
  /// discover this via their own timeouts, like real probes do. The
  /// const-ref overload copies only once the message is actually headed
  /// for the event queue — taps and blackhole mode never pay for a copy
  /// (send() is the packet path's per-forward cost in the benches).
  /// Nonallocating up to the staging split: classification (tap presence,
  /// blackhole) is lock-free; the type-erased tap runs in the
  /// "fabric.tap" escape and the copying enqueue tail in "fabric.enqueue".
  /// Blackhole-mode benches — the packet-path rate measurements — never
  /// enter either.
  void send(IpAddr to, const Message& msg) KLB_NONALLOCATING;
  void send(IpAddr to, Message&& msg);

  /// Deliver `n` messages to `to` as one fabric hop: one latency draw, one
  /// event, one on_batch() at the destination. The messages are copied out
  /// of the pointed-to storage before this returns. Same effect split as
  /// send(): staging is nonallocating, tap and enqueue are the escapes.
  void send_burst(IpAddr to, const Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING;

  /// The Simulation every attached component schedules on.
  sim::Simulation& sim() { return sim_; }

  std::uint64_t messages_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_unreachable() const {
    return dropped_unreachable_.load(std::memory_order_relaxed);
  }

 private:
  /// One hop's latency: base + exponential jitter from the fabric RNG.
  util::SimTime draw_delay() KLB_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return cfg_.base_latency +
           util::SimTime::micros(static_cast<std::int64_t>(
               rng_.exponential(static_cast<double>(cfg_.jitter_mean.us()))));
  }

  /// One scalar fabric hop as an event callback. Scheduled by value and
  /// small enough for the event queue's inline storage, so a hop never
  /// allocates beyond the message's own payload copy.
  struct Hop {
    Network* net;
    IpAddr to;
    Message msg;
    void operator()() const { net->deliver(to, msg); }
  };
  /// One burst hop. The buffer comes from, and goes back to, the spare
  /// list (take_burst_buffer/recycle).
  struct BurstHop {
    Network* net;
    IpAddr to;
    std::vector<Message> msgs;
    void operator()() {
      net->deliver_burst(to, msgs);
      net->recycle(std::move(msgs));
    }
  };

  Node* resolve(IpAddr to, std::uint64_t count) KLB_EXCLUDES(mu_);
  /// The post-tap, post-blackhole tail of send(): owns the message and
  /// schedules its hop.
  void send_owned(IpAddr to, Message msg);
  /// The post-tap, post-blackhole tail of send_burst(): copies the burst
  /// into a recycled buffer and schedules its hop. Callers enter through
  /// the "fabric.enqueue" escape.
  void enqueue_burst(IpAddr to, const Message* const* msgs, std::size_t n);
  void deliver(IpAddr to, const Message& msg);
  void deliver_burst(IpAddr to, const std::vector<Message>& msgs);
  /// A spare buffer holding `n` messages: the old elements are assigned
  /// over, so their payload strings keep their capacity.
  std::vector<Message> take_burst_buffer(std::size_t n);
  void recycle(std::vector<Message>&& burst) {
    spare_bursts_.push_back(std::move(burst));
  }

  sim::Simulation& sim_;
  FabricConfig cfg_;
  /// Guards the address table and the fabric RNG: attach/detach runs
  /// from component ctors/dtors on the control plane while MUX worker
  /// threads forward through send(). Send counters are relaxed atomics and
  /// never take this lock.
  mutable util::Mutex mu_{"klb.net.nodes"};
  util::Rng rng_ KLB_GUARDED_BY(mu_);
  std::unordered_map<IpAddr, Node*> nodes_ KLB_GUARDED_BY(mu_);
  std::atomic<bool> blackhole_{false};
  std::atomic<std::uint64_t> blackholed_{0};
  std::unique_ptr<Tap> tap_storage_;  // installed before traffic
  std::atomic<const Tap*> tap_live_{nullptr};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_unreachable_{0};
  std::vector<std::vector<Message>> spare_bursts_;
};

}  // namespace klb::net
