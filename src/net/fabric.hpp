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
//
// Threading: the whole fabric is sim-thread state, like the event queue it
// feeds, and takes no lock. attach() runs from component constructors and
// destructors on the sim thread; send() and delivery run from the event
// loop or from a driver on that same thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/five_tuple.hpp"
#include "sim/simulation.hpp"

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

/// The fabric's address -> Node table: open addressing with linear probing
/// over a power-of-two array, at most half full, homed by a multiplicative
/// (Fibonacci) hash of the address. A lookup is one probe run with no
/// modulo; erase shifts the run's later entries back, so no tombstones.
class AddressTable {
 public:
  AddressTable() { rehash(kMinCapacity); }

  /// The node bound to `addr`, or nullptr.
  Node* find(IpAddr addr) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(addr);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.node == nullptr || s.addr == addr.value()) return s.node;
    }
  }

  /// Bind `addr` to `node`, replacing any owner; nullptr unbinds.
  void set(IpAddr addr, Node* node);

  std::size_t size() const { return used_; }
  std::size_t capacity() const { return slots_.size(); }
  /// The slot `addr`'s probe run starts at, at the current capacity.
  std::size_t home(IpAddr addr) const {
    return static_cast<std::size_t>(
        static_cast<std::uint32_t>(addr.value() * 0x9e3779b9u) >> shift_);
  }

 private:
  static constexpr std::size_t kMinCapacity = 64;
  struct Slot {
    std::uint32_t addr = 0;
    Node* node = nullptr;  // nullptr: empty
  };

  /// The slot holding `addr`, or the empty slot ending its probe run.
  std::size_t slot_of(IpAddr addr) const;
  void rehash(std::size_t capacity);

  std::vector<Slot> slots_;
  int shift_ = 32;
  std::size_t used_ = 0;
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
  /// when a failed DIP is replaced). Unbind with nullptr. Sim thread only,
  /// like delivery; a handler may rebind any address, its own included.
  void attach(IpAddr addr, Node* node) { nodes_.set(addr, node); }

  bool attached(IpAddr addr) const { return nodes_.find(addr) != nullptr; }

  /// Blackhole mode (benches and tests): drop every send() before it
  /// touches the address table, the event queue or the fabric RNG, so the
  /// MUX packet path can be driven without any receiver. Dropped messages
  /// are counted in messages_blackholed().
  void set_blackhole(bool on) { blackhole_ = on; }
  std::uint64_t messages_blackholed() const { return blackholed_; }

  /// Observation tap: runs at every send()/send_burst() entry — before
  /// blackhole mode drops the message — with the destination and the
  /// message. Benches use it to assert per-packet routing invariants
  /// (e.g. "every packet of a pinned flow reaches the same DIP") at
  /// blackhole-mode rates. Install nullptr to remove. The send path tests
  /// one pointer for it.
  using Tap = std::function<void(IpAddr, const Message&)>;
  void set_tap(Tap tap) {
    tap_ = tap ? std::make_unique<Tap>(std::move(tap)) : nullptr;
  }

  /// Deliver `msg` to the node bound to `to` after the fabric latency.
  /// Messages to unbound addresses vanish (host unreachable) — callers
  /// discover this via their own timeouts, like real probes do. The
  /// const-ref overload copies only once the message is actually headed
  /// for the event queue — taps and blackhole mode never pay for a copy
  /// (send() is the packet path's per-forward cost in the benches).
  /// Classification (tap presence, blackhole) is two tests and allocates
  /// nothing. An installed tap is a std::function and may allocate per
  /// call. The enqueue copies the message into an inline event callback;
  /// it allocates only for a payload past the string's small buffer or at
  /// a new high-water mark of the event slab or heap. Blackhole-mode
  /// benches (the packet-path rate measurements) never enqueue.
  void send(IpAddr to, const Message& msg);
  void send(IpAddr to, Message&& msg);

  /// Deliver `n` messages to `to` as one fabric hop: one latency draw, one
  /// event, one on_batch() at the destination. The messages are copied out
  /// of the pointed-to storage before this returns. Allocates as send()
  /// does; the burst buffer comes from the spare list and is new only at
  /// a new high-water mark of that list.
  void send_burst(IpAddr to, const Message* const* msgs, std::size_t n);

  /// The Simulation every attached component schedules on.
  sim::Simulation& sim() { return sim_; }

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_unreachable() const { return dropped_unreachable_; }

 private:
  /// One hop's latency: base + exponential jitter from the fabric RNG.
  util::SimTime draw_delay() {
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

  /// The node bound to `to`, or nullptr after counting `count` messages
  /// unreachable. One table probe run.
  Node* resolve(IpAddr to, std::uint64_t count);
  /// The post-tap, post-blackhole tail of send(): owns the message and
  /// schedules its hop.
  void send_owned(IpAddr to, Message msg);
  /// The post-tap, post-blackhole tail of send_burst(): copies the burst
  /// into a recycled buffer and schedules its hop.
  void enqueue_burst(IpAddr to, const Message* const* msgs, std::size_t n);
  void deliver(IpAddr to, const Message& msg);
  void deliver_burst(IpAddr to, const std::vector<Message>& msgs);
  /// A spare buffer holding `n` messages: the old elements are assigned
  /// over, so their payload strings keep their capacity. A new buffer
  /// reserves kBurstReserve messages, so reusing one for a burst of up to
  /// that many never reallocates, whichever spare comes back.
  std::vector<Message> take_burst_buffer(std::size_t n);
  /// A Mux forwards at most one 32-packet chunk per burst.
  static constexpr std::size_t kBurstReserve = 32;
  void recycle(std::vector<Message>&& burst) {
    spare_bursts_.push_back(std::move(burst));
  }

  sim::Simulation& sim_;
  FabricConfig cfg_;
  util::Rng rng_;
  AddressTable nodes_;
  bool blackhole_ = false;
  std::uint64_t blackholed_ = 0;
  std::unique_ptr<Tap> tap_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_unreachable_ = 0;
  std::vector<std::vector<Message>> spare_bursts_;
};

}  // namespace klb::net
