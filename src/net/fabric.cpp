#include "net/fabric.hpp"

#include <utility>

namespace klb::net {

void Network::send(IpAddr to, const Message& msg) KLB_NONALLOCATING {
  if (const Tap* tap = tap_live_.load(std::memory_order_acquire)) {
    // Type-erased bench hook: what it does is the installer's business.
    KLB_EFFECT_ESCAPE("fabric.tap", (*tap)(to, msg));
  }
  if (blackhole_.load(std::memory_order_relaxed)) {
    blackholed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Copy + schedule: the delivery slow lane.
  KLB_EFFECT_ESCAPE("fabric.enqueue", send_owned(to, Message(msg)));
}

void Network::send(IpAddr to, Message&& msg) {
  if (const Tap* tap = tap_live_.load(std::memory_order_acquire)) {
    (*tap)(to, msg);
  }
  if (blackhole_.load(std::memory_order_relaxed)) {
    blackholed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  send_owned(to, std::move(msg));
}

void Network::send_owned(IpAddr to, Message msg) {
  static_assert(sim::EventQueue::fits_inline<Hop>,
                "a scalar hop must schedule without a heap box");
  static_assert(sim::EventQueue::fits_inline<BurstHop>,
                "a burst hop must schedule without a heap box");
  sent_.fetch_add(1, std::memory_order_relaxed);
  sim_.schedule_in(draw_delay(), Hop{this, to, std::move(msg)});
}

void Network::send_burst(IpAddr to, const Message* const* msgs,
                         std::size_t n) KLB_NONALLOCATING {
  if (n == 0) return;
  if (n == 1) {
    send(to, *msgs[0]);
    return;
  }
  if (const Tap* tap = tap_live_.load(std::memory_order_acquire)) {
    KLB_EFFECT_ESCAPE("fabric.tap", {
      for (std::size_t i = 0; i < n; ++i) (*tap)(to, *msgs[i]);
    });
  }
  if (blackhole_.load(std::memory_order_relaxed)) {
    blackholed_.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  KLB_EFFECT_ESCAPE("fabric.enqueue", enqueue_burst(to, msgs, n));
}

void Network::enqueue_burst(IpAddr to, const Message* const* msgs,
                            std::size_t n) {
  sent_.fetch_add(n, std::memory_order_relaxed);
  std::vector<Message> burst = take_burst_buffer(n);
  for (std::size_t i = 0; i < n; ++i) burst[i] = *msgs[i];
  sim_.schedule_in(draw_delay(), BurstHop{this, to, std::move(burst)});
}

std::vector<Message> Network::take_burst_buffer(std::size_t n) {
  std::vector<Message> burst;
  if (!spare_bursts_.empty()) {
    burst = std::move(spare_bursts_.back());
    spare_bursts_.pop_back();
  }
  burst.resize(n);
  return burst;
}

Node* Network::resolve(IpAddr to, std::uint64_t count) {
  // Resolve under the lock, deliver outside it: on_message may reenter the
  // fabric (forwarding) or take component locks, and klb.net.nodes must
  // stay a leaf-ish rank with no outgoing edges into them.
  util::MutexLock lk(mu_);
  const auto it = nodes_.find(to);
  if (it == nodes_.end()) {
    dropped_unreachable_.fetch_add(count, std::memory_order_relaxed);
    return nullptr;
  }
  return it->second;
}

void Network::deliver(IpAddr to, const Message& msg) {
  if (Node* node = resolve(to, 1)) node->on_message(msg);
}

void Network::deliver_burst(IpAddr to, const std::vector<Message>& msgs) {
  Node* node = resolve(to, msgs.size());
  if (node == nullptr) return;
  constexpr std::size_t kStackPtrs = 64;
  if (msgs.size() <= kStackPtrs) {
    const Message* ptrs[kStackPtrs];
    for (std::size_t i = 0; i < msgs.size(); ++i) ptrs[i] = &msgs[i];
    node->on_batch(ptrs, msgs.size());
  } else {
    std::vector<const Message*> ptrs(msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) ptrs[i] = &msgs[i];
    node->on_batch(ptrs.data(), msgs.size());
  }
}

}  // namespace klb::net
