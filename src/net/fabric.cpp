#include "net/fabric.hpp"

#include <utility>

namespace klb::net {

std::size_t AddressTable::slot_of(IpAddr addr) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(addr);
  while (slots_[i].node != nullptr && slots_[i].addr != addr.value())
    i = (i + 1) & mask;
  return i;
}

void AddressTable::set(IpAddr addr, Node* node) {
  std::size_t i = slot_of(addr);
  if (node != nullptr) {
    if (slots_[i].node == nullptr) {
      if (2 * (used_ + 1) > slots_.size()) {
        rehash(2 * slots_.size());
        i = slot_of(addr);
      }
      ++used_;
    }
    slots_[i] = Slot{addr.value(), node};
    return;
  }
  if (slots_[i].node == nullptr) return;  // not bound
  --used_;
  // Backward-shift delete: walk the rest of the run and move back every
  // entry whose home does not lie strictly between the hole and itself.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].node != nullptr;
       j = (j + 1) & mask) {
    const std::size_t h = home(IpAddr(slots_[j].addr));
    if (((j - h) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
}

void AddressTable::rehash(std::size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 32;
  for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const Slot& s : old)
    if (s.node != nullptr) slots_[slot_of(IpAddr(s.addr))] = s;
}

void Network::send(IpAddr to, const Message& msg) KLB_NONALLOCATING {
  if (const Tap* tap = tap_.get()) {
    // Type-erased bench hook: what it does is the installer's business.
    KLB_EFFECT_ESCAPE("fabric.tap", (*tap)(to, msg));
  }
  if (blackhole_) {
    ++blackholed_;
    return;
  }
  // Copy + schedule: the delivery slow lane.
  KLB_EFFECT_ESCAPE("fabric.enqueue", send_owned(to, Message(msg)));
}

void Network::send(IpAddr to, Message&& msg) {
  if (const Tap* tap = tap_.get()) {
    (*tap)(to, msg);
  }
  if (blackhole_) {
    ++blackholed_;
    return;
  }
  send_owned(to, std::move(msg));
}

void Network::send_owned(IpAddr to, Message msg) {
  static_assert(sim::EventQueue::fits_inline<Hop>,
                "a scalar hop must schedule without a heap box");
  static_assert(sim::EventQueue::fits_inline<BurstHop>,
                "a burst hop must schedule without a heap box");
  ++sent_;
  sim_.schedule_in(draw_delay(), Hop{this, to, std::move(msg)});
}

void Network::send_burst(IpAddr to, const Message* const* msgs,
                         std::size_t n) KLB_NONALLOCATING {
  if (n == 0) return;
  if (n == 1) {
    send(to, *msgs[0]);
    return;
  }
  if (const Tap* tap = tap_.get()) {
    KLB_EFFECT_ESCAPE("fabric.tap", {
      for (std::size_t i = 0; i < n; ++i) (*tap)(to, *msgs[i]);
    });
  }
  if (blackhole_) {
    blackholed_ += n;
    return;
  }
  KLB_EFFECT_ESCAPE("fabric.enqueue", enqueue_burst(to, msgs, n));
}

void Network::enqueue_burst(IpAddr to, const Message* const* msgs,
                            std::size_t n) {
  sent_ += n;
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

Node* Network::resolve(IpAddr to, std::uint64_t count) KLB_NONBLOCKING {
  Node* node = nodes_.find(to);
  if (node == nullptr)
    dropped_unreachable_ += count;
  return node;
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
