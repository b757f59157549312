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
  // Copy + schedule (or mailbox-park): the delivery slow lane.
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
  sim::ShardedDriver* d = driver_;
  if (d == nullptr) {
    util::SimTime delay;
    {
      util::MutexLock lk(mu_);
      delay = draw_delay(rng_);
    }
    sim_.schedule_in(delay, Hop{this, to, std::move(msg)});
    return;
  }
  const std::size_t src = d->executing_shard();
  const std::size_t dst = d->owner_of(to.value());
  const util::SimTime delay = draw_delay(shard_rngs_[src]);
  sim::Simulation& src_sim = d->shard_sim(src);
  if (dst == src) {
    src_sim.schedule_in(delay, Hop{this, to, std::move(msg)});
    return;
  }
  cross_shard_.fetch_add(1, std::memory_order_relaxed);
  Parcel parcel{src_sim.now() + delay, to, std::move(msg), {}};
  Mailbox& box = mailbox(src, dst);
  util::MutexLock lk(box.mu);
  box.parcels.push_back(std::move(parcel));
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

  sim::ShardedDriver* d = driver_;
  if (d == nullptr) {
    util::SimTime delay;
    {
      util::MutexLock lk(mu_);
      delay = draw_delay(rng_);
    }
    sim_.schedule_in(delay, BurstHop{this, to, std::move(burst)});
    return;
  }
  const std::size_t src = d->executing_shard();
  const std::size_t dst = d->owner_of(to.value());
  const util::SimTime delay = draw_delay(shard_rngs_[src]);
  sim::Simulation& src_sim = d->shard_sim(src);
  if (dst == src) {
    src_sim.schedule_in(delay, BurstHop{this, to, std::move(burst)});
    return;
  }
  cross_shard_.fetch_add(n, std::memory_order_relaxed);
  Parcel parcel{src_sim.now() + delay, to, Message{}, std::move(burst)};
  Mailbox& box = mailbox(src, dst);
  util::MutexLock lk(box.mu);
  box.parcels.push_back(std::move(parcel));
}

std::vector<Message> Network::take_burst_buffer(std::size_t n) {
  auto& spare = spare_bursts();
  std::vector<Message> burst;
  if (!spare.empty()) {
    burst = std::move(spare.back());
    spare.pop_back();
  }
  burst.resize(n);
  return burst;
}

void Network::set_driver(sim::ShardedDriver* driver) {
  shard_rngs_.clear();
  mailboxes_.clear();
  driver_ = driver;
  spare_bursts_.assign(driver ? driver->shard_count() : 1, {});
  if (driver == nullptr) return;
  const std::size_t n = driver->shard_count();
  shard_rngs_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    shard_rngs_.push_back(driver->shard_sim(k).rng().fork());
  }
  mailboxes_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  driver->set_boundary_hook([this] { drain_mailboxes(); });
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

void Network::drain_mailboxes() {
  // Main thread, all shards quiescent. Fixed (dst, src, FIFO) order keeps
  // the destination queues' tie-break sequence — and therefore the whole
  // run — deterministic.
  const std::size_t n = shard_rngs_.size();
  std::vector<Parcel> taken;
  for (std::size_t dst = 0; dst < n; ++dst) {
    sim::Simulation& dst_sim = driver_->shard_sim(dst);
    for (std::size_t src = 0; src < n; ++src) {
      if (src == dst) continue;
      Mailbox& box = mailbox(src, dst);
      taken.clear();
      {
        util::MutexLock lk(box.mu);
        taken.swap(box.parcels);
      }
      for (Parcel& p : taken) {
        if (p.burst.empty()) {
          dst_sim.schedule_at(p.at, Hop{this, p.to, std::move(p.msg)});
        } else {
          dst_sim.schedule_at(p.at, BurstHop{this, p.to, std::move(p.burst)});
        }
      }
    }
  }
}

}  // namespace klb::net
