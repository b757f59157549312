#include "lb/epoch.hpp"

#include <functional>
#include <thread>

namespace klb::lb {

EpochDomain::~EpochDomain() {
  // No reader may outlive the domain; drop whatever is still parked.
  std::lock_guard<std::mutex> lk(retired_mu_);
  reclaimed_total_.fetch_add(retired_.size(), std::memory_order_relaxed);
  retired_.clear();
}

namespace {
/// Per-thread slot-probe start: seeded once from the thread id so
/// concurrent readers spread out instead of all CASing slot 0, then
/// reused. Constant-initialized POD TLS — after the first pin a thread
/// pays no TLS guard and no pthread_self() on this path.
thread_local int t_slot_hint = -1;
}  // namespace

EpochDomain::Guard EpochDomain::pin() {
  int hint = t_slot_hint;
  if (hint < 0) {
    hint = static_cast<int>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kSlots);
    t_slot_hint = hint;
  }
  const auto start = static_cast<std::size_t>(hint);
  std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      auto& slot = slots_[(start + i) % kSlots].epoch;
      std::uint64_t expected = 0;
      if (!slot.compare_exchange_strong(expected, e,
                                        std::memory_order_seq_cst))
        continue;
      // Publish-then-verify: the pin is only complete once the published
      // epoch and the global epoch agree. If a writer bumped in between,
      // re-publish the newer value — the seq_cst total order guarantees
      // that either our slot store is visible to the writer's reclaim
      // scan, or the writer's bump is visible to this verify load.
      for (;;) {
        const auto e2 = epoch_.load(std::memory_order_seq_cst);
        if (e2 == e) return Guard(&slot);
        slot.store(e2, std::memory_order_seq_cst);
        e = e2;
      }
    }
    // Every slot busy: more simultaneous pins than kSlots. Back off and
    // retry — never fall back to a lock on the reader side.
    std::this_thread::yield();
    e = epoch_.load(std::memory_order_seq_cst);
  }
}

void EpochDomain::retire(std::shared_ptr<const void> obj) {
  // The bump *after* the caller's pointer swap is what makes the tag
  // meaningful: a reader pinned at >= tag observed the bump, therefore
  // the swap, therefore cannot hold `obj`.
  const auto tag = epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  {
    std::lock_guard<std::mutex> lk(retired_mu_);
    retired_.push_back(Retired{tag, std::move(obj)});
  }
  retired_total_.fetch_add(1, std::memory_order_relaxed);
  reclaim();
}

std::uint64_t EpochDomain::oldest_live_epoch() const {
  std::uint64_t floor = epoch_.load(std::memory_order_seq_cst);
  for (const auto& s : slots_) {
    const auto e = s.epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < floor) floor = e;
  }
  return floor;
}

std::size_t EpochDomain::reclaim() {
  const auto floor = oldest_live_epoch();
  // Destructors run outside the lock: a generation's teardown may be
  // arbitrary user code (policy, counter blocks) and must not extend the
  // retired-list critical section.
  std::vector<std::shared_ptr<const void>> freed;
  {
    std::lock_guard<std::mutex> lk(retired_mu_);
    auto keep = retired_.begin();
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      if (it->tag <= floor) {
        freed.push_back(std::move(it->obj));
      } else {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    retired_.erase(keep, retired_.end());
  }
  reclaimed_total_.fetch_add(freed.size(), std::memory_order_relaxed);
  return freed.size();
}

std::size_t EpochDomain::pending_retired() const {
  std::lock_guard<std::mutex> lk(retired_mu_);
  return retired_.size();
}

}  // namespace klb::lb
