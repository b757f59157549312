// Epoch-based reclamation (EBR): a standalone primitive. No dataplane
// code uses it — the Mux runs on one thread and destroys a superseded pool
// generation at the swap. It stays only because the repository benchmark
// times pin() for its lb.epoch_pin_ns layer metric.
//
// The scheme:
//
//   * A global epoch counter, bumped once per retire.
//   * A fixed array of per-reader slots. A reader *pins* by claiming a
//     free slot and publishing the epoch it observed, with a
//     publish-then-verify loop: store the epoch, re-read the global
//     counter, and re-publish until the two agree. All slot/epoch
//     accesses are seq_cst, which is what makes the verify conclusive: if
//     a writer's bump is not visible to the reader's verify load, then
//     the reader's slot store is visible to the writer's scan (they
//     cannot both miss each other in the single total order).
//   * A writer retires an object only *after* unlinking it, and tags it
//     with the post-bump epoch. Any reader pinned at an epoch >= the tag
//     pinned after the bump, hence after the unlink, hence can only see
//     the new object; readers pinned below the tag are visible in the
//     slot array and block reclamation.
//   * reclaim() frees every retired object whose tag is <= the minimum
//     epoch over the occupied slots (or the current epoch when no reader
//     is pinned).
//
// Pin/unpin is one CAS + one load / one store — no locks, no allocation.
// Retire/reclaim take an internal mutex.
//
// The domain stores retired objects as shared_ptr<const void>, so it can
// hold anything and "free" means dropping the last reference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace klb::lb {

class EpochDomain {
 public:
  /// Reader slots. More concurrent pins than this spin-wait for a slot;
  /// 64 comfortably covers every thread count the benches drive (a
  /// thread may hold two pins at once: packet path + inline GC).
  static constexpr std::size_t kSlots = 64;

  /// RAII pin: holds a reader slot from pin() until destruction (or an
  /// explicit release()). Movable so it can ride in a return value.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& o) noexcept : slot_(o.slot_) { o.slot_ = nullptr; }
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        release();
        slot_ = o.slot_;
        o.slot_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

    /// The unpin: one seq_cst store.
    void release() {
      if (slot_ != nullptr) {
        slot_->store(0, std::memory_order_seq_cst);
        slot_ = nullptr;
      }
    }
    bool active() const { return slot_ != nullptr; }

   private:
    friend class EpochDomain;
    explicit Guard(std::atomic<std::uint64_t>* slot) : slot_(slot) {}
    std::atomic<std::uint64_t>* slot_ = nullptr;
  };

  EpochDomain() = default;
  ~EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Claim a reader slot at the current epoch (wait-free in the common
  /// case; spins only if all kSlots are simultaneously pinned). The
  /// caller must pin *before* loading the protected pointer.
  /// Allocates nothing. The first pin on a thread reads the thread id to
  /// seed its slot hint, and a pin that finds every slot busy yields
  /// before it rescans.
  Guard pin();

  /// Hand an unlinked object to the domain. The caller must have made the
  /// object unreachable to *new* readers first (swapped the published
  /// pointer); retire() tags it with a fresh epoch and reclaims whatever
  /// has become safe. Control-plane only.
  void retire(std::shared_ptr<const void> obj);

  /// Free every retired object no pinned reader can still hold. Returns
  /// the number reclaimed. Safe to call any time from the control plane.
  std::size_t reclaim();

  /// Current global epoch (starts at 1, bumped once per retire).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }
  /// Minimum epoch over the pinned readers, or the current epoch when no
  /// reader is pinned — the reclamation floor.
  std::uint64_t oldest_live_epoch() const;

  std::uint64_t retired_total() const {
    return retired_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t reclaimed_total() const {
    return reclaimed_total_.load(std::memory_order_relaxed);
  }
  /// Objects retired but not yet reclaimed (a straggling reader, or no
  /// reclaim() call since the last retire burst).
  std::size_t pending_retired() const;

 private:
  /// Own cache line per slot: two readers pinning concurrently must not
  /// false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};  // 0 = free (live epochs start at 1)
  };

  struct Retired {
    std::uint64_t tag = 0;
    std::shared_ptr<const void> obj;
  };

  std::array<Slot, kSlots> slots_;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> retired_total_{0};
  std::atomic<std::uint64_t> reclaimed_total_{0};
  mutable std::mutex retired_mu_;  // guards retired_
  std::vector<Retired> retired_;
};

}  // namespace klb::lb
