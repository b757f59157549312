// Weighted Maglev-style consistent hashing for the MUX dataplane.
//
// A MaglevTable is a flat lookup array (prime-sized) filled from per-backend
// pseudo-random slot permutations (Eisenbud et al., NSDI'16). Each backend's
// permutation is derived only from its stable id, so rebuilding the table
// after a weight or membership change moves as few slots as possible:
// removing one DIP from a 100-DIP pool remaps a few percent of flows, where
// `hash % n` remaps essentially all of them. Slot counts are apportioned to
// the programmed `weight_units` by largest remainder, so the table honours
// KnapsackLB's ILP weights exactly (to one slot).
//
// Packet-path cost is one hash + one array read — O(1) in the DIP count —
// which is what lets the dataplane scale to 10k-DIP pools (bench/
// maglev_lookup.cpp measures it against the O(n) usable-scan policies).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lb/policy.hpp"

namespace klb::lb {

/// One backend as the table sees it: a stable identity (the Mux uses the
/// DIP address value) plus its programmed weight. Entries with weight <= 0
/// take no slots but keep their position so entry indexes stay aligned
/// with the caller's backend indexes.
struct MaglevEntry {
  std::uint64_t id = 0;
  std::int64_t weight_units = 0;
};

class MaglevTable {
 public:
  static constexpr std::uint32_t kEmptySlot =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kNoId =
      std::numeric_limits<std::uint64_t>::max();
  /// Default table size (prime). ~650 slots per backend at 100 DIPs; pass
  /// a larger minimum for 10k-DIP pools if finer weight resolution matters.
  static constexpr std::size_t kDefaultMinSize = 65'537;

  /// The table allocates the first prime >= min_table_size slots (the
  /// permutation walk needs the size coprime with every skip).
  explicit MaglevTable(std::size_t min_table_size = kDefaultMinSize);

  /// Rebuild the table. Disruption is minimal only if callers keep each
  /// id's relative order stable across builds (the Mux registration order
  /// does). Entries with weight <= 0 are excluded from the table.
  void build(const std::vector<MaglevEntry>& entries);

  /// Entry index owning `hash`'s slot, or kEmptySlot for an empty table.
  /// One array read — the packet path's per-pick cost; nonblocking.
  std::uint32_t lookup(std::uint64_t hash) const KLB_NONBLOCKING {
    return slots_[hash % slots_.size()];
  }

  /// As lookup(), but resolves to the entry's stable id (kNoId if empty).
  std::uint64_t lookup_id(std::uint64_t hash) const KLB_NONBLOCKING {
    const auto e = lookup(hash);
    return e == kEmptySlot ? kNoId : ids_[e];
  }

  std::size_t table_size() const { return slots_.size(); }
  std::size_t entry_count() const { return ids_.size(); }
  std::uint64_t builds() const { return builds_; }

  /// Slots owned per entry index (weight-proportionality checks).
  std::vector<std::size_t> slot_counts() const;

  /// Resolve every slot to its owner's stable id, truncated to 32 bits
  /// (the Mux keys tables by DIP address values, which fit), with
  /// 0xFFFFFFFF for empty slots. `out` is resized to table_size(). This
  /// is what GenerationDiff (lb/consistency.hpp) diffs across publishes
  /// to find the slots whose pick changed.
  void resolve_slots(std::vector<std::uint32_t>& out) const;

 private:
  std::vector<std::uint32_t> slots_;  // entry index or kEmptySlot
  std::vector<std::uint64_t> ids_;    // stable id per entry index
  std::uint64_t builds_ = 0;
};

/// The "maglev" MUX policy: consistent-hash DIP selection over the 5-tuple,
/// weight-aware, O(1) per pick.
///
/// The table is rebuilt lazily on the next pick after invalidate(); the Mux
/// calls invalidate() on every weight/membership/enable change. Direct
/// users that mutate their BackendView vector (tests, benches) must do the
/// same — a size change is detected automatically, a pure weight change is
/// not (detecting it would cost the O(n) scan this policy exists to avoid).
class MaglevPolicy : public Policy {
 public:
  explicit MaglevPolicy(std::size_t min_table_size = MaglevTable::kDefaultMinSize)
      : table_(min_table_size), min_table_size_(min_table_size) {}

  std::string name() const override { return "maglev"; }
  void invalidate() override {
    Policy::invalidate();
    dirty_ = true;
  }
  /// Fresh same-sized instance, not a copy: the table is derived state
  /// that prepare()/the next pick rebuilds, and copying O(table) slots per
  /// generation publish would put a 65k memcpy on the control path.
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<MaglevPolicy>(min_table_size_);
  }
  /// Eager build on the control plane so the first pick after a
  /// generation publish doesn't pay the O(table) fill under the pick lock.
  void prepare(const std::vector<BackendView>& backends) override {
    rebuild(backends);
  }

  /// Steady-state: hash + one table read, allocation-free. The lazy
  /// rebuild after invalidate() is the "policy.maglev_rebuild" escape
  /// (published generations are prepared eagerly and never take it).
  std::size_t pick(const net::FiveTuple& tuple,
                   const std::vector<BackendView>& backends,
                   util::Rng& rng) KLB_NONALLOCATING override;

  const MaglevTable& table() const { return table_; }
  /// Member table: pointer stable for the policy's lifetime, contents
  /// frozen after prepare() (published generations are never re-prepared).
  const MaglevTable* maglev_table() const override { return &table_; }

 private:
  void rebuild(const std::vector<BackendView>& backends);

  MaglevTable table_;
  std::size_t min_table_size_ = MaglevTable::kDefaultMinSize;
  bool dirty_ = true;
  std::size_t cached_count_ = 0;
};

/// Maglev policy backed by an externally built, immutable table snapshot.
///
/// A MuxPool ECMP-shards one VIP over N muxes; for their picks to agree
/// (per-connection consistency even when ECMP re-shards a flow to another
/// mux), all N must consult the *same* table. The pool builds one
/// MaglevTable per committed program version and publishes it to every
/// member's policy as a shared_ptr<const> snapshot — pointer-equal across
/// the pool, swapped atomically, never mutated in place.
///
/// The table resolves hashes to stable ids (DIP address values), which
/// each mux maps to its own view (a draining backend may linger on one mux
/// and be gone from another). A Mux does that through
/// PoolGeneration::table_route and never calls pick().
class SharedMaglevPolicy : public Policy {
 public:
  std::string name() const override { return "maglev-shared"; }
  /// Copying is cheap and correct here: the table is an immutable shared
  /// snapshot (the clone aliases it).
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<SharedMaglevPolicy>(*this);
  }

  /// Publish a new snapshot (pool-wide, once per program version).
  void set_table(std::shared_ptr<const MaglevTable> table) {
    table_ = std::move(table);
  }
  /// The current snapshot — pointer-equal across all muxes of a pool.
  const std::shared_ptr<const MaglevTable>& table_snapshot() const {
    return table_;
  }
  /// The shared snapshot (immutable by contract); clones alias it, so the
  /// pointer outlives any generation that carries this policy.
  const MaglevTable* maglev_table() const override { return table_.get(); }

  /// Hash + table read + a scan of `backends` for the owner (the Mux's
  /// route is O(1); this serves direct callers). Allocation-free.
  std::size_t pick(const net::FiveTuple& tuple,
                   const std::vector<BackendView>& backends,
                   util::Rng& rng) KLB_NONALLOCATING override;

 private:
  std::shared_ptr<const MaglevTable> table_;
};

}  // namespace klb::lb
