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
// A build is a round-robin fill: each backend in turn claims the next free
// slot of its permutation walk until it holds its share. Occupancy only
// grows during a build, so a backend's next claim is always the first
// still-free slot of its walk after its previous claim. The fill uses that
// run-ahead invariant to collect a few free slots of a walk at once, in a
// branch-free scan, and at each claim skips those another backend took
// meanwhile; the table is exactly the one-probe-at-a-time walk's
// (tests/maglev_test.cpp compares them slot for slot).
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

struct GenBackend;  // lb/pool_generation.hpp

class MaglevTable {
 public:
  static constexpr std::uint32_t kEmptySlot =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kNoId =
      std::numeric_limits<std::uint64_t>::max();
  /// Default table size (prime). ~650 slots per backend at 100 DIPs; pass
  /// a larger minimum for 10k-DIP pools if finer weight resolution matters.
  static constexpr std::size_t kDefaultMinSize = 65'537;

  /// An empty table of the first prime >= min_table_size slots (the
  /// permutation walk needs the size coprime with every skip). Throws
  /// std::length_error for a min_table_size above 2^31.
  explicit MaglevTable(std::size_t min_table_size = kDefaultMinSize);

  /// A table of the same geometry built over `entries`. It skips the empty
  /// pre-fill, since build() writes every slot.
  MaglevTable(std::size_t min_table_size,
              const std::vector<MaglevEntry>& entries);

  /// Rebuild the table. Disruption is minimal only if callers keep each
  /// id's relative order stable across builds (the Mux registration order
  /// does). Entries with weight <= 0 are excluded from the table.
  void build(const std::vector<MaglevEntry>& entries);

  /// Entry index owning `hash`'s slot, or kEmptySlot for an empty table.
  /// One array read — the packet path's per-pick cost.
  std::uint32_t lookup(std::uint64_t hash) const {
    return slots_[hash % size_];
  }

  /// As lookup(), but resolves to the entry's stable id (kNoId if empty).
  std::uint64_t lookup_id(std::uint64_t hash) const {
    return slot_owner(hash % size_);
  }

  /// Stable id owning `slot` (< table_size()), or kNoId if it is empty —
  /// what GenerationDiff (lb/consistency.hpp) compares across publishes.
  std::uint64_t slot_owner(std::size_t slot) const {
    const auto e = slots_[slot];
    return e == kEmptySlot ? kNoId : ids_[e];
  }

  std::size_t table_size() const { return size_; }
  std::size_t entry_count() const { return ids_.size(); }

  /// Slots owned per entry index (weight-proportionality checks).
  std::vector<std::size_t> slot_counts() const;

 private:
  std::size_t size_;                        // prime slot count
  std::unique_ptr<std::uint32_t[]> slots_;  // entry index or kEmptySlot
  std::vector<std::uint64_t> ids_;          // stable id per entry index
};

/// The one table build of the dataplane: an immutable weighted table over
/// `backends` (one generation's pool) of `min_table_size`'s geometry. Ids
/// are DIP address values, so the table is servable by every Mux that
/// holds the same addresses, and entry order follows the pool's
/// registration order, which keeps a rebuild minimally disruptive.
/// Drainers take no slots — which is why a drain completion can keep
/// serving the snapshot it already has.
std::shared_ptr<const MaglevTable> build_table(
    const std::vector<GenBackend>& backends, std::size_t min_table_size);

/// The "maglev" MUX policy: consistent-hash DIP selection over the 5-tuple,
/// weight-aware, O(1) per pick, served from an immutable table snapshot.
///
/// The policy never builds: whoever publishes a generation builds its
/// table with build_table and hands the snapshot in. A standalone Mux does
/// that on every membership or weight change (apply_program, fail_backend,
/// set_policy); a MuxPool builds once per commit and hands the
/// pointer-equal snapshot to every member, so any two members pick the
/// same DIP for the same 5-tuple. A drain completion clones the policy,
/// which aliases the snapshot. The table resolves hashes to DIP address
/// values, which each Mux maps to its own view through
/// PoolGeneration::table_route; a Mux never calls pick().
class MaglevPolicy : public Policy {
 public:
  /// An empty table of `min_table_size`'s geometry: routes nothing until a
  /// Mux builds one over its pool, and sizes the hybrid dataplane's
  /// slot-pin counters (lb/consistency.hpp) when the Mux is constructed.
  explicit MaglevPolicy(std::size_t min_table_size = MaglevTable::kDefaultMinSize)
      : table_(std::make_shared<const MaglevTable>(min_table_size)) {}
  explicit MaglevPolicy(std::shared_ptr<const MaglevTable> table)
      : table_(std::move(table)) {}

  std::string name() const override { return "maglev"; }
  /// Copying is cheap and correct: the clone aliases the immutable
  /// snapshot.
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<MaglevPolicy>(*this);
  }
  std::shared_ptr<const MaglevTable> maglev_table() const override {
    return table_;
  }

  /// Hash + table read + a scan of `backends` for the owner (the Mux's
  /// route is O(1); this serves direct callers). Allocation-free.
  std::size_t pick(const net::FiveTuple& tuple,
                   const std::vector<BackendView>& backends,
                   util::Rng& rng) override;

 private:
  std::shared_ptr<const MaglevTable> table_;
};

}  // namespace klb::lb
