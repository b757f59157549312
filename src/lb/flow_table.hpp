// Connection-affinity table for the MUX hot path.
//
// The per-packet MUX path is: tuple hash -> affinity lookup -> (on miss)
// routing decision -> pin. A FlowTable splits the flow space into a
// power-of-two number of shards, chosen by the tuple hash, each with its
// own slot array and counters. The shards partition the idle-flow GC (an
// inline sweep covers one shard, within a scan budget) and bound a growth
// stall to one shard's share of the flows.
//
// The table holds affinity and nothing else. A new connection on a
// tuple-deterministic pool needs no per-flow memo: the Mux resolves it
// from the current generation's maglev table, so per-flow state is exactly
// what connection consistency needs.
//
// Single-threaded, like the simulation that drives it. Callbacks that may
// reenter the table (erase_backend's `dropped`, gc_shard's `reclaimed`)
// run after the sweep that collected their flows.
//
// Each shard is one open-addressing array: linear probing over a
// power-of-two number of 32-byte slots, erase by backward shift (no
// tombstones), grown by doubling at 3/4 load. A flow's home slot comes
// from the tuple hash the caller already computed for its own routing
// (FlowLookup, FlowErase and try_insert carry it), so a packet's probe
// neither re-hashes the tuple nor touches a node; the table re-derives a
// hash only when it moves an entry (a backward shift or a growth). The
// only allocation left is that amortized growth.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/five_tuple.hpp"
#include "util/effects.hpp"
#include "util/time.hpp"

namespace klb::lb {

struct FlowTableConfig {
  /// Rounded up to a power of two.
  std::size_t shard_count = 16;
  /// Expected concurrent flows across the whole table. Positive values
  /// pre-size each shard's slot array for its share, so filling to that
  /// scale never grows it (a growth at 10M flows stalls that shard for the
  /// whole re-insertion). 0 keeps the default growth behaviour.
  std::size_t expected_flows = 0;
  /// Default cap on entries examined per gc_shard() call (0 = sweep the
  /// whole shard). A bounded sweep resumes from a per-shard slot cursor
  /// on the next call, so inline GC from the packet path stays O(budget)
  /// at 10M flows instead of O(shard). Explicit full sweeps can override
  /// per call.
  std::size_t gc_scan_budget = 0;
};

/// Per-shard counters, summed.
struct FlowTableStats {
  std::size_t entries = 0;
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t gc_reclaimed = 0;
  std::uint64_t gc_scanned = 0;  // entries examined by GC sweeps
  // Always 0: the table has no pick cache. Kept only for benchmark/.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Memory footprint, aggregated across shards. `approx_bytes` is the slot
/// arrays at their real capacity plus the shard structs — computed from
/// sizeofs, so the same figure in every build mode and ratios (stateless
/// vs stateful) hold under sanitizers (bench/flow_memory.cpp gates on the
/// ratio).
struct FlowTableMemory {
  std::size_t entries = 0;
  std::size_t slots = 0;  // sum of shard slot capacities
  std::size_t approx_bytes = 0;
};

/// Result of an affinity lookup.
struct FlowHit {
  enum class Kind : std::uint8_t {
    kMiss,      // unknown tuple: route it as a new connection
    kAffinity,  // pinned flow (last_seen touched)
  };
  Kind kind = Kind::kMiss;
  std::uint64_t backend_id = 0;
};

/// One element of a batched affinity lookup. The caller precomputes the
/// tuple hash, net::hash_tuple(*tuple) (it already needs it for the
/// stateless path); the table keys on it. The result lands in `hit`.
struct FlowLookup {
  const net::FiveTuple* tuple = nullptr;
  std::uint64_t hash = 0;
  FlowHit hit;
};

/// One element of a batched FIN unpin (erase_batch): the caller sets the
/// tuple and its net::hash_tuple hash; `found`, and `id` when found, name
/// the pin. Fields stay uninitialized so a scalar FIN pays for one element
/// of the Mux's fixed-size stack array, not all of them.
struct FlowErase {
  const net::FiveTuple* tuple;
  std::uint64_t hash;
  std::uint64_t id;
  bool found;
};

class FlowTable {
 public:
  explicit FlowTable(FlowTableConfig cfg = {});

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  std::size_t shard_count() const KLB_NONBLOCKING { return shards_.size(); }
  std::size_t shard_of(const net::FiveTuple& t) const KLB_NONBLOCKING {
    return shard_index(net::hash_tuple(t));
  }

  /// Affinity lookup with last-seen touch.
  FlowHit lookup(const net::FiveTuple& t, util::SimTime now) KLB_NONBLOCKING;

  /// lookup() per request, in order.
  void lookup_batch(FlowLookup* reqs, std::size_t n, util::SimTime now)
      KLB_NONBLOCKING;

  /// Pin `t` (whose net::hash_tuple is `hash`) to `backend_id` unless it
  /// is already pinned (an earlier packet of the same tuple in the same
  /// burst may have pinned it). Returns the owning backend id and whether
  /// this call inserted it. Allocates only when the shard's slot array
  /// grows.
  std::pair<std::uint64_t, bool> try_insert(const net::FiveTuple& t,
                                            std::uint64_t hash,
                                            std::uint64_t backend_id,
                                            util::SimTime now);
  /// try_insert() hashing the tuple itself — tests and benches. The
  /// trailing bool is ignored; only benchmark/ still passes it.
  std::pair<std::uint64_t, bool> try_insert(const net::FiveTuple& t,
                                            std::uint64_t backend_id,
                                            util::SimTime now,
                                            bool /*unused*/ = false) {
    return try_insert(t, net::hash_tuple(t), backend_id, now);
  }

  /// Read-only affinity probe: no last-seen touch, no counter traffic.
  /// Diagnostics and tests; the packet path uses lookup().
  std::optional<std::uint64_t> try_find(const net::FiveTuple& t) const;

  /// Unpin `t`, returning the backend it was pinned to.
  std::optional<std::uint64_t> erase(const net::FiveTuple& t) KLB_NONBLOCKING;

  /// erase() per request, in order.
  void erase_batch(FlowErase* reqs, std::size_t n) KLB_NONBLOCKING;

  /// Drop every flow pinned to `backend_id` (backend removal/failure).
  /// Returns the number of flows dropped. `dropped` runs per dropped flow
  /// after the owning shard's sweep (callers unpin slot accounting from
  /// it).
  std::size_t erase_backend(std::uint64_t backend_id,
                            const std::function<void(const net::FiveTuple&)>&
                                dropped = nullptr);

  /// Reclaim dead flows (backend fails `alive`) and — when `idle` is
  /// positive — flows idle since before `now - idle`, in shard `k` only.
  /// `alive` runs during the sweep and must not reenter the table;
  /// `reclaimed(tuple, backend_id, dead)` runs per reclaimed flow *after*
  /// the sweep, so it may reenter the table. `max_scan` bounds the entries
  /// examined (kScanAll = whole shard; kScanBudgeted = the configured
  /// gc_scan_budget); a bounded sweep resumes from the shard's slot cursor
  /// next call, wrapping the whole shard over successive calls.
  static constexpr std::size_t kScanAll = 0;
  static constexpr std::size_t kScanBudgeted =
      static_cast<std::size_t>(-1);
  std::size_t gc_shard(std::size_t k, util::SimTime now, util::SimTime idle,
                       const std::function<bool(std::uint64_t)>& alive,
                       const std::function<void(const net::FiveTuple&,
                                                std::uint64_t, bool)>&
                           reclaimed = nullptr,
                       std::size_t max_scan = kScanAll);

  /// Full sweep: gc_shard over every shard.
  std::size_t gc(util::SimTime now, util::SimTime idle,
                 const std::function<bool(std::uint64_t)>& alive,
                 const std::function<void(const net::FiveTuple&, std::uint64_t,
                                          bool)>& reclaimed = nullptr);

  std::size_t size() const;
  std::size_t shard_size(std::size_t k) const;
  /// Shard k's current slot capacity — pre-reserve checks.
  std::size_t shard_capacity(std::size_t k) const;
  /// Aggregated footprint (entries, slots, bytes).
  FlowTableMemory memory() const;
  std::size_t gc_scan_budget() const { return gc_scan_budget_; }

  /// Visit every flow as (tuple, backend_id, last_seen). Test/diagnostic
  /// use; do not reenter the table from `fn`.
  void for_each(const std::function<void(const net::FiveTuple&, std::uint64_t,
                                         util::SimTime)>& fn) const;

  FlowTableStats stats() const;

 private:
  /// One flow, 32 bytes: the tuple packed into two words, the pin, and the
  /// last-seen stamp. `ports` is never 0 for a flow (its low byte is a
  /// presence mark), so 0 marks an empty slot.
  struct Slot {
    std::uint64_t addrs;  // src_ip << 32 | dst_ip
    std::uint64_t ports;  // src_port << 32 | dst_port << 16 | proto << 8 | 1
    std::uint64_t backend_id;
    util::SimTime last_seen;
  };
  static_assert(sizeof(Slot) == 32, "a flow slot is 32 bytes");

  struct Shard {
    /// Empty, or a power-of-two number of slots at most 3/4 full.
    std::vector<Slot> slots;
    std::size_t size = 0;
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
    std::uint64_t gc_reclaimed = 0;
    std::uint64_t gc_scanned = 0;
    /// Slot a budgeted GC sweep resumes from (wraps).
    std::size_t gc_cursor = 0;
  };

  /// Shard choice uses the hash's top bits and the home slot its low bits,
  /// so the two stay decorrelated.
  std::size_t shard_index(std::uint64_t h) const KLB_NONBLOCKING {
    return static_cast<std::size_t>(h >> 48) & shard_mask_;
  }

  static constexpr std::size_t kNotFound = ~std::size_t{0};

  static net::FiveTuple tuple_of(const Slot& slot) KLB_NONBLOCKING;

  /// Slot index of `t` in `s`, or kNotFound: a linear probe from the
  /// home slot, no allocation.
  static std::size_t find_in(const Shard& s, std::uint64_t hash,
                             const net::FiveTuple& t) KLB_NONBLOCKING;
  /// Find + in-place last-seen touch.
  static FlowHit lookup_in(Shard& s, std::uint64_t hash,
                           const net::FiveTuple& t,
                           util::SimTime now) KLB_NONBLOCKING;
  /// Backward-shift erase of slot `i`: later entries of its probe run move
  /// up, so no tombstone is left behind. Frees nothing.
  static void erase_at(Shard& s, std::size_t i) KLB_NONBLOCKING;
  static void erase_in(Shard& s, FlowErase& r) KLB_NONBLOCKING;
  /// Re-insert every flow into `capacity` slots (a power of two).
  static void resize(Shard& s, std::size_t capacity);
  /// Walk slots from `start` for at most one lap and `max_entries`
  /// entries, erasing in place each flow `doomed(slot)` picks after
  /// handing it to `gone(slot)`. Returns the next slot to examine; adds
  /// the entries examined to `examined`.
  template <class Doomed, class Gone>
  static std::size_t sweep(Shard& s, std::size_t start,
                           std::size_t max_entries, std::size_t& examined,
                           Doomed&& doomed, Gone&& gone);
  /// A slot with no flow (one exists whenever the shard has slots): a full
  /// sweep that starts there never sees an entry shift across its start.
  static std::size_t empty_slot(const Shard& s);

  std::size_t shard_mask_ = 0;
  std::size_t gc_scan_budget_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace klb::lb
