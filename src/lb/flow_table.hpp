// Sharded connection-affinity table for the MUX hot path.
//
// The per-packet MUX path is: tuple hash -> affinity lookup -> (on miss)
// routing decision -> pin. A single monolithic unordered_map serializes
// every packet of every core behind one structure; a FlowTable splits the
// flow space into a power-of-two number of shards, chosen by the tuple
// hash, each with its own mutex, map, and counters. Two cores only contend
// when their packets hash to the same shard, so lookup/insert/FIN
// throughput scales with cores — the per-core state-scaling problem the
// stateful-vs-stateless LB literature (and XLB's in-kernel path) optimize.
//
// The table holds affinity and nothing else. A new connection on a
// tuple-deterministic pool needs no per-flow memo: the Mux resolves it
// from the pinned generation's maglev table, lock-free, so per-flow state
// is exactly what connection consistency needs.
//
// Thread-safety: every public operation is safe to call concurrently.
// GC sweeps are shard-local: gc_shard(k) holds only shard k's lock, so an
// inline sweep from the packet path never stalls the other shards, and the
// reclaim callback runs after the lock is released (callers may reenter
// the table or take their own locks from it).
//
// Per-shard counters (inserts, erases, GC reclaims) are only aggregated on
// read — the hot path never touches a shared counter cache line.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/five_tuple.hpp"
#include "util/sync.hpp"
#include "util/time.hpp"

namespace klb::lb {

struct FlowTableConfig {
  /// Rounded up to a power of two. One shard degenerates to the old
  /// monolithic single-map table (the bench baseline).
  std::size_t shard_count = 16;
  /// Expected concurrent flows across the whole table. Positive values
  /// pre-reserve each shard's map for its share, so filling to that scale
  /// never rehashes (a rehash at 10M flows stalls that shard for the
  /// whole re-bucketing). 0 keeps the default growth behaviour.
  std::size_t expected_flows = 0;
  /// Default cap on entries examined per gc_shard() call (0 = sweep the
  /// whole shard). A bounded sweep resumes from a per-shard bucket cursor
  /// on the next call, so inline GC from the packet path stays O(budget)
  /// at 10M flows instead of O(shard). Explicit full sweeps can override
  /// per call.
  std::size_t gc_scan_budget = 0;
};

/// Aggregated per-shard counters (one lock per shard held briefly on read).
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

/// Memory footprint, aggregated across shards. `approx_bytes` estimates
/// heap usage from the node-based unordered_map layout (per-entry node +
/// bucket array) plus the shard structs — an estimate, but the *same*
/// estimate in every build mode, so ratios
/// (stateless vs stateful) are instrumentation-independent and hold under
/// sanitizers (bench/flow_memory.cpp gates on the ratio).
struct FlowTableMemory {
  std::size_t entries = 0;
  std::size_t buckets = 0;  // sum of shard bucket counts
  std::size_t approx_bytes = 0;
};

/// Result of an affinity lookup (one lock acquisition).
struct FlowHit {
  enum class Kind : std::uint8_t {
    kMiss,      // unknown tuple: route it as a new connection
    kAffinity,  // pinned flow (last_seen touched)
  };
  Kind kind = Kind::kMiss;
  std::uint64_t backend_id = 0;
};

/// One element of a batched affinity lookup. The caller precomputes the
/// tuple hash (it already needs it for the stateless path); the result
/// lands in `hit`.
struct FlowLookup {
  const net::FiveTuple* tuple = nullptr;
  std::uint64_t hash = 0;
  FlowHit hit;
};

/// One element of a batched FIN unpin (erase_batch). The caller
/// precomputes the tuple hash; `found`/`id` report whether the flow was
/// pinned and to which backend.
struct FlowErase {
  const net::FiveTuple* tuple = nullptr;
  std::uint64_t hash = 0;
  std::uint64_t id = 0;
  bool found = false;
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
  /// Nonallocating: the one shard-lock acquisition is the documented
  /// "flow.shard_lock" escape; everything under it is lock-free reads.
  FlowHit lookup(const net::FiveTuple& t, util::SimTime now)
      KLB_NONALLOCATING;

  /// Batched lookup(): partitions the requests by shard and takes each
  /// shard lock once for its whole group. Element-wise identical to
  /// calling lookup() per request. The grouping stage is lock-free and
  /// allocation-free (per-thread scratch grows once per high-water mark —
  /// "flow.scratch_grow"); each per-run lock is "flow.shard_lock".
  void lookup_batch(FlowLookup* reqs, std::size_t n, util::SimTime now)
      KLB_NONALLOCATING;

  /// Pin `t` to `backend_id` unless it is already pinned (a concurrent
  /// packet of the same tuple may have won the race). Returns the owning
  /// backend id and whether this call inserted it. The trailing bool is
  /// ignored; only benchmark/ still passes it.
  std::pair<std::uint64_t, bool> try_insert(const net::FiveTuple& t,
                                            std::uint64_t backend_id,
                                            util::SimTime now,
                                            bool /*unused*/ = false);

  /// Read-only affinity probe: no last-seen touch, no counter traffic.
  /// Diagnostics and tests; the packet path uses lookup().
  std::optional<std::uint64_t> try_find(const net::FiveTuple& t) const;

  /// Unpin `t`, returning the backend it was pinned to (FIN path).
  /// Nonallocating in the lookup() split: the one shard-lock acquisition
  /// (and the node free under it) is the "flow.shard_lock" escape.
  std::optional<std::uint64_t> erase(const net::FiveTuple& t)
      KLB_NONALLOCATING;

  /// Batched erase(): partitions the requests by shard and takes each
  /// shard lock once for its whole group. Element-wise identical to
  /// calling erase() per request. Nonallocating in the same split as
  /// lookup_batch(): the staging lanes never touch the heap; the node
  /// frees happen only inside the documented "flow.shard_lock" runs.
  void erase_batch(FlowErase* reqs, std::size_t n) KLB_NONALLOCATING;

  /// Drop every flow pinned to `backend_id` (backend removal/failure).
  /// Returns the number of flows dropped. `dropped` runs per dropped flow
  /// after the owning shard's lock is released (callers unpin slot
  /// accounting from it).
  std::size_t erase_backend(std::uint64_t backend_id,
                            const std::function<void(const net::FiveTuple&)>&
                                dropped = nullptr);

  /// Reclaim dead flows (backend fails `alive`) and — when `idle` is
  /// positive — flows idle since before `now - idle`, in shard `k` only.
  /// `alive` runs under the shard lock and must not reenter the table;
  /// `reclaimed(tuple, backend_id, dead)` runs per reclaimed flow *after*
  /// the lock is released, so it may reenter the table or take caller
  /// locks. `max_scan` bounds the entries examined (kScanAll = whole
  /// shard; kScanBudgeted = the configured gc_scan_budget); a bounded
  /// sweep resumes from the shard's bucket cursor next call, wrapping the
  /// whole shard over successive calls.
  static constexpr std::size_t kScanAll = 0;
  static constexpr std::size_t kScanBudgeted =
      static_cast<std::size_t>(-1);
  std::size_t gc_shard(std::size_t k, util::SimTime now, util::SimTime idle,
                       const std::function<bool(std::uint64_t)>& alive,
                       const std::function<void(const net::FiveTuple&,
                                                std::uint64_t, bool)>&
                           reclaimed = nullptr,
                       std::size_t max_scan = kScanAll);

  /// Full sweep: gc_shard over every shard (still one shard lock at a time).
  std::size_t gc(util::SimTime now, util::SimTime idle,
                 const std::function<bool(std::uint64_t)>& alive,
                 const std::function<void(const net::FiveTuple&, std::uint64_t,
                                          bool)>& reclaimed = nullptr);

  std::size_t size() const;
  std::size_t shard_size(std::size_t k) const;
  /// Shard k's current map capacity (bucket count) — pre-reserve checks.
  std::size_t shard_buckets(std::size_t k) const;
  /// Aggregated footprint (entries, buckets, approximate bytes).
  FlowTableMemory memory() const;
  std::size_t gc_scan_budget() const { return gc_scan_budget_; }

  /// Visit every flow as (tuple, backend_id, last_seen). Holds each shard's
  /// lock during its callbacks — test/diagnostic use; do not reenter the
  /// table from `fn`.
  void for_each(const std::function<void(const net::FiveTuple&, std::uint64_t,
                                         util::SimTime)>& fn) const;

  FlowTableStats stats() const;

 private:
  struct Flow {
    std::uint64_t backend_id = 0;
    util::SimTime last_seen = util::SimTime::zero();
  };

  /// Own cache line per shard: the mutex and map of one shard must not
  /// false-share with its neighbours. All shard mutexes share one lock
  /// rank ("klb.flow.shard"): the table never nests two shard locks, so
  /// the debug validator treats any same-rank nesting as a bug.
  struct alignas(64) Shard {
    mutable util::Mutex mu{"klb.flow.shard"};
    std::unordered_map<net::FiveTuple, Flow> flows KLB_GUARDED_BY(mu);
    std::uint64_t inserts KLB_GUARDED_BY(mu) = 0;
    std::uint64_t erases KLB_GUARDED_BY(mu) = 0;
    std::uint64_t gc_reclaimed KLB_GUARDED_BY(mu) = 0;
    std::uint64_t gc_scanned KLB_GUARDED_BY(mu) = 0;
    /// Bucket index a budgeted GC sweep resumes from (wraps).
    std::size_t gc_cursor KLB_GUARDED_BY(mu) = 0;
  };

  /// Shard choice uses the hash's top bits: the low bits feed the affinity
  /// map buckets and the maglev table index, so shard choice stays
  /// decorrelated from both.
  std::size_t shard_index(std::uint64_t h) const KLB_NONBLOCKING {
    return static_cast<std::size_t>(h >> 48) & shard_mask_;
  }

  /// Lock-free under the shard lock: map find + in-place touch, no
  /// allocation (nonblocking — the lock is the caller's).
  FlowHit lookup_locked(Shard& s, const net::FiveTuple& t, util::SimTime now)
      KLB_NONBLOCKING KLB_REQUIRES(s.mu);
  /// Frees the flow's map node on a hit — callers run it inside their
  /// "flow.shard_lock" escape (the one lane where the table may free).
  void erase_locked(Shard& s, FlowErase& r) KLB_REQUIRES(s.mu);

  std::size_t shard_mask_ = 0;
  std::size_t gc_scan_budget_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace klb::lb
