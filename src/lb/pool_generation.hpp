// Immutable pool-state generations for the MUX dataplane (ROADMAP item 1).
//
// A PoolGeneration is one committed configuration of a VIP's pool:
// membership, addresses, stable ids, weights, drain flags, and the policy
// instance that serves picks for this configuration. The Mux builds one
// per control-plane mutation (pool program, failure, drain completion,
// policy swap), publishes it through a single atomic
// pointer, and retires the previous one into an EpochDomain — the packet
// path loads the current generation wait-free and never observes a
// half-applied configuration.
//
// Two members are deliberately *not* frozen:
//
//   * Per-backend counters (active/connections/forwarded) live in shared
//     BackendCounters blocks keyed by stable id, referenced by every
//     generation that carries the backend — a generation swap must not
//     lose or reset in-flight accounting (a FIN may decrement through a
//     newer generation than the request that incremented).
//   * views() is the policy-facing scratch vector. Its active_conns
//     fields are patched in place under the Mux's pick mutex for the
//     LC-family policies, exactly as the pre-generation code patched its
//     views cache; everything else in it is fixed at construction.
//
// The structural fields checksum at construction; self_check() recomputes
// and compares, so a concurrent reader can assert it never saw a torn or
// partially initialized generation (the concurrency tests do).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lb/consistency.hpp"
#include "lb/maglev.hpp"
#include "lb/policy.hpp"
#include "net/address.hpp"

namespace klb::server {
class DipServer;
}

namespace klb::lb {

/// Packet-path counters for one backend, shared across generations by
/// stable id. Relaxed atomics: aggregated on the control path.
struct BackendCounters {
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> connections{0};  // cumulative new connections
  std::atomic<std::uint64_t> forwarded{0};    // cumulative forwarded requests
  /// Sim time of the last request forwarded while draining (hybrid mode
  /// only; 0 otherwise). Stateless flows hold no pin, so traffic is the
  /// only evidence a drainer still serves them: drain auto-completion
  /// waits until the drainer has been *idle* for the grace window, and
  /// every forwarded packet re-arms it (Mux::drain_ripe).
  std::atomic<std::int64_t> last_forward_us{0};
};

/// One backend as a generation carries it. Plain values — copying a
/// backend vector into the next generation's draft is how the control
/// plane mutates the pool.
struct GenBackend {
  std::uint64_t id = 0;  // stable across pool churn; affinity key
  net::IpAddr addr;
  const server::DipServer* server = nullptr;  // only P2 reads through this
  std::int64_t weight_units = 0;
  bool draining = false;  // condemned: parked until affinity empties
  /// Sim time the drain started (meaningful while `draining`). Stateless
  /// mode gates drain auto-completion on a grace period past this: flows
  /// without a pin need time to adopt one (or FIN) before the backend
  /// disappears — active == 0 alone no longer proves the drainer idle.
  std::int64_t drain_since_us = 0;
  std::shared_ptr<BackendCounters> counters;

  BackendView view() const KLB_NONBLOCKING {
    return BackendView{addr, weight_units, /*enabled=*/!draining,
                       counters ? counters->active.load(
                                      std::memory_order_relaxed)
                                : 0,
                       server};
  }
};

class PoolGeneration {
 public:
  /// `seq` is the Mux's generation sequence number; `program_version` the
  /// last committed transaction. The policy instance becomes
  /// generation-owned: it must already be invalidated/prepared for exactly
  /// this backend list.
  PoolGeneration(std::uint64_t seq, std::uint64_t program_version,
                 std::vector<GenBackend> backends,
                 std::unique_ptr<Policy> policy)
      : seq_(seq), program_version_(program_version),
        backends_(std::move(backends)), policy_(std::move(policy)) {
    index_by_id_.reserve(backends_.size());
    views_.reserve(backends_.size());
    index_by_addr_.reserve(backends_.size());
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      index_by_id_.emplace(backends_[i].id, i);
      index_by_addr_[backends_[i].addr.value()] = i;  // duplicates: last wins
      views_.push_back(backends_[i].view());
    }
    policy_uses_conns_ = policy_->uses_connection_counts();
    // The pointer is stable even though the table's *contents* are filled
    // later (prepare() runs before publication); null for policies with
    // no maglev table.
    table_ = policy_->maglev_table();
    checksum_ = compute_checksum();
    live_count_ref().fetch_add(1, std::memory_order_relaxed);
  }

  ~PoolGeneration() {
    live_count_ref().fetch_sub(1, std::memory_order_relaxed);
  }

  PoolGeneration(const PoolGeneration&) = delete;
  PoolGeneration& operator=(const PoolGeneration&) = delete;

  // Read accessors consulted by the packet path under a generation pin:
  // all nonblocking (frozen fields, read-only map finds, no allocation).
  std::uint64_t program_version() const KLB_NONBLOCKING {
    return program_version_;
  }

  const std::vector<GenBackend>& backends() const KLB_NONBLOCKING {
    return backends_;
  }
  std::size_t size() const KLB_NONBLOCKING { return backends_.size(); }

  std::optional<std::size_t> index_of(std::uint64_t id) const
      KLB_NONBLOCKING {
    const auto it = index_by_id_.find(id);
    if (it == index_by_id_.end()) return std::nullopt;
    return it->second;
  }

  /// Index by DIP address value — the identity maglev tables resolve to
  /// (stable ids stay dataplane-internal; the table is shared pool-wide).
  std::optional<std::size_t> index_of_addr(std::uint32_t addr) const
      KLB_NONBLOCKING {
    const auto it = index_by_addr_.find(addr);
    if (it == index_by_addr_.end()) return std::nullopt;
    return it->second;
  }

  /// The maglev table this generation's policy serves, or nullptr. Frozen
  /// at publication; the packet path reads it lock-free under its pin.
  const MaglevTable* maglev_table() const KLB_NONBLOCKING { return table_; }

  /// The one table route of a tuple-deterministic decision: the backend
  /// index the maglev table routes `hash` to, when that backend may take
  /// new connections (not draining, positive weight). nullopt
  /// without a table, for an empty slot, or for an owner this generation
  /// does not carry or has parked. Lock-free: one table read, one frozen
  /// map find.
  std::optional<std::size_t> table_route(std::uint64_t hash) const
      KLB_NONBLOCKING {
    if (table_ == nullptr) return std::nullopt;
    const auto id = table_->lookup_id(hash);
    if (id == MaglevTable::kNoId) return std::nullopt;
    const auto idx = index_of_addr(static_cast<std::uint32_t>(id));
    if (!idx) return std::nullopt;
    const auto& b = backends_[*idx];
    if (b.draining || b.weight_units <= 0) return std::nullopt;
    return idx;
  }

  /// The generation's exception filter (lb/consistency.hpp), or nullptr
  /// when the stateless fast path is off/disengaged. Set by the Mux on
  /// the control thread before the generation is published (never after),
  /// and reclaimed with the generation.
  const ExceptionFilter* exception_filter() const KLB_NONBLOCKING {
    return filter_.get();
  }
  void set_exception_filter(std::shared_ptr<const ExceptionFilter> f) {
    filter_ = std::move(f);
  }

  /// Policy-facing views, index-aligned with backends(). active_conns is
  /// patched in place — only under the owning Mux's pick mutex.
  std::vector<BackendView>& views() const KLB_NONBLOCKING { return views_; }

  /// The generation-owned policy. Stateful: every call must hold the
  /// owning Mux's pick mutex.
  Policy& policy() const KLB_NONBLOCKING { return *policy_; }

  // Policy traits cached at construction: no virtual dispatch per packet.
  bool policy_uses_conns() const KLB_NONBLOCKING {
    return policy_uses_conns_;
  }

  /// Recompute the structural checksum and compare with the one stamped
  /// at construction — false means a torn/corrupt generation (never
  /// expected; asserted by the concurrency tests).
  bool self_check() const { return compute_checksum() == checksum_; }

  /// Generations currently alive process-wide (published + retired but
  /// not yet reclaimed + drafts under construction). The churn bench
  /// asserts this returns to one-per-mux after quiescing — the
  /// no-use-after-retire / no-leak invariant.
  static std::uint64_t live_count() {
    return live_count_ref().load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<std::uint64_t>& live_count_ref() {
    static std::atomic<std::uint64_t> count{0};
    return count;
  }

  std::uint64_t compute_checksum() const {
    auto mix = [](std::uint64_t x) {
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebull;
      x ^= x >> 31;
      return x;
    };
    std::uint64_t h = mix(seq_ ^ 0x9e3779b97f4a7c15ull) ^
                      mix(program_version_ + 0x165667b19e3779f9ull);
    for (const auto& b : backends_) {
      h = mix(h ^ b.id);
      h = mix(h ^ b.addr.value());
      h = mix(h ^ static_cast<std::uint64_t>(b.weight_units));
      h = mix(h ^ (b.draining ? 1ull : 0ull));
    }
    return h;
  }

  std::uint64_t seq_ = 0;
  std::uint64_t program_version_ = 0;
  std::vector<GenBackend> backends_;
  std::unordered_map<std::uint64_t, std::size_t> index_by_id_;
  std::unordered_map<std::uint32_t, std::size_t> index_by_addr_;
  const MaglevTable* table_ = nullptr;
  std::shared_ptr<const ExceptionFilter> filter_;
  mutable std::vector<BackendView> views_;  // active_conns patched under pick mutex
  std::unique_ptr<Policy> policy_;
  bool policy_uses_conns_ = false;
  std::uint64_t checksum_ = 0;
};

}  // namespace klb::lb
