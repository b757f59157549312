// Immutable pool-state generations for the MUX dataplane (ROADMAP item 1).
//
// A PoolGeneration is one committed configuration of a VIP's pool:
// membership, addresses, stable ids, weights, drain flags, and the policy
// instance that serves picks for this configuration. The Mux builds one
// per control-plane mutation (pool program, failure, drain completion,
// policy swap) and swaps it in whole, destroying the previous one — the
// packet path never observes a half-applied configuration.
//
// Two members are deliberately *not* frozen:
//
//   * Per-backend counters (active/connections/forwarded) live in shared
//     BackendCounters blocks keyed by stable id, referenced by every
//     generation that carries the backend — a generation swap must not
//     lose or reset in-flight accounting (a FIN may decrement through a
//     newer generation than the request that incremented).
//   * views() is the policy-facing scratch vector. Its active_conns
//     fields are patched in place for the LC-family policies, exactly as
//     the pre-generation code patched its views cache; everything else in
//     it is fixed at construction.
//
// The structural fields checksum at construction; self_check() recomputes
// and compares, so a test can assert a generation was never corrupted
// after publication (the generation tests do after every publication).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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
/// stable id and aggregated on the control path.
struct BackendCounters {
  std::uint64_t active = 0;
  std::uint64_t connections = 0;  // cumulative new connections
  std::uint64_t forwarded = 0;    // cumulative forwarded requests
  /// Sim time of the last request forwarded while draining (hybrid mode
  /// only; 0 otherwise). Stateless flows hold no pin, so traffic is the
  /// only evidence a drainer still serves them: drain auto-completion
  /// waits until the drainer has been *idle* for the grace window, and
  /// every forwarded packet re-arms it (Mux::drain_ripe).
  std::int64_t last_forward_us = 0;
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

  BackendView view() const {
    return BackendView{addr, weight_units, /*enabled=*/!draining,
                       counters ? counters->active : 0, server};
  }
};

/// Read-only map from a backend key (stable id, or DIP address value) to
/// its position in a generation's backend vector: one flat open-addressing
/// array, built once with the generation and at most half full, probed
/// linearly from a Fibonacci hash. A packet's lookup reads one or two
/// adjacent 16-byte entries instead of walking a hash node.
class BackendIndex {
 public:
  explicit BackendIndex(std::size_t n) {
    std::size_t cap = 2;
    while (cap < 2 * n) cap <<= 1;
    entries_.resize(cap);
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
  }

  /// Map `key` to `idx`; a repeated key takes the later index.
  void set(std::uint64_t key, std::size_t idx) {
    Entry& e = entries_[slot_of(key)];
    e.key = key;
    e.idx = static_cast<std::uint32_t>(idx);
  }

  std::optional<std::size_t> find(std::uint64_t key) const {
    const Entry& e = entries_[slot_of(key)];
    if (e.idx == kEmpty) return std::nullopt;
    return e.idx;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t idx = kEmpty;
  };

  /// The entry holding `key`, or the empty entry where it would go.
  std::size_t slot_of(std::uint64_t key) const {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
    while (entries_[i].idx != kEmpty && entries_[i].key != key)
      i = (i + 1) & mask;
    return i;
  }

  std::vector<Entry> entries_;
  int shift_ = 63;
};

class PoolGeneration {
 public:
  /// `seq` is the Mux's generation sequence number; `program_version` the
  /// last committed transaction. The policy instance becomes
  /// generation-owned: it must already be invalidated for exactly this
  /// backend list, and carry any table built over it.
  PoolGeneration(std::uint64_t seq, std::uint64_t program_version,
                 std::vector<GenBackend> backends,
                 std::unique_ptr<Policy> policy)
      : seq_(seq), program_version_(program_version),
        backends_(std::move(backends)), index_by_id_(backends_.size()),
        index_by_addr_(backends_.size()), policy_(std::move(policy)) {
    views_.reserve(backends_.size());
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      index_by_id_.set(backends_[i].id, i);
      index_by_addr_.set(backends_[i].addr.value(), i);  // last one wins
      views_.push_back(backends_[i].view());
    }
    policy_uses_conns_ = policy_->uses_connection_counts();
    table_ = policy_->maglev_table();  // null without a maglev table
    checksum_ = compute_checksum();
    ++live_count_ref();
  }

  ~PoolGeneration() { --live_count_ref(); }

  PoolGeneration(const PoolGeneration&) = delete;
  PoolGeneration& operator=(const PoolGeneration&) = delete;

  // Read accessors consulted by the packet path: frozen fields and
  // read-only flat-index probes, no allocation.
  std::uint64_t program_version() const { return program_version_; }

  const std::vector<GenBackend>& backends() const { return backends_; }
  std::size_t size() const { return backends_.size(); }

  std::optional<std::size_t> index_of(std::uint64_t id) const {
    return index_by_id_.find(id);
  }

  /// Index by DIP address value — the identity maglev tables resolve to
  /// (stable ids stay dataplane-internal; the table is shared pool-wide).
  std::optional<std::size_t> index_of_addr(std::uint32_t addr) const {
    return index_by_addr_.find(addr);
  }

  /// The maglev table this generation's policy serves, or nullptr. An
  /// immutable snapshot.
  const MaglevTable* maglev_table() const { return table_.get(); }
  /// The same table as a shared snapshot (control path: the exception
  /// diff keeps it, a MuxPool compares it across members).
  const std::shared_ptr<const MaglevTable>& table_snapshot() const {
    return table_;
  }

  /// The one table route of a tuple-deterministic decision: the backend
  /// index the maglev table routes `hash` to, when that backend may take
  /// new connections (not draining, positive weight). nullopt
  /// without a table, for an empty slot, or for an owner this generation
  /// does not carry or has parked. One table read, one frozen index
  /// probe.
  std::optional<std::size_t> table_route(std::uint64_t hash) const {
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
  /// when the stateless fast path is off/disengaged. Set by the Mux
  /// before the generation is published (never after), and destroyed with
  /// the generation.
  const ExceptionFilter* exception_filter() const { return filter_.get(); }
  void set_exception_filter(std::shared_ptr<const ExceptionFilter> f) {
    filter_ = std::move(f);
  }

  /// Policy-facing views, index-aligned with backends(). active_conns is
  /// patched in place by the owning Mux.
  std::vector<BackendView>& views() const { return views_; }

  /// The generation-owned policy. Stateful: only the owning Mux picks.
  Policy& policy() const { return *policy_; }

  // Policy traits cached at construction: no virtual dispatch per packet.
  bool policy_uses_conns() const { return policy_uses_conns_; }

  /// Recompute the structural checksum and compare with the one stamped
  /// at construction — false means a corrupt generation (never expected;
  /// asserted by the generation tests).
  bool self_check() const { return compute_checksum() == checksum_; }

  /// Generations currently alive process-wide (published + drafts under
  /// construction). The generation tests assert this is one per live Mux
  /// after every publication — the no-leak invariant.
  static std::uint64_t live_count() { return live_count_ref(); }

 private:
  static std::uint64_t& live_count_ref() {
    static std::uint64_t count = 0;
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
  BackendIndex index_by_id_;
  BackendIndex index_by_addr_;
  std::shared_ptr<const MaglevTable> table_;
  std::shared_ptr<const ExceptionFilter> filter_;
  mutable std::vector<BackendView> views_;  // active_conns patched by the Mux
  std::unique_ptr<Policy> policy_;
  bool policy_uses_conns_ = false;
  std::uint64_t checksum_ = 0;
};

}  // namespace klb::lb
