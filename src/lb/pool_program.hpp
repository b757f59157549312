// Transactional, id-keyed dataplane programming (the redesigned Fig. 6
// "LB controller" contract).
//
// KnapsackLB's controller only ever talks to the LB through a weight
// interface. The first cut of that interface was index-positional and
// one-op-at-a-time (program_weights by registration order, add/remove by
// index, each op with its own delay), so a membership/weights sequence
// could interleave into transient misprograms. The redesign makes every
// programming a *transaction*: a PoolProgram describes the entire desired
// pool — each backend keyed by its DIP address, with a weight and a
// lifecycle state — and the dataplane applies it atomically. Versions are
// monotonic; a stale in-flight transaction that commits after a newer one
// is discarded whole, so the old size-mismatch race is structurally
// unreachable (there is nothing partial to apply).
//
// It is also the only way to change a dataplane's pool: a Mux has no
// imperative add/remove/reweight/enable knobs beside it. The one other
// mutation is Mux/MuxPool::fail_backend, an abrupt death the dataplane
// observes by address.
#pragma once

#include <cstdint>
#include <vector>

#include "net/address.hpp"

namespace klb::server {
class DipServer;
}

namespace klb::lb {

/// Desired lifecycle state of one backend within a transaction.
enum class BackendState : std::uint8_t {
  /// In rotation at `weight_units`.
  kActive,
  /// Graceful scale-in: parked at weight 0 (no new connections), pinned
  /// flows keep draining; the dataplane auto-completes the backend to
  /// removed once its affinity entries empty. A draining backend no longer
  /// belongs to the desired pool: later transactions simply omit it and
  /// the drain continues. Re-listing it as kActive cancels the drain.
  kDraining,
  /// Immediate graceful removal (cut a drain short / decommission now):
  /// affinity entries are dropped, clients reconnect via the policy.
  kRemoved,
};

/// One backend of the desired pool. Keyed by DIP address — the one name
/// the controller and every dataplane agree on; the MUX maps it to its
/// own stable backend id internally.
struct PoolEntry {
  net::IpAddr dip;
  std::int64_t weight_units = 0;  // consulted only for kActive
  BackendState state = BackendState::kActive;
  /// Optional, non-owning: the server behind `dip`, which only the
  /// power-of-two-choices policy reads (its CPU). Copied into the backend
  /// when this entry admits it; ignored for backends already served.
  const server::DipServer* server = nullptr;
};

/// A whole-pool transaction. Entries list the complete desired pool in a
/// stable order (keeping relative order stable across versions is what
/// lets the maglev build stay minimally disruptive); a backend the
/// dataplane serves but the program omits is removed — unless it is
/// already draining, in which case the drain runs to completion.
struct PoolProgram {
  std::uint64_t version = 0;
  std::vector<PoolEntry> entries;
  /// Partial transaction: update the listed backends' weights/states
  /// atomically but leave unlisted backends untouched — no
  /// omission-removal, no admission of unknown DIPs. For secondary
  /// writers (the drain estimator) that reweight a pool they do not own
  /// the membership of: a membership change racing through the
  /// programming delay is not silently reverted by their stale view.
  bool weights_only = false;

  PoolProgram() = default;
  explicit PoolProgram(std::uint64_t v) : version(v) {}

  PoolProgram& add(net::IpAddr dip, std::int64_t weight_units,
                   BackendState state = BackendState::kActive,
                   const server::DipServer* server = nullptr) {
    entries.push_back(PoolEntry{dip, weight_units, state, server});
    return *this;
  }
};

/// Anything that can serve a pool programmed this way: a MUX, an
/// ECMP-sharded MUX pool, a DNS traffic manager, a recording sink, or the
/// LbController decorator that adds the programming delay.
class PoolProgrammer {
 public:
  virtual ~PoolProgrammer() = default;

  /// Backends currently served (active + still-draining).
  virtual std::size_t backend_count() const = 0;

  /// Addresses of the backends in the desired pool (active, registration
  /// order; draining leftovers excluded) — the view an emitter bases its
  /// next full-pool transaction on.
  virtual std::vector<net::IpAddr> backend_addrs() const = 0;

  /// Apply the transaction after an implementation-specific delay. Later
  /// versions monotonically supersede in-flight ones: a dataplane that
  /// already committed version v discards any program with version <= v.
  virtual void apply_program(const PoolProgram& program) = 0;

  /// Periodic control-plane maintenance hook. Dataplanes that defer work
  /// off the packet path (the Mux's drain auto-completion and retired
  /// generation reclamation) run it here; the default is a no-op. Called
  /// from the controller's tick and safe to call at any frequency.
  virtual void poll() {}

  /// Stamp the next transaction. All emitters programming through one
  /// interface share this counter, so supersession is totally ordered
  /// even with several writers (controller + drain estimator). Decorators
  /// (LbController) override it to delegate to the wrapped dataplane, so
  /// direct and decorated emitters draw from the same sequence.
  virtual std::uint64_t issue_version() { return ++issued_versions_; }
  std::uint64_t issued_versions() const { return issued_versions_; }

 private:
  std::uint64_t issued_versions_ = 0;
};

}  // namespace klb::lb
