// Multi-MUX VIP pool: N Mux instances ECMP-sharded over one VIP.
//
// Real L4 deployments announce a VIP from a fleet of MUXes and let the
// routers ECMP-spray flows across them (Ananta/Maglev). Two properties
// make that safe here:
//
//   1. One Maglev build per program version, shared by every mux. The
//      pool builds a single weighted MaglevTable from each committed
//      PoolProgram and publishes it to all members as an immutable
//      shared_ptr<const> snapshot (pointer-equal across the pool), so any
//      two muxes pick the same DIP for the same 5-tuple — a flow that ECMP
//      re-shards to a different mux (router churn) still reaches its DIP
//      even before an affinity entry exists there. This is also N-1 fewer
//      O(table) builds per programming.
//   2. Transactions commit pool-wide: apply_program runs the version check
//      once and applies the same program to every member, so the members
//      can never serve different versions. Each member publishes the new
//      membership and the new shared table in ONE generation, so no packet
//      sees a backend drained or parked while the table still names it.
//      fail_backend likewise drops the corpse and its table slots at once.
//
// The ECMP hash is salted differently from the maglev hash, so shard
// choice and backend choice stay statistically independent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "util/sync.hpp"

namespace klb::lb {

class MuxPool : public net::Node, public PoolProgrammer {
 public:
  /// Build `mux_count` muxes behind `vip`. The pool binds the VIP; the
  /// members are detached and run the shared-snapshot maglev policy.
  /// `flow_cfg` sizes each member's flow table (expected_flows is split
  /// evenly across members — ECMP spreads the flow space uniformly);
  /// `consistency` opts every member into the stateless fast path. The
  /// pool hands each member policy an empty table of min_table_size before
  /// construction, so hybrid engagement (which must size its slot-pin
  /// counters in the Mux constructor) works even though the first real
  /// table is only built at the first commit.
  MuxPool(net::Network& net, net::IpAddr vip, std::size_t mux_count,
          std::size_t min_table_size = MaglevTable::kDefaultMinSize,
          FlowTableConfig flow_cfg = {}, ConsistencyConfig consistency = {});
  ~MuxPool() override;

  MuxPool(const MuxPool&) = delete;
  MuxPool& operator=(const MuxPool&) = delete;

  net::IpAddr vip() const { return vip_; }
  std::size_t mux_count() const { return muxes_.size(); }
  Mux& mux(std::size_t k) { return *muxes_[k]; }
  const Mux& mux(std::size_t k) const { return *muxes_[k]; }

  /// Shard index a tuple ECMP-hashes to (exposed for tests).
  std::size_t shard_of(const net::FiveTuple& tuple) const;

  /// The maglev snapshot mux `k` currently serves. Pointer-equal across
  /// all members after every commit — the single-shared-build invariant.
  /// By value: the snapshot is read out of the member's current pool
  /// generation, which a concurrent commit may retire at any moment.
  std::shared_ptr<const MaglevTable> table_snapshot(std::size_t k) const;

  // --- PoolProgrammer --------------------------------------------------------
  /// Backends served by the pool (the maximum over members: a drain may
  /// complete on one mux while another still serves pinned flows).
  std::size_t backend_count() const override;
  std::vector<net::IpAddr> backend_addrs() const override;
  void apply_program(const PoolProgram& program) override;
  /// Deferred maintenance fan-out (drain completion, generation reclaim).
  void poll() override;

  std::uint64_t applied_version() const KLB_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return applied_version_;
  }
  std::uint64_t superseded_programs() const KLB_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return superseded_programs_;
  }
  /// Shared maglev builds (one per committed version, not per mux).
  std::uint64_t shared_builds() const KLB_EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return shared_builds_;
  }

  /// Abrupt backend death observed by the dataplane (host failure): drops
  /// `dip` from every member (each finds it by address under its own
  /// control lock), counting pinned flows as reset — the counterpart of a
  /// graceful kDraining program. Returns true if any member still served
  /// the DIP.
  bool fail_backend(net::IpAddr dip) KLB_EXCLUDES(mu_);

  // --- aggregated dataplane counters -----------------------------------------
  std::uint64_t total_forwarded() const;
  std::uint64_t flows_reset_by_failure() const;
  /// New connections refused pool-wide (no usable backend on the owning
  /// shard's member) — the testbed's no-drop invariant reads this.
  std::uint64_t no_backend_drops() const;
  /// Pinned flows dropped by abrupt graceful-path removals pool-wide (see
  /// Mux::flows_dropped_by_removal).
  std::uint64_t flows_dropped_by_removal() const;
  std::uint64_t drains_completed() const;
  /// Backends still parked in the draining state, summed over members (a
  /// drain completes per member as its pinned flows empty).
  std::size_t draining_count() const;
  std::size_t affinity_size() const;
  /// New connections landed on `dip` across all members (one backends()
  /// snapshot per member).
  std::uint64_t new_connections_to(net::IpAddr dip) const;
  /// Stale pre-failure program entries refused pool-wide (see
  /// Mux::stale_failed_admissions).
  std::uint64_t stale_failed_admissions() const;
  /// Pool-state generations published / reclaimed, summed over members
  /// (see Mux::generations_published / generations_retired).
  std::uint64_t generations_published() const;
  std::uint64_t generations_retired() const;
  std::size_t pending_retired_generations() const;

  // --- stateless fast path (lb/consistency.hpp), summed over members ----------
  /// True when every member engaged the hybrid dataplane.
  bool stateless_engaged() const;
  std::uint64_t stateless_picks() const;
  std::uint64_t exception_pins() const;
  std::uint64_t affinity_breaks_avoided() const;
  std::uint64_t affinity_breaks() const;
  /// Flow-table footprint aggregated over members (bench/flow_memory.cpp
  /// gates the stateless-vs-stateful byte ratio on this).
  FlowTableMemory flow_memory() const;

  // --- net::Node -------------------------------------------------------------
  void on_message(const net::Message& msg) override;
  /// Batched ECMP dispatch: partitions the burst by member shard and hands
  /// each member its sub-burst through Mux::handle_batch, preserving the
  /// burst's relative order within a shard.
  void on_batch(const net::Message* const* msgs, std::size_t n) override;

 private:
  /// The members' shared-table hook for one commit or failure: the first
  /// call builds the table into `table` from that member's final pool,
  /// every call returns a policy serving it. Runs under each member's
  /// control lock while the caller holds mu_ (klb.muxpool.control ->
  /// klb.mux.control is the legal order, never the reverse).
  Mux::PolicyForPool retable_into(
      std::shared_ptr<const MaglevTable>& table) const;

  net::Network& net_;
  net::IpAddr vip_;
  std::size_t min_table_size_;
  std::vector<std::unique_ptr<Mux>> muxes_;
  /// Serializes pool-wide commits/failures against each other and guards
  /// the version bookkeeping below.
  mutable util::Mutex mu_{"klb.muxpool.control",
                          util::LockFlags::kControlPlane};
  std::uint64_t applied_version_ KLB_GUARDED_BY(mu_) = 0;
  std::uint64_t superseded_programs_ KLB_GUARDED_BY(mu_) = 0;
  std::uint64_t shared_builds_ KLB_GUARDED_BY(mu_) = 0;
};

}  // namespace klb::lb
