// Multi-MUX VIP pool: N Mux instances ECMP-sharded over one VIP.
//
// Real L4 deployments announce a VIP from a fleet of MUXes and let the
// routers ECMP-spray flows across them (Ananta/Maglev). Two properties
// make that safe here:
//
//   1. One Maglev build per program version, shared by every mux. Like a
//      standalone Mux, the pool builds each table with build_table
//      (lb/maglev.hpp), but once per committed PoolProgram, and hands it
//      to all members through the retable hook as one immutable snapshot
//      (pointer-equal across the pool), so any two muxes pick the same DIP
//      for the same 5-tuple — a flow that ECMP re-shards to a different
//      mux (router churn) still reaches its DIP even before an affinity
//      entry exists there. This is also N-1 fewer O(table) builds per
//      programming.
//   2. Transactions commit pool-wide: apply_program runs the version check
//      once and applies the same program to every member, so the members
//      can never serve different versions. Each member publishes the new
//      membership and the new shared table in ONE generation, so no packet
//      sees a backend drained or parked while the table still names it.
//      fail_backend likewise drops the corpse and its table slots at once.
//
// The ECMP hash is salted differently from the maglev hash, so shard
// choice and backend choice stay statistically independent.
//
// counters() is the members' cumulative DataplaneCounters summed field-wise
// (see lb/mux.hpp); gauges (draining_count, affinity_size, ...) are summed
// by their own accessors.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lb/maglev.hpp"
#include "lb/mux.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"

namespace klb::lb {

class MuxPool : public net::Node, public PoolProgrammer {
 public:
  /// Build `mux_count` muxes behind `vip`. The pool binds the VIP; the
  /// members are detached and run the maglev policy at min_table_size's
  /// geometry. `flow_cfg` sizes each member's flow table (expected_flows
  /// is split evenly across members — ECMP spreads the flow space
  /// uniformly); `consistency` opts every member into the stateless fast
  /// path.
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
  /// generation, which the next commit destroys.
  std::shared_ptr<const MaglevTable> table_snapshot(std::size_t k) const;

  // --- PoolProgrammer --------------------------------------------------------
  /// Backends served by the pool (the maximum over members: a drain may
  /// complete on one mux while another still serves pinned flows).
  std::size_t backend_count() const override;
  std::vector<net::IpAddr> backend_addrs() const override;
  void apply_program(const PoolProgram& program) override;
  /// Deferred maintenance fan-out (grace-deferred drain completion).
  void poll() override;

  std::uint64_t applied_version() const { return applied_version_; }
  /// Shared maglev builds (one per committed version, not per mux).
  std::uint64_t shared_builds() const { return shared_builds_; }

  /// Abrupt backend death observed by the dataplane (host failure): drops
  /// `dip` from every member (each finds it by address), counting pinned
  /// flows as reset — the counterpart of a
  /// graceful kDraining program. Returns true if any member still served
  /// the DIP.
  bool fail_backend(net::IpAddr dip);

  // --- dataplane counters ----------------------------------------------------
  /// The members' counters summed field-wise, except superseded_programs:
  /// the pool runs the one version check, so that is the pool's own count
  /// (members are never offered a stale program).
  DataplaneCounters counters() const;
  // benchmark/ is the only caller of these three; read counters() instead.
  std::uint64_t no_backend_drops() const { return counters().no_backend_drops; }
  std::uint64_t drains_completed() const { return counters().drains_completed; }
  std::uint64_t generations_published() const {
    return counters().generations_published;
  }

  // --- gauges and per-DIP reads, over members --------------------------------
  /// Backends still parked in the draining state (a drain completes per
  /// member as its pinned flows empty).
  std::size_t draining_count() const;
  std::size_t affinity_size() const;
  std::size_t pending_retired_generations() const;
  /// True when every member engaged the hybrid dataplane.
  bool stateless_engaged() const;
  /// New connections landed on `dip` across all members (one backends()
  /// snapshot per member).
  std::uint64_t new_connections_to(net::IpAddr dip) const;

  // --- net::Node -------------------------------------------------------------
  void on_message(const net::Message& msg) override;
  /// Batched ECMP dispatch: partitions the burst by member shard and hands
  /// each member its sub-burst through Mux::handle_batch, preserving the
  /// burst's relative order within a shard. Stack scratch only: a burst
  /// over 64 packets is dispatched 64 at a time.
  void on_batch(const net::Message* const* msgs, std::size_t n) override;

 private:
  /// The members' shared-table hook for one commit or failure: the first
  /// call builds the table into `table` from that member's final pool,
  /// every call returns a policy serving it.
  Mux::PolicyForPool retable_into(
      std::shared_ptr<const MaglevTable>& table) const;

  net::Network& net_;
  net::IpAddr vip_;
  std::size_t min_table_size_;
  std::vector<std::unique_ptr<Mux>> muxes_;
  std::uint64_t applied_version_ = 0;
  std::uint64_t superseded_programs_ = 0;
  std::uint64_t shared_builds_ = 0;
};

}  // namespace klb::lb
