// The MUX: the L4 LB dataplane instance.
//
// A Mux owns a VIP, keeps the connection-affinity state (5-tuple -> stable
// backend id) in a FlowTable (see lb/flow_table.hpp), routes new
// connections through the configured policy, and forwards requests to DIPs
// with the original tuple preserved (encap + direct server return, per
// Fig. 1). FINs flow through the MUX so it can
// maintain per-DIP active connection counts for (W)LC — the proxy-visible
// signal HAProxy uses.
//
// Threading: none. One simulation thread drives every Mux — packets,
// programs, failures and polls alike — so nothing here takes a lock or
// touches an atomic.
//
// Pool state is published as immutable generations: every control-plane
// mutation — a committed PoolProgram, a failure, a drain completion, a
// policy swap — builds a fresh lb::PoolGeneration (membership, weights,
// drain flags, and a per-generation policy clone), swaps it in as the one
// current generation and destroys its predecessor. A packet burst works
// against the generation current when it starts; no publication runs
// while it holds that reference (see read_gen), so a burst never observes
// a half-applied pool.
//
// Programming is transactional (see lb/pool_program.hpp) and is the only
// way to change the pool: apply_program() commits a whole desired pool —
// membership, weights, and lifecycle states — atomically, and discards any
// transaction older than the last one committed. Parking a backend means
// programming it at weight 0; there is no separate enable flag, and no
// rescale ever rewrites programmed weights. The one mutation outside a
// program is fail_backend(addr), the dataplane observing a death. Backends
// carry a stable id from registration to removal, so the affinity state
// survives pool churn — indices shift when a backend is removed, ids never
// do. A new connection is always decided against the current generation,
// so no decision can outlive the pool it was made for: a removed, failed,
// or reweighted DIP is out of the very next pick.
//
// Graceful scale-in is first-class: a backend programmed kDraining is
// parked (no new connections) while its pinned flows keep being served.
// The FIN (or idle-GC) that empties a drainer completes the drain on the
// spot (note_drain_empty), after the packet path has let go of its
// generation; a drain still inside its stateless grace window completes
// at a later poll(). fail_backend() stays the abrupt path: pinned flows
// are counted as reset and their clients retry on the survivors.
//
// Weight changes only affect *new* connections: pinned connections drain
// naturally, which is precisely the effect §4.7's drain-time estimation has
// to wait out.
//
// Stateless fast path (lb/consistency.hpp): with a
// ConsistencyConfig{stateless = true} and a maglev-table policy, flows
// whose table slot is unchanged across recent generations are routed by
// hash alone — no FlowTable insert, no FIN state, no GC — and only
// "exception" flows (slots whose pick moved, mid-flow adoptions onto a
// draining backend) are pinned. The hot path stays allocation-free: read
// the generation's ExceptionFilter, test one bitmap bit + one slot-pin
// counter, one table read, forward. Drain auto-completion additionally
// waits out consistency.drain_grace_us, because a drainer may be serving
// stateless flows that hold no pin.
//
// Counters: one system. counters() reads every cumulative counter as one
// DataplaneCounters value. They count from construction and never reset —
// a measurement window is the difference of two snapshots. Instantaneous
// gauges (affinity_size, draining_count, pending_retired_generations,
// live_exception_pins, exception_slots) keep their own accessors: a delta
// of a gauge means nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lb/consistency.hpp"
#include "lb/flow_table.hpp"
#include "lb/policy.hpp"
#include "lb/pool_generation.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"

namespace klb::lb {

class MaglevTable;

/// The dataplane's cumulative counters, read as one snapshot
/// (Mux::counters, MuxPool::counters, Testbed::dataplane_counters). Every
/// field only grows; `+=` aggregates snapshots, `-` turns two into a delta.
struct DataplaneCounters {
  /// Requests forwarded to a backend.
  std::uint64_t total_forwarded = 0;
  /// New connections refused because the policy had no usable backend
  /// (clients see a timeout). The testbed asserts this stays zero through
  /// steady phases.
  std::uint64_t no_backend_drops = 0;
  /// Drains that auto-completed to removal.
  std::uint64_t drains_completed = 0;
  /// Pinned flows reset by an abrupt backend failure (their clients
  /// retry on the survivors).
  std::uint64_t flows_reset_by_failure = 0;
  /// Affinity entries reclaimed by idle-flow GC.
  std::uint64_t flows_gced_idle = 0;
  /// Pinned flows dropped by an abrupt *graceful-path* removal — a
  /// transactional kRemoved or omission from a non-weights-only program —
  /// as opposed to reset-by-failure or drained-to-zero; without this
  /// counter these flows would vanish from every metric.
  std::uint64_t flows_dropped_by_removal = 0;
  /// Transactions discarded because a newer version had already committed
  /// (a MuxPool counts its one pool-wide version check).
  std::uint64_t superseded_programs = 0;
  /// Program entries skipped because they would have re-admitted a failed
  /// backend from a transaction issued before the failure was observed.
  std::uint64_t stale_failed_admissions = 0;
  /// Requests routed purely by hash — no FlowTable entry ever existed.
  std::uint64_t stateless_picks = 0;
  /// Flows pinned while the hybrid dataplane is engaged (exception flows).
  std::uint64_t exception_pins = 0;
  /// Mid-flow packets whose slot's pick moved and that were adopted onto
  /// their previous backend (each one is a break the filter prevented).
  std::uint64_t affinity_breaks_avoided = 0;
  /// Mid-flow packets whose slot's pick moved and whose previous backend
  /// is gone — the flow genuinely re-homed (zero under graceful churn;
  /// failures break flows in stateful mode too).
  std::uint64_t affinity_breaks = 0;
  /// Generations published since construction (>= 1 per Mux: the
  /// constructor publishes the initial empty-pool generation).
  std::uint64_t generations_published = 0;
  /// Superseded generations destroyed: always generations_published - 1
  /// per Mux (a publication destroys its predecessor).
  std::uint64_t generations_retired = 0;

  DataplaneCounters& operator+=(const DataplaneCounters& o);
  friend DataplaneCounters operator-(DataplaneCounters a,
                                     const DataplaneCounters& b);
  friend bool operator==(const DataplaneCounters& a,
                         const DataplaneCounters& b);
};

class Mux : public net::Node, public PoolProgrammer {
 public:
  /// With attach_to_vip = false the Mux does not bind the VIP on the
  /// fabric — a MuxPool owns the VIP and steers messages to its member
  /// muxes directly (ECMP sharding). `flow_cfg` sizes the flow table.
  /// `consistency` opts into the stateless fast path
  /// (lb/consistency.hpp); it engages only when the *initial* policy
  /// carries a maglev table (so the slot-pin counters can be sized once,
  /// before any packet), and is ignored with a warning otherwise.
  Mux(net::Network& net, net::IpAddr vip, std::unique_ptr<Policy> policy,
      bool attach_to_vip = true, FlowTableConfig flow_cfg = {},
      ConsistencyConfig consistency = {});
  ~Mux() override;

  net::IpAddr vip() const { return vip_; }

  /// Replace the policy (connection table survives, like a HAProxy
  /// reload). Publishes a new generation carrying the given instance; a
  /// maglev policy's table only names the geometry, and the generation
  /// serves a table built over the current pool at it (build_table).
  void set_policy(std::unique_ptr<Policy> policy);

  /// The maglev snapshot the current generation serves, or null when its
  /// policy has no table (MuxPool introspection).
  std::shared_ptr<const MaglevTable> table_snapshot() const;

  // --- transactional programming (PoolProgrammer) ----------------------------

  /// Commit a whole-pool transaction immediately (the programming delay
  /// lives in LbController). Stale versions (<= the last committed one)
  /// are discarded whole and counted. Semantics per entry:
  ///   kActive   — in rotation at the programmed weight (added if new),
  ///   kDraining — parked at 0, pinned flows drain, auto-removed when the
  ///               last affinity entry goes,
  ///   kRemoved  — removed now (affinity dropped, clients reconnect).
  /// A served backend the program omits is removed — unless it is already
  /// draining, in which case the drain continues.
  void apply_program(const PoolProgram& program) override {
    apply_program(program, nullptr);
  }

  /// Supplies the policy a generation carries, built from the generation's
  /// final backend list. A MuxPool passes one so a shared table lands in
  /// the same publication as the membership it was built from.
  using PolicyForPool =
      std::function<std::unique_ptr<Policy>(const std::vector<GenBackend>&)>;

  /// apply_program, with the committed generation's policy taken from
  /// `retable` when set. Unset, a maglev Mux builds its own table over
  /// the final pool and any other policy is cloned: either way one
  /// publication carries the new membership and its table together.
  void apply_program(const PoolProgram& program, const PolicyForPool& retable);

  /// set_policy, with the policy `retable` supplies for the current pool
  /// (a MuxPool member that has no other publication to carry the pool's
  /// new table).
  void set_policy(const PolicyForPool& retable);

  /// Deferred control-plane maintenance: complete drains whose stateless
  /// grace window has run out. Cheap; call at tick rate.
  void poll() override;

  std::size_t backend_count() const override;
  /// Active (non-draining) backends, registration order.
  std::vector<net::IpAddr> backend_addrs() const override;
  /// Every backend of the current generation: the indices, addresses,
  /// weights and flags all come from one snapshot, which separate
  /// per-index reads cannot promise across a drain sweep's publication.
  std::vector<GenBackend> backends() const;

  /// Version of the last committed transaction (0 = none yet).
  std::uint64_t applied_version() const { return applied_version_; }
  std::size_t draining_count() const;

  // --- abrupt failure -------------------------------------------------------

  /// Abrupt death of the backend serving `addr` (host failure): it is
  /// removed now and its pinned flows are counted as reset — their clients
  /// see a connection reset and retry as new flows on the survivors, whose
  /// weights stay exactly as programmed. It is also tombstoned at
  /// `condemned_until_version` (default: every version this dataplane's
  /// sequence has issued so far; a MuxPool passes its own counter): a
  /// transaction issued at or before that version predates the
  /// failure observation, so its entry cannot re-admit the corpse at its
  /// old weight while riding out the programming delay — that would
  /// blackhole the dead DIP's hash space until the next post-failure
  /// commit. A transaction issued after the failure re-admits normally
  /// (a deliberate resurrection) and clears the tombstone. A Mux that does
  /// not serve `addr` records only the tombstone and returns false.
  /// `retable`, when set, supplies the policy the failure's generation
  /// carries, built from the surviving pool; unset, a maglev Mux builds
  /// its own (see apply_program).
  bool fail_backend(net::IpAddr addr,
                    std::optional<std::uint64_t> condemned_until_version =
                        std::nullopt,
                    const PolicyForPool& retable = nullptr);

  /// Bounds-checked accessor: an out-of-range index is loud (warn +
  /// sentinel) — never UB. The index names a position in the *current*
  /// generation; a reader that needs several fields of one pool (ids,
  /// drain flags, per-backend counters) reads one backends() snapshot.
  net::IpAddr backend_addr(std::size_t i) const;

  /// Programmed weights (grid units, util::kWeightScale = 1.0), one entry
  /// per backend in registration order; drainers read 0.
  std::vector<std::int64_t> weight_units() const;

  // --- affinity state --------------------------------------------------------

  /// Enable idle-flow GC: affinity entries with no request for `idle` are
  /// reclaimed (flows that never FIN). Zero (the default) disables it.
  /// Inline sweeps run one shard at a time, amortized so the whole table
  /// is covered every ~few thousand forwarded requests; explicit
  /// gc_affinity() calls sweep everything.
  void set_affinity_idle_timeout(util::SimTime idle) {
    affinity_idle_us_ = idle.us();
  }

  /// Sweep every shard now; returns the number of entries reclaimed.
  std::size_t gc_affinity();

  std::size_t affinity_size() const { return flows_.size(); }
  /// Entries whose backend no longer exists. Always 0: removal drops them
  /// eagerly — tests assert it after churn.
  std::size_t dangling_affinity_count() const;

  /// The affinity table (shard introspection for tests and benches).
  const FlowTable& flow_table() const { return flows_; }

  // --- dataplane counters ----------------------------------------------------
  /// Every cumulative counter, read now (see DataplaneCounters).
  DataplaneCounters counters() const;

  // --- stateless fast path (lb/consistency.hpp) ------------------------------
  /// True when the hybrid stateless/stateful dataplane engaged at
  /// construction (stateless requested + table-bearing policy).
  bool stateless_engaged() const { return slot_pins_ != nullptr; }
  /// Table slots flagged exceptional in the current generation's filter.
  std::size_t exception_slots() const;
  /// Live exception pins summed over all slots (O(table) scan).
  std::uint64_t live_exception_pins() const {
    return slot_pins_ ? slot_pins_->total() : 0;
  }

  // --- generation / reclamation observability --------------------------------
  // benchmark/ is the only caller of these two; read counters() instead.
  std::uint64_t generations_published() const {
    return counters().generations_published;
  }
  std::uint64_t generations_retired() const {
    return counters().generations_retired;
  }
  /// Superseded generations not yet destroyed: always 0, since a
  /// publication destroys its predecessor.
  std::size_t pending_retired_generations() const { return 0; }
  /// Sequence number of the current generation.
  std::uint64_t generation_seq() const { return gen_seq_; }
  /// The current generation (tests check its invariants after each
  /// publication).
  const PoolGeneration& generation() const { return *current_; }

  // --- net::Node -------------------------------------------------------------
  /// The scalar entry is the batch of 1: one code path.
  void on_message(const net::Message& msg) override {
    const net::Message* p = &msg;
    handle_batch(&p, 1);
  }
  void on_batch(const net::Message* const* msgs, std::size_t n) override {
    handle_batch(msgs, n);
  }

  /// Batched packet entry: processes a burst of messages with per-burst
  /// amortization — the generation is read once, new connections resolve
  /// from the generation's maglev table, and forwarding is grouped per
  /// destination DIP into fabric bursts. Counter outcomes are element-wise
  /// identical to on_message per packet (the scalar entry is the batch of
  /// 1). Policies without a table (rr/lc family, hash) are processed per
  /// packet so their pick sequence matches the scalar path exactly. Mixed
  /// types allowed: contiguous request runs are batched, FIN runs are
  /// batched separately.
  void handle_batch(const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING;

 private:
  /// The current generation, for one packet burst or one read. The
  /// reference stays valid until the next publication, and no publication
  /// runs while the packet path holds one: maybe_gc runs before a chunk's
  /// read_gen, and gc_shard and handle_fin_chunk call note_drain_empty
  /// (which may publish) only after they drop theirs. Keep that rule: a
  /// publication destroys the generation it replaces.
  const PoolGeneration& read_gen() const KLB_NONBLOCKING { return *current_; }

  /// One staged pass over up to kBatchChunk requests against the current
  /// generation. Nonallocating: the slow lanes it may cross are the
  /// documented escapes — "mux.maybe_gc" (amortized sweep), "mux.pick"
  /// (stage D, policies without a table only), "flow.pin_insert" (stage E)
  /// and the fabric sites below.
  void handle_request_chunk(const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING;
  /// The staged body, running against `gen`.
  void process_chunk(const PoolGeneration& gen, util::SimTime now,
                     const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING;
  /// Batched FIN run: one erase_batch over the flow shards, forwards
  /// grouped per destination. A scalar FIN is the run of 1.
  void handle_fin_chunk(const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING;
  /// Forward `k` messages to backend `i`: per-run counter updates, one
  /// fabric burst. The scalar forward is the k=1 case.
  void forward_run(const PoolGeneration& gen, std::size_t i,
                   const net::Message* const* msgs, std::size_t k)
      KLB_NONALLOCATING;
  /// Stateless resolution: gen.table_route(hash), or nullopt when the
  /// table/pool had no usable answer (the caller falls back to the
  /// stateful path). On success the stateless counters are bumped (openers
  /// count their connection); the caller forwards.
  std::optional<std::size_t> resolve_stateless(const PoolGeneration& gen,
                                               std::uint64_t hash,
                                               const net::Message& msg)
      KLB_NONBLOCKING;
  /// Decrement backend `i`'s active count (never below zero) and, for
  /// connection-count policies, refresh its view.
  void release_connection(const PoolGeneration& gen, std::size_t i)
      KLB_NONBLOCKING;

  /// Build and publish the next generation from `backends`, cloning the
  /// current policy unless `policy_override` supplies one (a clone of a
  /// maglev policy aliases its snapshot: what a drain completion serves,
  /// since drainers own no slots). Swaps it in and destroys the
  /// predecessor, so no generation reference may be live (see read_gen).
  void publish(std::vector<GenBackend> backends, std::uint64_t program_version,
               std::unique_ptr<Policy> policy_override = nullptr);
  /// The policy a membership or weight change publishes over `pool`:
  /// `retable`'s when set, else a table built over `pool` at the current
  /// geometry when the current generation serves one, else null (clone).
  std::unique_ptr<Policy> policy_for(const std::vector<GenBackend>& pool,
                                     const PolicyForPool& retable) const;
  /// Copy of the current generation's backends — the draft every
  /// control-plane mutation edits.
  std::vector<GenBackend> draft() const { return current_->backends(); }

  /// True when `b`'s drain may auto-complete: no pinned flows, and (in
  /// stateless mode) the drain grace has elapsed — pin-less flows need
  /// that window to adopt exception pins or FIN before the backend goes.
  bool drain_ripe(const GenBackend& b) const;
  /// Flag "some drainer may have emptied" from the packet path and sweep
  /// it now, inside the "mux.drain_sweep" escape. Call only with no
  /// generation reference live.
  void note_drain_empty() KLB_NONBLOCKING;
  /// Remove every empty drainer in one publication. No-op when the
  /// pending flag is clear.
  void sweep_drains();

  void drop_affinity_for(std::uint64_t id, bool count_as_reset);
  /// Amortized inline GC accounting for a batch of `batch` requests (the
  /// scalar path passes 1): one counter add and at most one shard sweep
  /// per call.
  void maybe_gc(std::uint64_t batch = 1);
  /// Sweep one flow-table shard (dead + idle entries) and flag any drain
  /// the sweep emptied. `max_scan` bounds the entries examined (see
  /// FlowTable::gc_shard): inline packet-path sweeps pass kScanBudgeted so
  /// no packet ever pays for a full shard at 10M flows; explicit
  /// gc_affinity() passes kScanAll.
  std::size_t gc_shard(std::size_t k,
                       std::size_t max_scan = FlowTable::kScanAll);

  net::Network& net_;
  net::IpAddr vip_;
  bool attached_ = false;
  ConsistencyConfig consistency_;
  util::Rng rng_;

  /// The published generation; never null after construction.
  std::unique_ptr<const PoolGeneration> current_;

  FlowTable flows_;
  /// Stateless fast path (both null when disengaged — the classic
  /// dataplane). slot_pins_ is sized to the policy's table in the
  /// constructor and never reallocated.
  std::unique_ptr<SlotPinCounts> slot_pins_;
  std::unique_ptr<GenerationDiff> diff_;
  /// Failed address -> highest version issued when the failure was
  /// observed. Programs at or below that version cannot re-admit the
  /// address (they predate the failure); newer programs clear the entry.
  std::unordered_map<std::uint32_t, std::uint64_t> failed_tombstones_;
  std::uint64_t next_backend_id_ = 1;

  std::int64_t affinity_idle_us_ = 0;
  bool drain_poll_pending_ = false;
  std::uint64_t gen_seq_ = 0;
  std::uint64_t generations_published_ = 0;
  std::uint64_t generations_retired_ = 0;
  std::uint64_t requests_since_gc_ = 0;
  std::uint64_t gc_cursor_ = 0;  // next shard the inline GC sweeps
  std::uint64_t total_forwarded_ = 0;
  std::uint64_t no_backend_drops_ = 0;
  std::uint64_t drains_completed_ = 0;
  std::uint64_t flows_reset_ = 0;
  std::uint64_t flows_gced_ = 0;
  std::uint64_t flows_dropped_ = 0;
  std::uint64_t applied_version_ = 0;
  std::uint64_t superseded_programs_ = 0;
  std::uint64_t stale_failed_admissions_ = 0;
  std::uint64_t stateless_picks_ = 0;
  std::uint64_t exception_pins_ = 0;
  std::uint64_t affinity_breaks_avoided_ = 0;
  std::uint64_t affinity_breaks_ = 0;
};

}  // namespace klb::lb
