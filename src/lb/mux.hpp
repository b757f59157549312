// The MUX: the L4 LB dataplane instance.
//
// A Mux owns a VIP, keeps the connection-affinity state (5-tuple -> stable
// backend id) in a sharded FlowTable (see lb/flow_table.hpp), routes new
// connections through the configured policy, and forwards requests to DIPs
// with the original tuple preserved (encap + direct server return, per
// Fig. 1). FINs flow through the MUX so it can
// maintain per-DIP active connection counts for (W)LC — the proxy-visible
// signal HAProxy uses.
//
// Pool state is published as immutable generations (ROADMAP item 1, the
// RCU-style scheme): every control-plane mutation — a committed
// PoolProgram, a failure, a drain completion, a policy swap — builds a
// fresh lb::PoolGeneration (membership, weights, drain flags, and a
// per-generation policy clone) and swings one atomic pointer to it. The
// packet path pins the current generation through an EpochDomain (one CAS
// + one store per packet, no lock, no allocation), works against that
// frozen snapshot for the duration of the packet, and unpins; superseded
// generations are retired into the domain and freed only once every
// reader that could hold them is provably gone. The packet path therefore
// NEVER takes a lock the control plane can hold: programs commit at full
// traffic rate (bench/mux_hotpath.cpp --churn drives both concurrently).
//
// What still serializes:
//   * control_mutex_ — all control-plane mutations against each other.
//   * pick_mutex_ — picks of policies without a maglev table (stateful
//     policies + the shared RNG) and the per-generation views'
//     active_conns patching. Affinity hits and every decision on a
//     generation with a table (maglev, maglev-shared) bypass it: those
//     resolve from the pinned generation's frozen table. The control plane
//     takes it only for the instants of cloning the old policy into a new
//     generation.
//   * per-shard FlowTable mutexes — affinity state, per shard.
// Lock order: control_mutex_ -> pick_mutex_ -> shard mutex. The packet
// path starts at pick_mutex_ or below, so it can stall on a shard or on a
// concurrent pick, but never on the control plane; an epoch pin is not a
// lock.
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
// do. A new connection is always decided against the
// generation pinned for its packet, so no decision can outlive the pool
// it was made for: a removed, failed, or reweighted DIP is out of the very
// next pick.
//
// Graceful scale-in is first-class: a backend programmed kDraining is
// parked (no new connections) while its pinned flows keep being served.
// Completion is a control-plane action: the FIN (or idle-GC) that empties
// a drainer only *flags* it (note_drain_empty), and the flag is swept by
// an opportunistic try_lock on the spot — uncontended callers (the
// single-threaded simulator always is) complete the drain inline exactly
// as before — or by the next control-plane poll()/mutation otherwise. The
// packet path never blocks on the sweep. fail_backend() stays the abrupt
// path: pinned flows are counted as reset and their clients retry on the
// survivors.
//
// Weight changes only affect *new* connections: pinned connections drain
// naturally, which is precisely the effect §4.7's drain-time estimation has
// to wait out.
//
// Stateless fast path (ROADMAP item 2, lb/consistency.hpp): with a
// ConsistencyConfig{stateless = true} and a maglev-table policy, flows
// whose table slot is unchanged across recent generations are routed by
// hash alone — no FlowTable insert, no FIN state, no GC — and only
// "exception" flows (slots whose pick moved, mid-flow adoptions onto a
// draining backend) are pinned. The hot path stays allocation-free and
// lock-free: pin epoch, read the generation's ExceptionFilter, test one
// bitmap bit + one slot-pin counter, one table read, forward. Drain
// auto-completion additionally waits out consistency.drain_grace_us,
// because a drainer may be serving stateless flows that hold no pin.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lb/consistency.hpp"
#include "lb/epoch.hpp"
#include "lb/flow_table.hpp"
#include "lb/policy.hpp"
#include "lb/pool_generation.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "util/sync.hpp"

namespace klb::lb {

class MaglevTable;

class Mux : public net::Node, public PoolProgrammer {
 public:
  /// With attach_to_vip = false the Mux does not bind the VIP on the
  /// fabric — a MuxPool owns the VIP and steers messages to its member
  /// muxes directly (ECMP sharding). `flow_cfg` sizes the sharded flow
  /// table (a 1-shard config reproduces the old monolithic map — the bench
  /// baseline). `consistency` opts into the stateless fast path
  /// (lb/consistency.hpp); it engages only when the *initial* policy
  /// carries a maglev table (so the slot-pin counters can be sized once,
  /// before any packet), and is ignored with a warning otherwise.
  Mux(net::Network& net, net::IpAddr vip, std::unique_ptr<Policy> policy,
      bool attach_to_vip = true, FlowTableConfig flow_cfg = {},
      ConsistencyConfig consistency = {});
  ~Mux() override;

  net::IpAddr vip() const { return vip_; }

  /// Replace the policy (connection table survives, like a HAProxy
  /// reload). Publishes a new generation carrying the given instance.
  void set_policy(std::unique_ptr<Policy> policy) KLB_EXCLUDES(control_mutex_);

  /// The maglev snapshot the current generation's policy serves, or null
  /// when the policy is not a SharedMaglevPolicy (MuxPool introspection).
  std::shared_ptr<const MaglevTable> shared_table_snapshot() const;

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
  /// `retable` (when set) instead of cloned from the current one: one
  /// publication carries the new membership and its table together.
  void apply_program(const PoolProgram& program, const PolicyForPool& retable)
      KLB_EXCLUDES(control_mutex_);

  /// Deferred control-plane maintenance: complete drains the packet path
  /// flagged, reclaim retired generations. Cheap; call at tick rate.
  void poll() override;

  std::size_t backend_count() const override;
  /// Active (non-draining) backends, registration order.
  std::vector<net::IpAddr> backend_addrs() const override;
  /// Every backend of the current generation, read under one pin: the
  /// indices, addresses, weights and flags all come from one snapshot,
  /// which separate per-index reads cannot promise while a drain sweep
  /// may publish between them.
  std::vector<GenBackend> backends() const;

  /// Version of the last committed transaction (0 = none yet).
  std::uint64_t applied_version() const {
    return applied_version_.load(std::memory_order_relaxed);
  }
  /// Transactions discarded because a newer version had already committed.
  std::uint64_t superseded_programs() const {
    return superseded_programs_.load(std::memory_order_relaxed);
  }
  /// Drains that auto-completed to removal.
  std::uint64_t drains_completed() const {
    return drains_completed_.load(std::memory_order_relaxed);
  }
  std::size_t draining_count() const;

  // --- abrupt failure -------------------------------------------------------

  /// Abrupt death of the backend serving `addr` (host failure): it is
  /// removed now and its pinned flows are counted as reset — their clients
  /// see a connection reset and retry as new flows on the survivors, whose
  /// weights stay exactly as programmed. The address is found under the
  /// control lock, so a concurrent drain sweep cannot shift it. It is also
  /// tombstoned at `condemned_until_version` (default: every version this
  /// dataplane's sequence has issued so far; a MuxPool passes its own
  /// counter): a transaction issued at or before that version predates the
  /// failure observation, so its entry cannot re-admit the corpse at its
  /// old weight while riding out the programming delay — that would
  /// blackhole the dead DIP's hash space until the next post-failure
  /// commit. A transaction issued after the failure re-admits normally
  /// (a deliberate resurrection) and clears the tombstone. A Mux that does
  /// not serve `addr` records only the tombstone and returns false.
  /// `retable`, when set, supplies the policy the failure's generation
  /// carries, built from the surviving pool (see apply_program).
  bool fail_backend(net::IpAddr addr,
                    std::optional<std::uint64_t> condemned_until_version =
                        std::nullopt,
                    const PolicyForPool& retable = nullptr)
      KLB_EXCLUDES(control_mutex_);

  /// Bounds-checked accessors: an out-of-range index is loud (warn +
  /// sentinel) — never UB. Indices name positions in the *current*
  /// generation; a reader that needs several fields of one pool reads one
  /// backends() snapshot instead.
  net::IpAddr backend_addr(std::size_t i) const;
  std::uint64_t backend_id(std::size_t i) const;
  bool backend_draining(std::size_t i) const;
  /// Index currently holding stable id `id`, if the backend still exists.
  std::optional<std::size_t> index_of_id(std::uint64_t id) const;

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
    affinity_idle_us_.store(idle.us(), std::memory_order_relaxed);
  }

  /// Sweep every shard now; returns the number of entries reclaimed.
  std::size_t gc_affinity();

  std::size_t affinity_size() const { return flows_.size(); }
  /// Entries whose backend no longer exists. Always 0 once churn quiesces
  /// — removal drops them eagerly, and the amortized GC mops up any a
  /// straggling reader re-pinned mid-removal — tests assert it after churn.
  std::size_t dangling_affinity_count() const;

  /// The sharded affinity table (shard introspection for tests and
  /// benches).
  const FlowTable& flow_table() const { return flows_; }

  // --- dataplane counters ----------------------------------------------------
  std::uint64_t forwarded_requests(std::size_t i) const;
  std::uint64_t new_connections(std::size_t i) const;
  std::uint64_t active_connections(std::size_t i) const;
  std::uint64_t total_forwarded() const {
    return total_forwarded_.load(std::memory_order_relaxed);
  }
  /// New connections refused because the policy had no usable backend
  /// (clients see a timeout). The testbed asserts this stays zero through
  /// steady phases (ISSUE 5 — it used to be counted but unreadable).
  std::uint64_t no_backend_drops() const {
    return no_backend_drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t flows_reset_by_failure() const {
    return flows_reset_.load(std::memory_order_relaxed);
  }
  std::uint64_t flows_gced_idle() const {
    return flows_gced_.load(std::memory_order_relaxed);
  }
  /// Pinned flows dropped by an abrupt *graceful-path* removal — a
  /// transactional kRemoved or omission from a non-weights-only program —
  /// as opposed to reset-by-failure or drained-to-zero; without this
  /// counter these flows would vanish from every metric.
  std::uint64_t flows_dropped_by_removal() const {
    return flows_dropped_.load(std::memory_order_relaxed);
  }
  /// Program entries skipped because they would have re-admitted a failed
  /// backend from a transaction issued before the failure was observed.
  std::uint64_t stale_failed_admissions() const {
    return stale_failed_admissions_.load(std::memory_order_relaxed);
  }
  void reset_counters() KLB_EXCLUDES(control_mutex_);

  // --- stateless fast path (lb/consistency.hpp) ------------------------------
  /// True when the hybrid stateless/stateful dataplane engaged at
  /// construction (stateless requested + table-bearing policy).
  bool stateless_engaged() const { return slot_pins_ != nullptr; }
  /// Requests routed purely by hash — no FlowTable entry ever existed.
  std::uint64_t stateless_picks() const {
    return stateless_picks_.load(std::memory_order_relaxed);
  }
  /// Flows pinned while the hybrid dataplane is engaged (exception flows).
  std::uint64_t exception_pins() const {
    return exception_pins_.load(std::memory_order_relaxed);
  }
  /// Mid-flow packets whose slot's pick moved and that were adopted onto
  /// their previous backend (each one is a break the filter prevented).
  std::uint64_t affinity_breaks_avoided() const {
    return affinity_breaks_avoided_.load(std::memory_order_relaxed);
  }
  /// Mid-flow packets whose slot's pick moved and whose previous backend
  /// is gone — the flow genuinely re-homed (zero under graceful churn;
  /// failures break flows in stateful mode too).
  std::uint64_t affinity_breaks() const {
    return affinity_breaks_.load(std::memory_order_relaxed);
  }
  /// Table slots flagged exceptional in the current generation's filter.
  std::size_t exception_slots() const;
  /// Live exception pins summed over all slots (O(table) scan).
  std::uint64_t live_exception_pins() const {
    return slot_pins_ ? slot_pins_->total() : 0;
  }

  // --- generation / reclamation observability --------------------------------
  /// Generations published since construction (>= 1: the constructor
  /// publishes the initial empty-pool generation).
  std::uint64_t generations_published() const {
    return generations_published_.load(std::memory_order_relaxed);
  }
  /// Retired generations actually freed. After quiescing + poll() this
  /// equals generations_published() - 1 (only the current one lives).
  std::uint64_t generations_retired() const {
    return epochs_.reclaimed_total();
  }
  /// Retired generations still parked behind a pinned reader.
  std::size_t pending_retired_generations() const {
    return epochs_.pending_retired();
  }
  /// Sequence number of the current generation.
  std::uint64_t generation_seq() const {
    return gen_seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t current_epoch() const { return epochs_.epoch(); }
  std::uint64_t oldest_live_epoch() const {
    return epochs_.oldest_live_epoch();
  }
  /// Pin the current generation and verify its structural checksum — the
  /// concurrency tests call this from a racing thread to assert no torn
  /// publication is ever observable.
  bool debug_check_generation() const;

  // --- net::Node -------------------------------------------------------------
  void on_message(const net::Message& msg) override;
  void on_batch(const net::Message* const* msgs, std::size_t n) override;

  /// Batched packet entry: processes a burst of messages with per-burst
  /// amortization — the epoch pin and generation load happen once, affinity
  /// lookups are grouped to take each FlowTable shard lock once, new
  /// connections resolve lock-free from the generation's maglev table, and
  /// forwarding is grouped per destination DIP into fabric bursts. Counter
  /// outcomes are element-wise identical to handle_request. Policies
  /// without a table (rr/lc family, hash) are processed per packet under
  /// the shared pin so their pick sequence matches the scalar path
  /// exactly. Mixed types allowed: contiguous request runs are batched,
  /// FIN runs are batched separately.
  void handle_batch(const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING KLB_EXCLUDES(control_mutex_, pick_mutex_);

 private:
  /// A pinned read of the current generation: `gen` stays valid until
  /// `guard` releases (scope exit). Everything the packet path does with
  /// pool state happens through one of these.
  struct GenRef {
    EpochDomain::Guard guard;
    const PoolGeneration* gen = nullptr;
  };
  GenRef read_gen() const KLB_NONALLOCATING {
    GenRef r;
    // Pin first, load second: a generation retired after this pin tags
    // above our published epoch, so whatever the load returns cannot be
    // reclaimed under us.
    r.guard = epochs_.pin();
    r.gen = current_.load(std::memory_order_acquire);
    return r;
  }

  /// The scalar entry is the batch-of-1 case: one code path (ISSUE 9).
  void handle_request(const net::Message& msg)
      KLB_NONALLOCATING KLB_EXCLUDES(control_mutex_, pick_mutex_) {
    const net::Message* p = &msg;
    handle_request_chunk(&p, 1);
  }
  /// One pinned, staged pass over up to kBatchChunk requests.
  /// Nonallocating: the slow lanes it may cross are the documented
  /// escapes — "mux.maybe_gc" (amortized sweep), "mux.pick" (stage D,
  /// policies without a table only), "flow.pin_insert" (stage E) and the
  /// FlowTable/fabric sites below.
  void handle_request_chunk(const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING KLB_EXCLUDES(control_mutex_, pick_mutex_);
  /// The staged body, running against an already-pinned generation.
  void process_chunk_pinned(const PoolGeneration& gen, util::SimTime now,
                            const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING KLB_EXCLUDES(control_mutex_, pick_mutex_);
  void handle_fin(const net::Message& msg)
      KLB_NONALLOCATING KLB_EXCLUDES(control_mutex_, pick_mutex_);
  /// Batched FIN run: one erase_batch over the flow shards, one epoch
  /// pin, forwards grouped per destination. Element-wise identical to
  /// handle_fin per message.
  void handle_fin_chunk(const net::Message* const* msgs, std::size_t n)
      KLB_NONALLOCATING KLB_EXCLUDES(control_mutex_, pick_mutex_);
  /// Post-unpin FIN resolution against a pinned generation: which backend
  /// index should see the FIN (nullopt = drop), releasing the connection
  /// and flagging `drain_emptied` when this FIN was a drainer's last.
  std::optional<std::size_t> resolve_fin(const PoolGeneration& gen,
                                         const FlowErase& r,
                                         bool* drain_emptied)
      KLB_NONALLOCATING KLB_EXCLUDES(control_mutex_, pick_mutex_);
  /// Forward `k` messages to backend `i`: per-run counter updates, one
  /// fabric burst. The scalar forward is the k=1 case.
  void forward_run(const PoolGeneration& gen, std::size_t i,
                   const net::Message* const* msgs, std::size_t k)
      KLB_NONALLOCATING;
  /// Stateless resolution: gen.table_route(hash), or nullopt when the
  /// table/pool had no usable answer (the caller falls back to the
  /// stateful path). On success the stateless counters are bumped (openers
  /// count their connection); the caller forwards. Fully lock-free: table
  /// read + relaxed counters.
  std::optional<std::size_t> resolve_stateless(const PoolGeneration& gen,
                                               std::uint64_t hash,
                                               const net::Message& msg)
      KLB_NONBLOCKING;
  /// Decrement backend `i`'s active count (never below zero) and, for
  /// connection-count policies, refresh its view under the pick mutex
  /// (the "mux.release_pick_refresh" escape — skipped entirely for
  /// policies that never read active_conns).
  void release_connection(const PoolGeneration& gen, std::size_t i)
      KLB_NONALLOCATING KLB_EXCLUDES(pick_mutex_);

  /// Build and publish the next generation from `backends`, cloning the
  /// current policy unless `policy_override` supplies one. Swings the
  /// pointer, retires the predecessor. Caller holds control_mutex_ (and
  /// NOT pick_mutex_).
  void publish_locked(std::vector<GenBackend> backends,
                      std::uint64_t program_version,
                      std::unique_ptr<Policy> policy_override = nullptr)
      KLB_REQUIRES(control_mutex_) KLB_EXCLUDES(pick_mutex_);
  /// Copy of the current generation's backends — the draft every
  /// control-plane mutation edits. Caller holds control_mutex_.
  std::vector<GenBackend> draft_locked() const KLB_REQUIRES(control_mutex_) {
    return current_owner_->backends();
  }

  /// True when `b`'s drain may auto-complete: no pinned flows, and (in
  /// stateless mode) the drain grace has elapsed — pin-less flows need
  /// that window to adopt exception pins or FIN before the backend goes.
  bool drain_ripe(const GenBackend& b) const;
  /// Flag "some drainer may have emptied" from the packet path and sweep
  /// it opportunistically (try-lock construction; never blocks).
  /// Uncontended callers — the single-threaded simulator always —
  /// complete the drain inline, inside the "mux.drain_sweep" escape.
  void note_drain_empty() KLB_NONBLOCKING KLB_EXCLUDES(control_mutex_);
  /// Remove every empty drainer in one publication. Caller holds
  /// control_mutex_. No-op when the pending flag is clear.
  void sweep_drains_locked() KLB_REQUIRES(control_mutex_);

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
  util::Rng rng_ KLB_GUARDED_BY(pick_mutex_);

  /// Serializes control-plane mutations against each other. The packet
  /// path never takes it (note_drain_empty only try_locks). Flagged
  /// control-plane: acquiring it while holding an epoch pin is an abort
  /// under KLB_DEBUG_SYNC — its critical sections retire generations, and
  /// a held pin would defer that reclamation forever.
  mutable util::Mutex control_mutex_{"klb.mux.control",
                                     util::LockFlags::kControlPlane};
  /// Serializes picks of policies without a maglev table (stateful
  /// policies + the shared RNG) and the generation views' active_conns
  /// patching. Lock order: pick_mutex_ may be followed by a shard mutex
  /// (pick -> pin), never the reverse — FlowTable callbacks that reenter
  /// the Mux run after the shard lock drops (see FlowTable::gc_shard).
  util::Mutex pick_mutex_{"klb.mux.pick"};

  /// The published generation. Readers pin (epochs_) then acquire-load;
  /// writers store under control_mutex_ and retire the predecessor.
  std::atomic<const PoolGeneration*> current_{nullptr};
  /// Strong ref keeping `current_` alive.
  std::shared_ptr<const PoolGeneration> current_owner_
      KLB_GUARDED_BY(control_mutex_);
  mutable EpochDomain epochs_;

  FlowTable flows_;
  /// Stateless fast path (both null when disengaged — the classic
  /// dataplane). slot_pins_ is sized to the policy's table in the
  /// constructor and never reallocated: the packet path reads it without
  /// synchronization. diff_ runs on the control thread only.
  std::unique_ptr<SlotPinCounts> slot_pins_;
  std::unique_ptr<GenerationDiff> diff_ KLB_GUARDED_BY(control_mutex_);
  /// Failed address -> highest version issued when the failure was
  /// observed. Programs at or below that version cannot re-admit the
  /// address (they predate the failure); newer programs clear the entry.
  std::unordered_map<std::uint32_t, std::uint64_t> failed_tombstones_
      KLB_GUARDED_BY(control_mutex_);
  std::uint64_t next_backend_id_ KLB_GUARDED_BY(control_mutex_) = 1;

  std::atomic<std::int64_t> affinity_idle_us_{0};
  std::atomic<bool> drain_poll_pending_{false};
  std::atomic<std::uint64_t> gen_seq_{0};
  std::atomic<std::uint64_t> generations_published_{0};
  std::atomic<std::uint64_t> requests_since_gc_{0};
  std::atomic<std::uint64_t> gc_cursor_{0};  // next shard the inline GC sweeps
  std::atomic<std::uint64_t> total_forwarded_{0};
  std::atomic<std::uint64_t> no_backend_drops_{0};
  std::atomic<std::uint64_t> drains_completed_{0};
  std::atomic<std::uint64_t> flows_reset_{0};
  std::atomic<std::uint64_t> flows_gced_{0};
  std::atomic<std::uint64_t> flows_dropped_{0};
  std::atomic<std::uint64_t> applied_version_{0};
  std::atomic<std::uint64_t> superseded_programs_{0};
  std::atomic<std::uint64_t> stale_failed_admissions_{0};
  std::atomic<std::uint64_t> stateless_picks_{0};
  std::atomic<std::uint64_t> exception_pins_{0};
  std::atomic<std::uint64_t> affinity_breaks_avoided_{0};
  std::atomic<std::uint64_t> affinity_breaks_{0};
};

}  // namespace klb::lb
