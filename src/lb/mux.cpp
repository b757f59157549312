#include "lb/mux.hpp"

#include <algorithm>
#include <tuple>

#include "lb/maglev.hpp"
#include "util/logging.hpp"

namespace klb::lb {

namespace {
constexpr const char* kLog = "klb-mux";
/// Inline idle-flow sweeps are amortized so the whole table is covered
/// once per this many forwarded requests (one shard per trigger), keeping
/// the GC O(1)-ish per packet and shard-local.
constexpr std::uint64_t kGcRequestInterval = 4096;
/// Batched requests are staged through stack scratch of this many lanes:
/// big enough to amortize the per-burst costs (epoch pin, shard locks),
/// small enough to live comfortably on the stack.
constexpr std::size_t kBatchChunk = 32;

/// The owner `hash`'s slot displaced, when the filter remembers one and
/// the generation's table now picks someone else — where the slot's
/// pre-change stateless flows actually live. kNoOwner otherwise.
/// `filter` rides `gen`, so gen has a table of the filter's size.
std::uint32_t displaced_owner(const PoolGeneration& gen,
                              const ExceptionFilter& filter,
                              std::uint64_t hash) KLB_NONBLOCKING {
  const auto prev = filter.prev_owner(
      static_cast<std::size_t>(hash % filter.table_size()));
  if (prev == ExceptionFilter::kNoOwner) return prev;
  const auto pick = gen.maglev_table()->lookup_id(hash);
  return pick != MaglevTable::kNoId && static_cast<std::uint32_t>(pick) == prev
             ? ExceptionFilter::kNoOwner
             : prev;
}
}  // namespace

Mux::Mux(net::Network& net, net::IpAddr vip, std::unique_ptr<Policy> policy,
         bool attach_to_vip, FlowTableConfig flow_cfg,
         ConsistencyConfig consistency)
    : net_(net), vip_(vip), attached_(attach_to_vip),
      consistency_(consistency), rng_(net.sim().rng().fork()),
      flows_(flow_cfg) {
  if (consistency_.stateless) {
    // Engage the hybrid dataplane now or never: the slot-pin counters are
    // sized to the policy's table before any packet can arrive, so the
    // packet path reads slot_pins_ without synchronization, and every pin
    // ever inserted is slot-counted (exact counts even across later
    // policy swaps — a filterless generation pins everything, and those
    // pins still inc/dec their slots).
    const auto* table = policy->maglev_table();
    if (table != nullptr && table->table_size() > 0) {
      slot_pins_ = std::make_unique<SlotPinCounts>(table->table_size());
      diff_ = std::make_unique<GenerationDiff>(consistency_);
    } else {
      util::log_warn(kLog)
          << "stateless fast path requested but policy '" << policy->name()
          << "' has no maglev table; running fully stateful";
    }
  }
  // Debug wiring: pins must never be taken under THIS mux's control lock,
  // and only pointers announced at the publication site may be retired.
  epochs_.debug_register_control(&control_mutex_);
  epochs_.debug_track_published();
  // Publish the initial empty-pool generation: the packet path may assume
  // current_ is never null.
  util::MutexLock lk(control_mutex_);
  publish_locked({}, /*program_version=*/0, std::move(policy));
  if (attached_) net_.attach(vip_, this);
}

Mux::~Mux() {
  if (attached_) net_.attach(vip_, nullptr);
}

void Mux::set_policy(std::unique_ptr<Policy> policy) {
  util::MutexLock lk(control_mutex_);
  publish_locked(draft_locked(), applied_version(), std::move(policy));
}

std::shared_ptr<const MaglevTable> Mux::shared_table_snapshot() const {
  auto ref = read_gen();
  const auto* shared =
      dynamic_cast<const SharedMaglevPolicy*>(&ref.gen->policy());
  // Reading without pick_mutex_ is safe: a published generation's policy
  // never has set_table called on it again — the snapshot is frozen at
  // publication.
  return shared ? shared->table_snapshot() : nullptr;
}

// --- generation publication ----------------------------------------------------

void Mux::publish_locked(std::vector<GenBackend> backends,
                         std::uint64_t program_version,
                         std::unique_ptr<Policy> policy_override) {
  const auto seq = gen_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::unique_ptr<Policy> policy;
  if (policy_override) {
    policy = std::move(policy_override);
  } else {
    // Clone under the pick mutex: concurrent picks mutate policy state
    // (rotation counters, smoothing credits) and the clone must be a
    // consistent snapshot of it.
    util::MutexLock lk(pick_mutex_);
    policy = current_owner_->policy().clone();
  }
  policy->invalidate();
  auto gen = std::make_shared<PoolGeneration>(seq, program_version,
                                              std::move(backends),
                                              std::move(policy));
  // Eager per-pool state build (maglev's table fill) on the control
  // thread: no reader can see this generation yet, so no lock is needed,
  // and the first pick against it pays nothing extra under pick_mutex_.
  gen->policy().prepare(gen->views());

  // Hybrid dataplane: diff the freshly built table against the history
  // and attach the exception filter — still before publication, so the
  // packet path sees generation + filter as one atomic unit. A policy
  // without a table (or with incomparable geometry) publishes without a
  // filter: every flow pins, exactly the classic dataplane.
  if (const auto* table = gen->maglev_table();
      diff_ && table != nullptr && table->table_size() == slot_pins_->size())
    gen->set_exception_filter(diff_->on_publish(*table, seq));

  epochs_.debug_mark_published(gen.get());
  current_.store(gen.get(), std::memory_order_release);
  auto old = std::move(current_owner_);
  current_owner_ = std::move(gen);
  generations_published_.fetch_add(1, std::memory_order_relaxed);
  // Retire only after the swap: the epoch tag then proves any reader
  // pinned at or above it can only be holding the new generation.
  if (old) epochs_.retire(std::shared_ptr<const void>(std::move(old)));
}

void Mux::poll() {
  if (drain_poll_pending_.load(std::memory_order_acquire)) {
    util::MutexLock lk(control_mutex_);
    sweep_drains_locked();
  }
  epochs_.reclaim();
}

void Mux::note_drain_empty() KLB_NONBLOCKING {
  drain_poll_pending_.store(true, std::memory_order_release);
  // Opportunistic sweep: never block the packet path on the control
  // mutex. Uncontended (the single-threaded simulator always is) this
  // completes the drain inline, preserving the pre-generation timing; a
  // busy control plane picks the flag up in its own mutation or poll().
  util::MutexLock lk(control_mutex_, util::kTryToLock);
  if (lk) KLB_EFFECT_ESCAPE("mux.drain_sweep", sweep_drains_locked());
}

bool Mux::drain_ripe(const GenBackend& b) const {
  if (!b.draining) return false;
  if (b.counters->active.load(std::memory_order_relaxed) != 0) return false;
  // Hybrid dataplane: the drainer's stateless flows hold no pin, so an
  // empty active count does not prove it idle — their traffic is the only
  // evidence they exist. The drain completes once the drainer has been
  // *quiescent* (no forwarded requests) for the grace window; every packet
  // it serves re-arms the window (forward() stamps last_forward_us), so a
  // live stateless flow keeps its backend for as long as its inter-packet
  // gaps stay under the grace. Flows silent for longer adopt on their next
  // packet if the filter still remembers the drain, and break otherwise —
  // the documented stateless trade (lb/consistency.hpp).
  if (!slot_pins_) return true;
  const auto last =
      std::max(b.drain_since_us,
               b.counters->last_forward_us.load(std::memory_order_relaxed));
  return net_.sim().now().us() - last >= consistency_.drain_grace_us;
}

void Mux::sweep_drains_locked() {
  if (!drain_poll_pending_.exchange(false, std::memory_order_acq_rel)) return;
  auto draft = draft_locked();
  std::vector<std::uint64_t> done;
  bool grace_pending = false;
  for (auto it = draft.begin(); it != draft.end();) {
    if (drain_ripe(*it)) {
      util::log_info(kLog) << "backend " << it->addr.str()
                           << " drained; completing removal";
      done.push_back(it->id);
      it = draft.erase(it);
    } else {
      if (it->draining &&
          it->counters->active.load(std::memory_order_relaxed) == 0)
        grace_pending = true;
      ++it;
    }
  }
  if (grace_pending) {
    // An idle drainer inside its grace window: re-arm so the next poll()
    // re-checks — the FIN that emptied it will not fire again.
    drain_poll_pending_.store(true, std::memory_order_release);
  }
  if (done.empty()) return;
  drains_completed_.fetch_add(done.size(), std::memory_order_relaxed);
  publish_locked(std::move(draft), applied_version());
  // The drain completed with zero pinned flows; this only mops up affinity
  // entries a straggling reader may have re-pinned mid-completion.
  for (const auto id : done) drop_affinity_for(id, /*count_as_reset=*/false);
}

// --- transactional programming -------------------------------------------------

void Mux::apply_program(const PoolProgram& program,
                        const PolicyForPool& retable) {
  util::MutexLock lk(control_mutex_);
  if (program.version <= applied_version()) {
    superseded_programs_.fetch_add(1, std::memory_order_relaxed);
    util::log_warn(kLog) << "discarding stale pool program v"
                         << program.version << " (pool already at v"
                         << applied_version() << ")";
    return;
  }
  applied_version_.store(program.version, std::memory_order_relaxed);

  auto draft = draft_locked();

  // Reconciliation is keyed by DIP address — the one name the emitter and
  // the dataplane agree on; stable ids stay dataplane-internal.
  std::unordered_map<std::uint32_t, const PoolEntry*> desired;
  for (const auto& e : program.entries) desired[e.dip.value()] = &e;

  std::vector<std::uint64_t> to_remove;  // stable ids, graceful removal
  for (auto& b : draft) {
    const auto it = desired.find(b.addr.value());
    // Absent from the desired pool: removed — unless the program is
    // weights-only (it does not own membership) or the backend is already
    // draining, in which case the drain keeps running to completion.
    // Addresses are unique in the pool (admission below consumes each
    // entry once), so every entry matches at most one backend.
    if (it == desired.end()) {
      if (!program.weights_only && !b.draining) to_remove.push_back(b.id);
      continue;
    }
    switch (it->second->state) {
      case BackendState::kActive: {
        const auto units = it->second->weight_units;
        b.weight_units = units < 0 ? 0 : units;
        b.draining = false;  // re-listing a drainer as Active cancels it
        break;
      }
      case BackendState::kDraining:
        b.weight_units = 0;
        if (!b.draining) b.drain_since_us = net_.sim().now().us();
        b.draining = true;
        break;
      case BackendState::kRemoved:
        to_remove.push_back(b.id);
        break;
    }
    it->second = nullptr;  // consumed: not a newcomer
  }

  // Admit newcomers in program order (keeps the pool's relative order in
  // step with the program's, which the maglev build's minimal-disruption
  // property relies on). Weights-only programs admit nothing.
  for (const auto& e : program.entries) {
    if (program.weights_only) break;
    const auto it = desired.find(e.dip.value());
    if (it == desired.end() || it->second == nullptr) continue;
    it->second = nullptr;  // a duplicate entry admits one backend, not two
    if (e.state != BackendState::kActive) continue;  // nothing to condemn
    const auto tomb = failed_tombstones_.find(e.dip.value());
    if (tomb != failed_tombstones_.end()) {
      if (program.version <= tomb->second) {
        // Issued before the failure was observed: a stale view of the
        // pool, not a deliberate resurrection. Admitting it would steer
        // the dead DIP's hash share into a black hole until the next
        // post-failure commit.
        stale_failed_admissions_.fetch_add(1, std::memory_order_relaxed);
        util::log_warn(kLog)
            << "program v" << program.version << " re-lists failed backend "
            << e.dip.str() << " (condemned at v" << tomb->second
            << "); skipping entry";
        continue;
      }
      failed_tombstones_.erase(tomb);  // post-failure program: readmit
    }
    GenBackend b;
    b.id = next_backend_id_++;
    b.addr = e.dip;
    b.server = e.server;
    b.weight_units = e.weight_units < 0 ? 0 : e.weight_units;
    b.counters = std::make_shared<BackendCounters>();
    draft.push_back(std::move(b));
  }

  // (removed id, counted-as-dropped) — affinity drops run after the new
  // generation is live, so the packet path stops forwarding to a removed
  // backend before its entries disappear.
  std::vector<std::uint64_t> dropped_ids;
  for (const auto id : to_remove) {
    for (auto it = draft.begin(); it != draft.end(); ++it) {
      if (it->id != id) continue;
      draft.erase(it);
      dropped_ids.push_back(id);
      break;
    }
  }

  // A drain with no pinned flows completes in the same transaction —
  // unless the hybrid dataplane's grace is still running (see drain_ripe).
  for (auto it = draft.begin(); it != draft.end();) {
    if (drain_ripe(*it)) {
      drains_completed_.fetch_add(1, std::memory_order_relaxed);
      dropped_ids.push_back(it->id);
      it = draft.erase(it);
    } else {
      if (it->draining &&
          it->counters->active.load(std::memory_order_relaxed) == 0)
        drain_poll_pending_.store(true, std::memory_order_release);
      ++it;
    }
  }

  // Weights apply literally — the transaction declares the whole pool, so
  // there is nothing to rescale.
  auto policy = retable ? retable(draft) : nullptr;
  publish_locked(std::move(draft), program.version, std::move(policy));
  for (const auto id : dropped_ids) drop_affinity_for(id, false);
}

std::size_t Mux::backend_count() const {
  auto ref = read_gen();
  return ref.gen->size();
}

std::vector<net::IpAddr> Mux::backend_addrs() const {
  auto ref = read_gen();
  std::vector<net::IpAddr> out;
  out.reserve(ref.gen->size());
  for (const auto& b : ref.gen->backends())
    if (!b.draining) out.push_back(b.addr);
  return out;
}

std::vector<GenBackend> Mux::backends() const {
  auto ref = read_gen();
  return ref.gen->backends();
}

std::size_t Mux::draining_count() const {
  auto ref = read_gen();
  std::size_t n = 0;
  for (const auto& b : ref.gen->backends())
    if (b.draining) ++n;
  return n;
}

// --- abrupt failure ------------------------------------------------------------

bool Mux::fail_backend(net::IpAddr addr,
                       std::optional<std::uint64_t> condemned_until_version,
                       const PolicyForPool& retable) {
  util::MutexLock lk(control_mutex_);
  // Tombstone the address against every transaction issued up to the
  // failure observation: one of them may still be riding the programming
  // delay, and committing it must not resurrect the corpse.
  failed_tombstones_[addr.value()] = condemned_until_version
                                         ? *condemned_until_version
                                         : issued_versions();
  const auto i = current_owner_->index_of_addr(addr.value());
  if (!i) return false;
  auto draft = draft_locked();
  const auto id = draft[*i].id;
  util::log_warn(kLog) << "backend " << addr.str() << " failed; resetting "
                       << draft[*i].counters->active.load(
                              std::memory_order_relaxed)
                       << " pinned flows";
  draft.erase(draft.begin() + static_cast<std::ptrdiff_t>(*i));
  auto policy = retable ? retable(draft) : nullptr;
  publish_locked(std::move(draft), applied_version(), std::move(policy));
  drop_affinity_for(id, /*count_as_reset=*/true);
  return true;
}

void Mux::drop_affinity_for(std::uint64_t id, bool count_as_reset) {
  const auto n = flows_.erase_backend(
      id, !slot_pins_ ? std::function<void(const net::FiveTuple&)>{}
                      : [this](const net::FiveTuple& t) {
                          slot_pins_->dec(static_cast<std::size_t>(
                              net::hash_tuple(t) % slot_pins_->size()));
                        });
  if (n == 0) return;
  if (count_as_reset) {
    flows_reset_.fetch_add(n, std::memory_order_relaxed);
  } else {
    // Graceful-path abrupt drop (transactional kRemoved or omission): not
    // a failure reset, not a drained-to-zero — without its own counter
    // these flows vanish from every metric.
    flows_dropped_.fetch_add(n, std::memory_order_relaxed);
  }
}

std::optional<std::size_t> Mux::index_of_id(std::uint64_t id) const {
  auto ref = read_gen();
  return ref.gen->index_of(id);
}

// --- bounds-checked accessors --------------------------------------------------

net::IpAddr Mux::backend_addr(std::size_t i) const {
  auto ref = read_gen();
  if (i >= ref.gen->size()) {
    util::log_warn(kLog) << "backend_addr(" << i << ") out of range ("
                         << ref.gen->size() << " backends)";
    return net::IpAddr{};
  }
  return ref.gen->backends()[i].addr;
}

std::uint64_t Mux::backend_id(std::size_t i) const {
  auto ref = read_gen();
  if (i >= ref.gen->size()) {
    util::log_warn(kLog) << "backend_id(" << i << ") out of range ("
                         << ref.gen->size() << " backends)";
    return 0;
  }
  return ref.gen->backends()[i].id;
}

bool Mux::backend_draining(std::size_t i) const {
  auto ref = read_gen();
  return i < ref.gen->size() && ref.gen->backends()[i].draining;
}

std::uint64_t Mux::forwarded_requests(std::size_t i) const {
  auto ref = read_gen();
  return i < ref.gen->size()
             ? ref.gen->backends()[i].counters->forwarded.load(
                   std::memory_order_relaxed)
             : 0;
}

std::uint64_t Mux::new_connections(std::size_t i) const {
  auto ref = read_gen();
  return i < ref.gen->size()
             ? ref.gen->backends()[i].counters->connections.load(
                   std::memory_order_relaxed)
             : 0;
}

std::uint64_t Mux::active_connections(std::size_t i) const {
  auto ref = read_gen();
  return i < ref.gen->size()
             ? ref.gen->backends()[i].counters->active.load(
                   std::memory_order_relaxed)
             : 0;
}

std::vector<std::int64_t> Mux::weight_units() const {
  auto ref = read_gen();
  std::vector<std::int64_t> out(ref.gen->size());
  for (std::size_t i = 0; i < ref.gen->size(); ++i)
    out[i] = ref.gen->backends()[i].weight_units;
  return out;
}

void Mux::reset_counters() {
  util::MutexLock lk(control_mutex_);
  for (const auto& b : current_owner_->backends()) {
    b.counters->connections.store(0, std::memory_order_relaxed);
    b.counters->forwarded.store(0, std::memory_order_relaxed);
  }
  total_forwarded_.store(0, std::memory_order_relaxed);
  no_backend_drops_.store(0, std::memory_order_relaxed);
  drains_completed_.store(0, std::memory_order_relaxed);
  flows_reset_.store(0, std::memory_order_relaxed);
  flows_gced_.store(0, std::memory_order_relaxed);
  flows_dropped_.store(0, std::memory_order_relaxed);
  superseded_programs_.store(0, std::memory_order_relaxed);
  stale_failed_admissions_.store(0, std::memory_order_relaxed);
  stateless_picks_.store(0, std::memory_order_relaxed);
  exception_pins_.store(0, std::memory_order_relaxed);
  affinity_breaks_avoided_.store(0, std::memory_order_relaxed);
  affinity_breaks_.store(0, std::memory_order_relaxed);
}

std::size_t Mux::exception_slots() const {
  auto ref = read_gen();
  const auto* f = ref.gen->exception_filter();
  return f ? f->exception_slots() : 0;
}

std::size_t Mux::dangling_affinity_count() const {
  auto ref = read_gen();
  const auto* gen = ref.gen;
  std::size_t n = 0;
  flows_.for_each([&](const net::FiveTuple&, std::uint64_t id, util::SimTime) {
    if (!gen->index_of(id)) ++n;
  });
  return n;
}

bool Mux::debug_check_generation() const {
  auto ref = read_gen();
  return ref.gen != nullptr && ref.gen->self_check();
}

// --- affinity GC ---------------------------------------------------------------

std::size_t Mux::gc_shard(std::size_t k, std::size_t max_scan) {
  const auto now = net_.sim().now();
  const auto idle = util::SimTime::micros(
      affinity_idle_us_.load(std::memory_order_relaxed));
  bool drain_emptied = false;
  std::size_t reclaimed = 0;
  {
    auto ref = read_gen();
    const auto* gen = ref.gen;
    reclaimed = flows_.gc_shard(
        k, now, idle,
        [gen](std::uint64_t id) { return gen->index_of(id).has_value(); },
        // Runs after the shard lock drops (FlowTable contract), so taking
        // the pick mutex inside release_connection cannot deadlock against
        // a concurrent pick -> pin.
        [this, gen](const net::FiveTuple& t, std::uint64_t id, bool dead) {
          flows_gced_.fetch_add(1, std::memory_order_relaxed);
          if (slot_pins_)
            slot_pins_->dec(static_cast<std::size_t>(net::hash_tuple(t) %
                                                     slot_pins_->size()));
          if (dead) return;  // a live backend loses a flow that never FIN'd
          if (const auto idx = gen->index_of(id))
            release_connection(*gen, *idx);
        },
        max_scan);
    // The GC may have reclaimed a drainer's last flow (FIN-less clients
    // are exactly what would otherwise wedge a graceful scale-in forever).
    for (const auto& b : gen->backends()) {
      if (b.draining &&
          b.counters->active.load(std::memory_order_relaxed) == 0) {
        drain_emptied = true;
        break;
      }
    }
  }
  // Flag outside the pin: completing the drain publishes + retires, and
  // our own pinned slot must not defer the reclamation it triggers.
  if (drain_emptied) note_drain_empty();
  return reclaimed;
}

std::size_t Mux::gc_affinity() {
  std::size_t reclaimed = 0;
  for (std::size_t k = 0; k < flows_.shard_count(); ++k)
    reclaimed += gc_shard(k, FlowTable::kScanAll);
  return reclaimed;
}

void Mux::maybe_gc(std::uint64_t batch) {
  if (affinity_idle_us_.load(std::memory_order_relaxed) <= 0) return;
  // One shard per trigger: the whole table is covered once per
  // kGcRequestInterval forwarded requests, but no single packet (or batch)
  // ever pays for more than one shard's sweep.
  const auto interval =
      std::max<std::uint64_t>(1, kGcRequestInterval / flows_.shard_count());
  if (requests_since_gc_.fetch_add(batch, std::memory_order_relaxed) + batch <
      interval)
    return;
  requests_since_gc_.store(0, std::memory_order_relaxed);
  gc_shard(gc_cursor_.fetch_add(1, std::memory_order_relaxed) %
               flows_.shard_count(),
           FlowTable::kScanBudgeted);
}

// --- packet path ---------------------------------------------------------------

void Mux::on_message(const net::Message& msg) {
  switch (msg.type) {
    case net::MsgType::kHttpRequest:
      handle_request(msg);
      break;
    case net::MsgType::kFin:
      handle_fin(msg);
      break;
    default:
      break;
  }
}

void Mux::on_batch(const net::Message* const* msgs, std::size_t n) {
  handle_batch(msgs, n);
}

void Mux::handle_batch(const net::Message* const* msgs, std::size_t n)
    KLB_NONALLOCATING {
  std::size_t i = 0;
  while (i < n) {
    if (msgs[i]->type == net::MsgType::kHttpRequest) {
      // Contiguous request run: staged, chunked to the stack scratch size.
      std::size_t j = i + 1;
      while (j < n && msgs[j]->type == net::MsgType::kHttpRequest) ++j;
      for (std::size_t off = i; off < j; off += kBatchChunk)
        handle_request_chunk(msgs + off, std::min(kBatchChunk, j - off));
      i = j;
    } else if (msgs[i]->type == net::MsgType::kFin) {
      // Contiguous FIN run: batched unpin (one shard lock per run, one
      // epoch pin, grouped forwards), same chunking.
      std::size_t j = i + 1;
      while (j < n && msgs[j]->type == net::MsgType::kFin) ++j;
      for (std::size_t off = i; off < j; off += kBatchChunk)
        handle_fin_chunk(msgs + off, std::min(kBatchChunk, j - off));
      i = j;
    } else {
      ++i;
    }
  }
}

void Mux::forward_run(const PoolGeneration& gen, std::size_t i,
                      const net::Message* const* msgs, std::size_t k)
    KLB_NONALLOCATING {
  const auto& b = gen.backends()[i];
  b.counters->forwarded.fetch_add(k, std::memory_order_relaxed);
  // Quiescence evidence for stateless drains (drain_ripe): only drainers
  // pay the stamp, so the steady-state hot path is untouched.
  if (slot_pins_ && b.draining)
    b.counters->last_forward_us.store(net_.sim().now().us(),
                                      std::memory_order_relaxed);
  total_forwarded_.fetch_add(k, std::memory_order_relaxed);
  net_.send_burst(b.addr, msgs, k);  // original tuples preserved (encap)
}

std::optional<std::size_t> Mux::resolve_stateless(const PoolGeneration& gen,
                                                  std::uint64_t hash,
                                                  const net::Message& msg)
    KLB_NONBLOCKING {
  const auto idx = gen.table_route(hash);
  if (!idx) return std::nullopt;
  const auto& b = gen.backends()[*idx];
  stateless_picks_.fetch_add(1, std::memory_order_relaxed);
  if (msg.req_id <= 1) {
    // Opener: the connection exists even though no pin ever will — the
    // cumulative count keeps stateless and stateful accounting
    // comparable. `active` deliberately stays untouched: it counts pins,
    // which is what drains wait on.
    b.counters->connections.fetch_add(1, std::memory_order_relaxed);
  }
  return idx;
}

void Mux::handle_request_chunk(const net::Message* const* msgs,
                               std::size_t n) KLB_NONALLOCATING {
  // Amortized idle-flow GC: at most one budgeted shard sweep per
  // gc-interval of forwarded requests, never per packet.
  KLB_EFFECT_ESCAPE("mux.maybe_gc", maybe_gc(n));
  const auto now = net_.sim().now();
  // Pin the current generation once for the whole chunk: every index below
  // names a position in THIS snapshot, immune to concurrent publications.
  // A pick computed here may race a commit and land on a just-reweighted
  // backend — bounded by one burst, the same window a real dataplane's
  // config swap has.
  auto ref = read_gen();
  const PoolGeneration& gen = *ref.gen;
  if (n > 1 && gen.maglev_table() == nullptr) {
    // Policies without a table pick under the pick mutex, and most of them
    // (rr/wrr/lc/random family) mutate pick state per packet: process the
    // burst per packet under the shared pin so the pick sequence is exactly
    // the scalar path's.
    for (std::size_t i = 0; i < n; ++i)
      process_chunk_pinned(gen, now, msgs + i, 1);
    return;
  }
  process_chunk_pinned(gen, now, msgs, n);
}

void Mux::process_chunk_pinned(const PoolGeneration& gen, util::SimTime now,
                               const net::Message* const* msgs,
                               std::size_t n) KLB_NONALLOCATING {
  // Per-packet scratch. Deliberately no default member initializers: only
  // the first n lanes are touched, so the batch-of-1 (scalar) case pays
  // for one lane, not kBatchChunk.
  struct Lane {
    std::uint64_t hash;
    std::uint64_t backend_id;  // stable id to pin (valid when dip set)
    std::uint64_t owner;       // try_insert winner
    std::size_t dip;           // resolved backend index or kNoBackend
    std::uint32_t slot;        // hybrid slot (valid when slot_pins_)
    std::uint8_t st;
    bool exception;
    bool adopted;  // mid-flow exception pin: not a new connection
    bool fresh;
  };
  enum : std::uint8_t {
    kForwardOnly,  // dip resolved, no pin wanted (stateless/affinity hit)
    kNeedLookup,   // awaiting the grouped affinity lookup
    kNeedPick,     // stage-D policy pick required (no table)
    kNeedPin,      // dip + id resolved, try_insert pending
    kPinned,       // insert done (possibly losing to a concurrent winner)
    kDropped,      // no usable backend: client times out
  };
  Lane lanes[kBatchChunk];
  FlowLookup lookups[kBatchChunk];
  std::uint32_t lookup_lane[kBatchChunk];

  // --- stage A: hash + stateless fast-path classification (lock-free) ------
  // One hash, one bitmap bit, one relaxed counter read, one table read per
  // packet: no lock, no allocation, no FlowTable traffic. A slot is
  // exceptional when its pick changed recently (the filter) or while
  // pinned flows live on it (the live counter — pins may outlive the
  // filter window, and a pinned flow must never be rerouted by hash).
  // A filter only ever rides a generation with a table (publish_locked).
  const MaglevTable* table = gen.maglev_table();
  const ExceptionFilter* filter = gen.exception_filter();
  std::size_t need_lookup = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Lane& ln = lanes[i];
    const net::Message& m = *msgs[i];
    ln.hash = net::hash_tuple(m.tuple);
    ln.backend_id = 0;
    ln.owner = 0;
    ln.dip = kNoBackend;
    ln.slot = 0;
    ln.exception = false;
    ln.adopted = false;
    ln.fresh = false;
    if (slot_pins_) {
      ln.slot = static_cast<std::uint32_t>(ln.hash % slot_pins_->size());
      if (filter != nullptr) {
        if (filter->is_exception(ln.slot) || slot_pins_->count(ln.slot) > 0) {
          ln.exception = true;
        } else if (const auto idx = resolve_stateless(gen, ln.hash, m)) {
          ln.dip = *idx;
          ln.st = kForwardOnly;
          continue;
        }
        // Unflagged but unroutable (empty slot, stale view): fall through —
        // the stateful path decides, and any pin it creates flags the slot
        // through its live count.
      }
    }
    ln.st = kNeedLookup;
    lookups[need_lookup].tuple = &m.tuple;
    lookups[need_lookup].hash = ln.hash;
    lookup_lane[need_lookup] = static_cast<std::uint32_t>(i);
    ++need_lookup;
  }

  // --- stage B: grouped affinity lookup (one lock per touched shard) -------
  flows_.lookup_batch(lookups, need_lookup, now);

  // --- stage C: per-packet resolution, lock-free ---------------------------
  bool any_pick = false;
  for (std::size_t j = 0; j < need_lookup; ++j) {
    Lane& ln = lanes[lookup_lane[j]];
    const net::Message& m = *msgs[lookup_lane[j]];
    if (lookups[j].hit.kind == FlowHit::Kind::kAffinity) {
      // Connection affinity: pinned regardless of weights — unless the
      // backend died since (defensive; removal drops its entries eagerly).
      // Draining backends keep serving their pinned flows: that is the
      // whole point of the graceful scale-in.
      if (const auto idx = gen.index_of(lookups[j].hit.backend_id)) {
        ln.dip = *idx;
        ln.st = kForwardOnly;
        continue;
      }
      if (flows_.erase(m.tuple).has_value() && slot_pins_)
        slot_pins_->dec(ln.slot);
    }
    if (ln.exception && m.req_id > 1) {
      // Mid-flow on a flagged slot with no pin for this tuple. Openers skip
      // this and PIN to the current pick below (the "filter miss -> pin"
      // arm): served statelessly they would be indistinguishable, mid-flow,
      // from the pre-change flows the filter remembers, and the adoption
      // here would re-home them onto an owner they never had. The pin is
      // the disambiguation — exactly as long-lived as the flow, not the
      // slot's flag.
      const auto prev = displaced_owner(gen, *filter, ln.hash);
      if (prev == ExceptionFilter::kNoOwner) {
        // The slot is flagged but its pick did not move away from this
        // flow's owner (pin-held slot, or a change that has already been
        // reverted): the current pick IS the flow's backend — serve it
        // statelessly rather than pinning it for life.
        if (const auto idx = resolve_stateless(gen, ln.hash, m)) {
          ln.dip = *idx;
          ln.st = kForwardOnly;
          continue;
        }
      } else if (const auto pidx = gen.index_of_addr(prev)) {
        // Adopt: pin the flow to the backend that was serving it before
        // the slot's pick moved (for a graceful drain, the drainer — which
        // keeps serving pinned flows). This is the break the whole
        // subsystem exists to avoid.
        affinity_breaks_avoided_.fetch_add(1, std::memory_order_relaxed);
        ln.dip = *pidx;
        ln.backend_id = gen.backends()[ln.dip].id;
        ln.adopted = true;
      } else {
        // The previous owner is gone (failure / completed removal): the
        // flow genuinely re-homes onto the current pick, pinned so it does
        // not break again.
        affinity_breaks_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (ln.dip == kNoBackend && table != nullptr) {
      // A new (or re-homed) connection on a table-bearing generation: the
      // pick is a pure function of the hash and this pinned, frozen table,
      // so it resolves here — no pick mutex, no virtual call.
      if (const auto idx = gen.table_route(ln.hash)) {
        ln.dip = *idx;
        ln.backend_id = gen.backends()[ln.dip].id;
      } else {
        no_backend_drops_.fetch_add(1, std::memory_order_relaxed);
        ln.st = kDropped;  // connection refused; client times out
        continue;
      }
    }
    if (ln.dip != kNoBackend) {
      ln.st = kNeedPin;
    } else {
      ln.st = kNeedPick;
      any_pick = true;
    }
  }

  // --- stage D: policy pick under pick_mutex_ ------------------------------
  // The carved-out slow lane of the request path, reached only by
  // policies without a maglev table (rr/lc/random/p2/hash families), whose
  // chunks are single packets (handle_request_chunk): the pick mutex is a
  // blocking lock, the pick itself is a virtual call (policies may rebuild
  // caches), and the LC-family pin inserts a map node. All of it is the
  // documented "mux.pick" escape.
  if (any_pick) {
    KLB_EFFECT_ESCAPE("mux.pick", {
      util::MutexLock lk(pick_mutex_);
      for (std::size_t i = 0; i < n; ++i) {
        Lane& ln = lanes[i];
        if (ln.st != kNeedPick) continue;
        const net::Message& m = *msgs[i];
        ln.dip = gen.policy().pick(m.tuple, gen.views(), rng_);
        if (ln.dip == kNoBackend) {
          no_backend_drops_.fetch_add(1, std::memory_order_relaxed);
          ln.st = kDropped;  // connection refused; client times out
          continue;
        }
        ln.backend_id = gen.backends()[ln.dip].id;
        if (gen.policy_uses_conns()) {
          // LC-family: pin and account *inside* the pick critical section
          // (pick mutex -> shard mutex is the legal order), so the next
          // pick already sees this connection — releasing first would let
          // concurrent opens herd onto the same least-loaded backend.
          std::tie(ln.owner, ln.fresh) =
              flows_.try_insert(m.tuple, ln.backend_id, now);
          if (ln.fresh) {
            auto& c = *gen.backends()[ln.dip].counters;
            c.connections.fetch_add(1, std::memory_order_relaxed);
            gen.views()[ln.dip].active_conns =
                c.active.fetch_add(1, std::memory_order_relaxed) + 1;
          }
          ln.st = kPinned;
        } else {
          ln.st = kNeedPin;
        }
      }
    });
  }

  // --- stage E: pins outside the pick mutex + shared pin accounting --------
  for (std::size_t i = 0; i < n; ++i) {
    Lane& ln = lanes[i];
    if (ln.st == kNeedPin) {
      // One map-node allocation per new *connection* under the shard lock
      // — the documented "flow.pin_insert" hole, not a per-packet cost.
      KLB_EFFECT_ESCAPE("flow.pin_insert", {
        std::tie(ln.owner, ln.fresh) =
            flows_.try_insert(msgs[i]->tuple, ln.backend_id, now);
      });
      if (ln.fresh) {
        auto& c = *gen.backends()[ln.dip].counters;
        // An adopted flow's connection was already counted at its
        // stateless open; only the pin (active) is new.
        if (!ln.adopted)
          c.connections.fetch_add(1, std::memory_order_relaxed);
        c.active.fetch_add(1, std::memory_order_relaxed);
      }
      ln.st = kPinned;
    }
    if (ln.st != kPinned) continue;
    if (ln.fresh && slot_pins_) {
      // Every pin in hybrid mode is slot-counted, keeping its slot on the
      // exception path for as long as it lives — regardless of which
      // branch created it.
      slot_pins_->inc(ln.slot);
      exception_pins_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!ln.fresh) {
      // A concurrent packet of the same tuple pinned it first; honour the
      // winner (single-threaded scalar drive never takes this branch).
      if (const auto idx = gen.index_of(ln.owner)) ln.dip = *idx;
    }
  }

  // --- stage F: forward, grouped per destination DIP -----------------------
  if (n == 1) {
    if (lanes[0].st != kDropped) forward_run(gen, lanes[0].dip, msgs, 1);
    return;
  }
  std::uint32_t order[kBatchChunk];
  std::size_t n_fwd = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (lanes[i].st != kDropped) order[n_fwd++] = static_cast<std::uint32_t>(i);
  // Stable insertion sort by destination DIP: n <= kBatchChunk, so this
  // beats std::stable_sort (which heap-allocates a temporary buffer) and
  // keeps burst order within a DIP for free.
  for (std::size_t s = 1; s < n_fwd; ++s) {
    const std::uint32_t v = order[s];
    const std::size_t dip = lanes[v].dip;
    std::size_t j = s;
    for (; j > 0 && lanes[order[j - 1]].dip > dip; --j) order[j] = order[j - 1];
    order[j] = v;
  }
  const net::Message* out[kBatchChunk];
  std::size_t i = 0;
  while (i < n_fwd) {
    const std::size_t dip = lanes[order[i]].dip;
    std::size_t k = 0;
    do {
      out[k++] = msgs[order[i]];
      ++i;
    } while (i < n_fwd && lanes[order[i]].dip == dip);
    forward_run(gen, dip, out, k);
  }
}

void Mux::release_connection(const PoolGeneration& gen, std::size_t i)
    KLB_NONALLOCATING {
  auto& active = gen.backends()[i].counters->active;
  auto cur = active.load(std::memory_order_relaxed);
  while (cur > 0 && !active.compare_exchange_weak(cur, cur - 1,
                                                  std::memory_order_relaxed)) {
  }
  // Only the LC family reads active_conns from the views; for everyone
  // else skipping the patch keeps FINs off the pick mutex entirely.
  if (!gen.policy_uses_conns()) return;
  KLB_EFFECT_ESCAPE("mux.release_pick_refresh", {
    util::MutexLock lk(pick_mutex_);
    gen.views()[i].active_conns = active.load(std::memory_order_relaxed);
  });
}

std::optional<std::size_t> Mux::resolve_fin(const PoolGeneration& gen,
                                            const FlowErase& r,
                                            bool* drain_emptied)
    KLB_NONALLOCATING {
  if (!r.found) {
    // No pin: in hybrid mode this is the normal close of a stateless flow
    // (nothing in the table was ever its state). The server still needs
    // the FIN to close out — deliver it where the data packets went: the
    // displaced previous owner when the slot's pick moved away from one
    // that is still here (exactly the mid-flow adoption rule,
    // process_chunk_pinned), the current table route otherwise.
    if (!slot_pins_) return std::nullopt;
    if (const auto* f = gen.exception_filter()) {
      const auto prev = displaced_owner(gen, *f, r.hash);
      if (prev != ExceptionFilter::kNoOwner)
        if (const auto idx = gen.index_of_addr(prev)) return idx;
    }
    return gen.table_route(r.hash);
  }
  if (slot_pins_)
    slot_pins_->dec(static_cast<std::size_t>(r.hash % slot_pins_->size()));
  const auto idx = gen.index_of(r.id);
  if (!idx) return std::nullopt;  // backend removed while the flow was live
  release_connection(gen, *idx);
  const auto& b = gen.backends()[*idx];
  if (b.draining && b.counters->active.load(std::memory_order_relaxed) == 0)
    *drain_emptied = true;
  return idx;
}

void Mux::handle_fin(const net::Message& msg) KLB_NONALLOCATING {
  FlowErase r;
  r.tuple = &msg.tuple;
  r.hash = net::hash_tuple(msg.tuple);
  flows_.erase_batch(&r, 1);
  net::IpAddr addr;
  bool forward = false;
  bool drain_emptied = false;
  {
    auto ref = read_gen();
    if (const auto idx = resolve_fin(*ref.gen, r, &drain_emptied)) {
      addr = ref.gen->backends()[*idx].addr;
      forward = true;
    }
  }
  if (forward) net_.send(addr, msg);  // let the server close out too
  // Flag after unpinning (see gc_shard): the completion this triggers
  // retires a generation, and our own slot must not block its reclaim.
  if (drain_emptied) note_drain_empty();
}

void Mux::handle_fin_chunk(const net::Message* const* msgs, std::size_t n)
    KLB_NONALLOCATING {
  if (n == 1) {
    handle_fin(*msgs[0]);
    return;
  }
  FlowErase reqs[kBatchChunk];
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].tuple = &msgs[i]->tuple;
    reqs[i].hash = net::hash_tuple(msgs[i]->tuple);
  }
  flows_.erase_batch(reqs, n);

  constexpr std::uint32_t kNoFwd = 0xffffffffu;
  std::uint32_t dip[kBatchChunk];
  std::size_t drains_emptied = 0;
  {
    auto ref = read_gen();
    const PoolGeneration& gen = *ref.gen;
    for (std::size_t i = 0; i < n; ++i) {
      bool de = false;
      const auto idx = resolve_fin(gen, reqs[i], &de);
      dip[i] = idx ? static_cast<std::uint32_t>(*idx) : kNoFwd;
      drains_emptied += de ? 1 : 0;
    }
    // Forward grouped per destination, like stage F of the request path
    // (kNoFwd sorts last and is skipped).
    std::uint32_t order[kBatchChunk];
    for (std::size_t i = 0; i < n; ++i)
      order[i] = static_cast<std::uint32_t>(i);
    for (std::size_t s = 1; s < n; ++s) {
      const std::uint32_t v = order[s];
      const std::uint32_t d = dip[v];
      std::size_t j = s;
      for (; j > 0 && dip[order[j - 1]] > d; --j) order[j] = order[j - 1];
      order[j] = v;
    }
    const net::Message* out[kBatchChunk];
    std::size_t i = 0;
    while (i < n && dip[order[i]] != kNoFwd) {
      const std::uint32_t d = dip[order[i]];
      std::size_t k = 0;
      do {
        out[k++] = msgs[order[i]];
        ++i;
      } while (i < n && dip[order[i]] == d);
      net_.send_burst(gen.backends()[d].addr, out, k);
    }
  }
  // Flag after unpinning (see handle_fin): each emptied drain completes
  // once, exactly as the scalar path would have reported it.
  for (std::size_t k = 0; k < drains_emptied; ++k) note_drain_empty();
}

}  // namespace klb::lb
