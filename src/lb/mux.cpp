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
/// big enough to amortize the per-burst costs (generation read, grouped
/// forwards), small enough to live comfortably on the stack.
constexpr std::size_t kBatchChunk = 32;

/// The owner `hash`'s slot displaced, when the filter remembers one and
/// the generation's table now picks someone else — where the slot's
/// pre-change stateless flows actually live. kNoOwner otherwise.
/// `filter` rides `gen`, so gen has a table of the filter's size.
std::uint32_t displaced_owner(const PoolGeneration& gen,
                              const ExceptionFilter& filter,
                              std::uint64_t hash) {
  const auto prev = filter.prev_owner(
      static_cast<std::size_t>(hash % filter.table_size()));
  if (prev == ExceptionFilter::kNoOwner) return prev;
  const auto pick = gen.maglev_table()->lookup_id(hash);
  return pick != MaglevTable::kNoId && static_cast<std::uint32_t>(pick) == prev
             ? ExceptionFilter::kNoOwner
             : prev;
}

/// Stable insertion sort of the `n` lanes in `order` by `dest[lane]`: for
/// n <= kBatchChunk it beats std::stable_sort, which heap-allocates.
void sort_by_destination(std::uint32_t* order, std::size_t n,
                         const std::uint32_t* dest) {
  for (std::size_t s = 1; s < n; ++s) {
    const std::uint32_t v = order[s];
    std::size_t j = s;
    for (; j > 0 && dest[order[j - 1]] > dest[v]; --j) order[j] = order[j - 1];
    order[j] = v;
  }
}

/// Every DataplaneCounters field, for the field-wise operators.
constexpr std::uint64_t DataplaneCounters::*kCounterFields[] = {
    &DataplaneCounters::total_forwarded,
    &DataplaneCounters::no_backend_drops,
    &DataplaneCounters::drains_completed,
    &DataplaneCounters::flows_reset_by_failure,
    &DataplaneCounters::flows_gced_idle,
    &DataplaneCounters::flows_dropped_by_removal,
    &DataplaneCounters::superseded_programs,
    &DataplaneCounters::stale_failed_admissions,
    &DataplaneCounters::stateless_picks,
    &DataplaneCounters::exception_pins,
    &DataplaneCounters::affinity_breaks_avoided,
    &DataplaneCounters::affinity_breaks,
    &DataplaneCounters::generations_published,
    &DataplaneCounters::generations_retired,
};
static_assert(sizeof(kCounterFields) / sizeof(kCounterFields[0]) *
                      sizeof(std::uint64_t) ==
                  sizeof(DataplaneCounters),
              "kCounterFields must list every DataplaneCounters field");
}  // namespace

DataplaneCounters& DataplaneCounters::operator+=(const DataplaneCounters& o) {
  for (auto f : kCounterFields) this->*f += o.*f;
  return *this;
}

DataplaneCounters operator-(DataplaneCounters a, const DataplaneCounters& b) {
  for (auto f : kCounterFields) a.*f -= b.*f;
  return a;
}

bool operator==(const DataplaneCounters& a, const DataplaneCounters& b) {
  for (auto f : kCounterFields)
    if (a.*f != b.*f) return false;
  return true;
}

Mux::Mux(net::Network& net, net::IpAddr vip, std::unique_ptr<Policy> policy,
         bool attach_to_vip, FlowTableConfig flow_cfg,
         ConsistencyConfig consistency)
    : net_(net), vip_(vip), attached_(attach_to_vip),
      consistency_(consistency), rng_(net.sim().rng().fork()),
      flows_(flow_cfg) {
  if (consistency_.stateless) {
    // Engage the hybrid dataplane now or never: the slot-pin counters are
    // sized to the policy's table before any packet can arrive, so every
    // pin ever inserted is slot-counted (exact counts even across later
    // policy swaps — a filterless generation pins everything, and those
    // pins still inc/dec their slots).
    const auto table = policy->maglev_table();
    if (table != nullptr && table->table_size() > 0) {
      slot_pins_ = std::make_unique<SlotPinCounts>(table->table_size());
      diff_ = std::make_unique<GenerationDiff>(consistency_);
    } else {
      util::log_warn(kLog)
          << "stateless fast path requested but policy '" << policy->name()
          << "' has no maglev table; running fully stateful";
    }
  }
  // Publish the initial empty-pool generation: the packet path may assume
  // current_ is never null.
  publish({}, /*program_version=*/0, std::move(policy));
  if (attached_) net_.attach(vip_, this);
}

Mux::~Mux() {
  if (attached_) net_.attach(vip_, nullptr);
}

void Mux::set_policy(std::unique_ptr<Policy> policy) {
  // A maglev policy's table only names the geometry: the generation serves
  // a table built over its own pool. Capturing by reference is safe — the
  // hook runs before set_policy returns.
  set_policy([&policy](const std::vector<GenBackend>& pool) {
    if (const auto table = policy->maglev_table())
      policy = std::make_unique<MaglevPolicy>(
          build_table(pool, table->table_size()));
    return std::move(policy);
  });
}

void Mux::set_policy(const PolicyForPool& retable) {
  auto pool = draft();
  auto policy = retable(pool);
  publish(std::move(pool), applied_version(), std::move(policy));
}

std::shared_ptr<const MaglevTable> Mux::table_snapshot() const {
  return read_gen().table_snapshot();
}

// --- generation publication ----------------------------------------------------

void Mux::publish(std::vector<GenBackend> backends,
                  std::uint64_t program_version,
                  std::unique_ptr<Policy> policy_override) {
  const auto seq = ++gen_seq_;
  // The clone carries the policy's pick state (rotation counters,
  // smoothing credits) into the new generation.
  auto policy = policy_override ? std::move(policy_override)
                                : current_->policy().clone();
  policy->invalidate();
  auto gen = std::make_unique<PoolGeneration>(seq, program_version,
                                              std::move(backends),
                                              std::move(policy));

  // Hybrid dataplane: diff the generation's table against the last one
  // diffed and attach the exception filter before publication, so the
  // packet path sees generation + filter as one unit. A policy without a
  // table (or with incomparable geometry, which the diff refuses)
  // publishes without a filter: every flow pins, exactly the classic
  // dataplane.
  if (diff_ && gen->maglev_table() != nullptr)
    gen->set_exception_filter(diff_->on_publish(gen->table_snapshot(), seq));

  if (current_) ++generations_retired_;  // the swap destroys it
  current_ = std::move(gen);
  ++generations_published_;
}

std::unique_ptr<Policy> Mux::policy_for(const std::vector<GenBackend>& pool,
                                        const PolicyForPool& retable) const {
  if (retable) return retable(pool);
  if (const auto* table = current_->maglev_table())
    return std::make_unique<MaglevPolicy>(
        build_table(pool, table->table_size()));
  return nullptr;
}

void Mux::poll() { sweep_drains(); }

void Mux::note_drain_empty() {
  drain_poll_pending_ = true;
  // Complete the drain inline. The sweep is control-plane code: it builds
  // and publishes a generation, so it allocates.
  sweep_drains();
}

bool Mux::drain_ripe(const GenBackend& b) const {
  if (!b.draining) return false;
  if (b.counters->active != 0) return false;
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
  const auto last = std::max(b.drain_since_us, b.counters->last_forward_us);
  return net_.sim().now().us() - last >= consistency_.drain_grace_us;
}

void Mux::sweep_drains() {
  if (!drain_poll_pending_) return;
  drain_poll_pending_ = false;
  auto pool = draft();
  std::vector<std::uint64_t> done;
  bool grace_pending = false;
  for (auto it = pool.begin(); it != pool.end();) {
    if (drain_ripe(*it)) {
      util::log_info(kLog) << "backend " << it->addr.str()
                           << " drained; completing removal";
      done.push_back(it->id);
      it = pool.erase(it);
    } else {
      if (it->draining && it->counters->active == 0) grace_pending = true;
      ++it;
    }
  }
  // An idle drainer inside its grace window: re-arm so the next poll()
  // re-checks — the FIN that emptied it will not fire again.
  if (grace_pending) drain_poll_pending_ = true;
  if (done.empty()) return;
  drains_completed_ += done.size();
  publish(std::move(pool), applied_version());
  // The drain completed with zero pinned flows; like every removal, drop
  // whatever entry is left for the removed backend.
  for (const auto id : done) drop_affinity_for(id, /*count_as_reset=*/false);
}

// --- transactional programming -------------------------------------------------

void Mux::apply_program(const PoolProgram& program,
                        const PolicyForPool& retable) {
  if (program.version <= applied_version()) {
    ++superseded_programs_;
    util::log_warn(kLog) << "discarding stale pool program v"
                         << program.version << " (pool already at v"
                         << applied_version() << ")";
    return;
  }
  applied_version_ = program.version;

  auto pool = draft();

  // Reconciliation is keyed by DIP address — the one name the emitter and
  // the dataplane agree on; stable ids stay dataplane-internal.
  std::unordered_map<std::uint32_t, const PoolEntry*> desired;
  for (const auto& e : program.entries) desired[e.dip.value()] = &e;

  std::vector<std::uint64_t> to_remove;  // stable ids, graceful removal
  for (auto& b : pool) {
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
        ++stale_failed_admissions_;
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
    pool.push_back(std::move(b));
  }

  // (removed id, counted-as-dropped) — affinity drops run after the new
  // generation is live, so the packet path stops forwarding to a removed
  // backend before its entries disappear.
  std::vector<std::uint64_t> dropped_ids;
  for (const auto id : to_remove) {
    for (auto it = pool.begin(); it != pool.end(); ++it) {
      if (it->id != id) continue;
      pool.erase(it);
      dropped_ids.push_back(id);
      break;
    }
  }

  // A drain with no pinned flows completes in the same transaction —
  // unless the hybrid dataplane's grace is still running (see drain_ripe).
  for (auto it = pool.begin(); it != pool.end();) {
    if (drain_ripe(*it)) {
      ++drains_completed_;
      dropped_ids.push_back(it->id);
      it = pool.erase(it);
    } else {
      if (it->draining && it->counters->active == 0)
        drain_poll_pending_ = true;
      ++it;
    }
  }

  // Weights apply literally — the transaction declares the whole pool, so
  // there is nothing to rescale.
  auto policy = policy_for(pool, retable);
  publish(std::move(pool), program.version, std::move(policy));
  for (const auto id : dropped_ids) drop_affinity_for(id, false);
}

std::size_t Mux::backend_count() const { return read_gen().size(); }

std::vector<net::IpAddr> Mux::backend_addrs() const {
  const auto& gen = read_gen();
  std::vector<net::IpAddr> out;
  out.reserve(gen.size());
  for (const auto& b : gen.backends())
    if (!b.draining) out.push_back(b.addr);
  return out;
}

std::vector<GenBackend> Mux::backends() const {
  return read_gen().backends();
}

std::size_t Mux::draining_count() const {
  std::size_t n = 0;
  for (const auto& b : read_gen().backends())
    if (b.draining) ++n;
  return n;
}

// --- abrupt failure ------------------------------------------------------------

bool Mux::fail_backend(net::IpAddr addr,
                       std::optional<std::uint64_t> condemned_until_version,
                       const PolicyForPool& retable) {
  // Tombstone the address against every transaction issued up to the
  // failure observation: one of them may still be riding the programming
  // delay, and committing it must not resurrect the corpse.
  failed_tombstones_[addr.value()] = condemned_until_version
                                         ? *condemned_until_version
                                         : issued_versions();
  const auto i = current_->index_of_addr(addr.value());
  if (!i) return false;
  auto pool = draft();
  const auto id = pool[*i].id;
  util::log_warn(kLog) << "backend " << addr.str() << " failed; resetting "
                       << pool[*i].counters->active << " pinned flows";
  pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(*i));
  auto policy = policy_for(pool, retable);
  publish(std::move(pool), applied_version(), std::move(policy));
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
    flows_reset_ += n;
  } else {
    // Graceful-path abrupt drop (transactional kRemoved or omission): not
    // a failure reset, not a drained-to-zero — without its own counter
    // these flows vanish from every metric.
    flows_dropped_ += n;
  }
}

// --- bounds-checked accessors --------------------------------------------------

net::IpAddr Mux::backend_addr(std::size_t i) const {
  const auto& gen = read_gen();
  if (i >= gen.size()) {
    util::log_warn(kLog) << "backend_addr(" << i << ") out of range ("
                         << gen.size() << " backends)";
    return net::IpAddr{};
  }
  return gen.backends()[i].addr;
}

std::vector<std::int64_t> Mux::weight_units() const {
  const auto& gen = read_gen();
  std::vector<std::int64_t> out(gen.size());
  for (std::size_t i = 0; i < gen.size(); ++i)
    out[i] = gen.backends()[i].weight_units;
  return out;
}

DataplaneCounters Mux::counters() const {
  DataplaneCounters c;
  c.total_forwarded = total_forwarded_;
  c.no_backend_drops = no_backend_drops_;
  c.drains_completed = drains_completed_;
  c.flows_reset_by_failure = flows_reset_;
  c.flows_gced_idle = flows_gced_;
  c.flows_dropped_by_removal = flows_dropped_;
  c.superseded_programs = superseded_programs_;
  c.stale_failed_admissions = stale_failed_admissions_;
  c.stateless_picks = stateless_picks_;
  c.exception_pins = exception_pins_;
  c.affinity_breaks_avoided = affinity_breaks_avoided_;
  c.affinity_breaks = affinity_breaks_;
  c.generations_published = generations_published_;
  c.generations_retired = generations_retired_;
  return c;
}

std::size_t Mux::exception_slots() const {
  const auto* f = read_gen().exception_filter();
  return f ? f->exception_slots() : 0;
}

std::size_t Mux::dangling_affinity_count() const {
  const auto& gen = read_gen();
  std::size_t n = 0;
  flows_.for_each([&](const net::FiveTuple&, std::uint64_t id, util::SimTime) {
    if (!gen.index_of(id)) ++n;
  });
  return n;
}

// --- affinity GC ---------------------------------------------------------------

std::size_t Mux::gc_shard(std::size_t k, std::size_t max_scan) {
  const auto now = net_.sim().now();
  const auto idle = util::SimTime::micros(affinity_idle_us_);
  bool drain_emptied = false;
  std::size_t reclaimed = 0;
  {
    const auto& gen = read_gen();
    reclaimed = flows_.gc_shard(
        k, now, idle,
        [&gen](std::uint64_t id) { return gen.index_of(id).has_value(); },
        [this, &gen](const net::FiveTuple& t, std::uint64_t id, bool dead) {
          ++flows_gced_;
          if (slot_pins_)
            slot_pins_->dec(static_cast<std::size_t>(net::hash_tuple(t) %
                                                     slot_pins_->size()));
          if (dead) return;  // a live backend loses a flow that never FIN'd
          if (const auto idx = gen.index_of(id)) release_connection(gen, *idx);
        },
        max_scan);
    // The GC may have reclaimed a drainer's last flow (FIN-less clients
    // are exactly what would otherwise wedge a graceful scale-in forever).
    for (const auto& b : gen.backends()) {
      if (b.draining && b.counters->active == 0) {
        drain_emptied = true;
        break;
      }
    }
  }
  // Outside the generation reference: completing the drain publishes,
  // which destroys the generation read above.
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
  if (affinity_idle_us_ <= 0) return;
  // One shard per trigger: the whole table is covered once per
  // kGcRequestInterval forwarded requests, but no single packet (or batch)
  // ever pays for more than one shard's sweep.
  const auto interval =
      std::max<std::uint64_t>(1, kGcRequestInterval / flows_.shard_count());
  requests_since_gc_ += batch;
  if (requests_since_gc_ < interval) return;
  requests_since_gc_ = 0;
  gc_shard(gc_cursor_++ % flows_.shard_count(), FlowTable::kScanBudgeted);
}

// --- packet path ---------------------------------------------------------------

void Mux::handle_batch(const net::Message* const* msgs, std::size_t n) {
  // Contiguous runs of one type, chunked to the stack scratch size: request
  // runs are staged, FIN runs unpin in a batch (grouped forwards), anything
  // else is ignored.
  std::size_t i = 0;
  while (i < n) {
    const auto type = msgs[i]->type;
    std::size_t j = i + 1;
    while (j < n && msgs[j]->type == type) ++j;
    for (std::size_t off = i; off < j; off += kBatchChunk) {
      const auto k = std::min(kBatchChunk, j - off);
      if (type == net::MsgType::kHttpRequest) {
        handle_request_chunk(msgs + off, k);
      } else if (type == net::MsgType::kFin) {
        handle_fin_chunk(msgs + off, k);
      }
    }
    i = j;
  }
}

void Mux::forward_run(const PoolGeneration& gen, std::size_t i,
                      const net::Message* const* msgs, std::size_t k) {
  const auto& b = gen.backends()[i];
  b.counters->forwarded += k;
  // Quiescence evidence for stateless drains (drain_ripe): only drainers
  // pay the stamp, so the steady-state hot path is untouched.
  if (slot_pins_ && b.draining)
    b.counters->last_forward_us = net_.sim().now().us();
  total_forwarded_ += k;
  net_.send_burst(b.addr, msgs, k);  // original tuples preserved (encap)
}

std::optional<std::size_t> Mux::resolve_stateless(const PoolGeneration& gen,
                                                  std::uint64_t hash,
                                                  const net::Message& msg) {
  const auto idx = gen.table_route(hash);
  if (!idx) return std::nullopt;
  const auto& b = gen.backends()[*idx];
  ++stateless_picks_;
  if (msg.req_id <= 1) {
    // Opener: the connection exists even though no pin ever will — the
    // cumulative count keeps stateless and stateful accounting
    // comparable. `active` deliberately stays untouched: it counts pins,
    // which is what drains wait on.
    ++b.counters->connections;
  }
  return idx;
}

void Mux::handle_request_chunk(const net::Message* const* msgs, std::size_t n) {
  // Amortized idle-flow GC: at most one budgeted shard sweep per
  // gc-interval of forwarded requests, never per packet. It runs before
  // read_gen, since a sweep may complete a drain and publish.
  maybe_gc(n);
  const auto now = net_.sim().now();
  // One generation for the whole chunk: every index below names a
  // position in it.
  const PoolGeneration& gen = read_gen();
  if (n > 1 && gen.maglev_table() == nullptr) {
    // Most policies without a table (rr/wrr/lc/random family) mutate pick
    // state per packet: process the burst per packet so the pick sequence
    // is exactly the scalar path's.
    for (std::size_t i = 0; i < n; ++i) process_chunk(gen, now, msgs + i, 1);
    return;
  }
  process_chunk(gen, now, msgs, n);
}

void Mux::process_chunk(const PoolGeneration& gen, util::SimTime now,
                        const net::Message* const* msgs, std::size_t n) {
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
    bool rehomed;  // mid-flow exception whose previous owner is gone
    bool fresh;
  };
  enum : std::uint8_t {
    kForwardOnly,  // dip resolved, no pin wanted (stateless/affinity hit)
    kNeedLookup,   // awaiting the affinity lookup
    kNeedPick,     // stage-D policy pick required (no table)
    kNeedPin,      // dip + id resolved, try_insert pending
    kPinned,       // insert done (possibly finding an earlier lane's pin)
    kDropped,      // no usable backend: client times out
  };
  Lane lanes[kBatchChunk];
  FlowLookup lookups[kBatchChunk];
  std::uint32_t lookup_lane[kBatchChunk];

  // --- stage A: hash + stateless fast-path classification -----------------
  // One hash, one bitmap bit, one counter read, one table read per packet:
  // no allocation, no FlowTable traffic. A slot is
  // exceptional when its pick changed recently (the filter) or while
  // pinned flows live on it (the live counter — pins may outlive the
  // filter window, and a pinned flow must never be rerouted by hash).
  // A filter only ever rides a generation with a table (publish).
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
    ln.rehomed = false;
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

  // --- stage B: affinity lookups --------------------------------------------
  flows_.lookup_batch(lookups, need_lookup, now);

  // --- stage C: per-packet resolution ---------------------------------------
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
        ln.dip = *pidx;
        ln.backend_id = gen.backends()[ln.dip].id;
        ln.adopted = true;
      } else {
        // The previous owner is gone (failure / completed removal): the
        // flow genuinely re-homes onto the current pick, pinned so it does
        // not break again.
        ln.rehomed = true;
      }
      // Both count once the pin lands (stage E): an opener earlier in the
      // chunk pins first, and the scalar path sees its pin as a hit.
    }
    if (ln.dip == kNoBackend && table != nullptr) {
      // A new (or re-homed) connection on a table-bearing generation: the
      // pick is a pure function of the hash and this frozen table, so it
      // resolves here — no virtual call.
      if (const auto idx = gen.table_route(ln.hash)) {
        ln.dip = *idx;
        ln.backend_id = gen.backends()[ln.dip].id;
      } else {
        ++no_backend_drops_;
        // No pin will land (nor did an opener's): the break counts now.
        if (ln.rehomed) ++affinity_breaks_;
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

  // --- stage D: policy pick ------------------------------------------------
  // Reached only by policies without a maglev table (rr/lc/random/p2/hash
  // families), whose chunks are single packets (handle_request_chunk). The
  // pick is a virtual call; a policy can allocate only on the first pick
  // after invalidate(), when it rebuilds its usable-index cache. The
  // LC-family pin allocates only when it grows the flow table.
  if (any_pick) {
    for (std::size_t i = 0; i < n; ++i) {
      Lane& ln = lanes[i];
      if (ln.st != kNeedPick) continue;
      const net::Message& m = *msgs[i];
      ln.dip = gen.policy().pick(m.tuple, gen.views(), rng_);
      if (ln.dip == kNoBackend) {
        ++no_backend_drops_;
        ln.st = kDropped;  // connection refused; client times out
        continue;
      }
      ln.backend_id = gen.backends()[ln.dip].id;
      if (gen.policy_uses_conns()) {
        // LC-family: pin and account right after the pick, so the next
        // pick already sees this connection.
        std::tie(ln.owner, ln.fresh) =
            flows_.try_insert(m.tuple, ln.hash, ln.backend_id, now);
        if (ln.fresh) {
          auto& c = *gen.backends()[ln.dip].counters;
          ++c.connections;
          gen.views()[ln.dip].active_conns = ++c.active;
        }
        ln.st = kPinned;
      } else {
        ln.st = kNeedPin;
      }
    }
  }

  // --- stage E: pins + pin accounting --------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    Lane& ln = lanes[i];
    if (ln.st == kNeedPin) {
      // A slot write keyed by the stage-A hash. It allocates only when
      // the table grows past its capacity (amortized doubling).
      std::tie(ln.owner, ln.fresh) =
          flows_.try_insert(msgs[i]->tuple, ln.hash, ln.backend_id, now);
      if (ln.fresh) {
        auto& c = *gen.backends()[ln.dip].counters;
        // An adopted flow's connection was already counted at its
        // stateless open; only the pin (active) is new.
        if (ln.adopted) {
          ++affinity_breaks_avoided_;
        } else {
          ++c.connections;
        }
        if (ln.rehomed) ++affinity_breaks_;
        ++c.active;
      }
      ln.st = kPinned;
    }
    if (ln.st != kPinned) continue;
    if (ln.fresh && slot_pins_) {
      // Every pin in hybrid mode is slot-counted, keeping its slot on the
      // exception path for as long as it lives — regardless of which
      // branch created it.
      slot_pins_->inc(ln.slot);
      ++exception_pins_;
    }
    if (!ln.fresh) {
      // An earlier lane of this burst pinned the same tuple first; honour
      // its pin, as the scalar path would have seen it as a hit.
      if (const auto idx = gen.index_of(ln.owner)) ln.dip = *idx;
    }
  }

  // --- stage F: forward, grouped per destination DIP -----------------------
  std::uint32_t order[kBatchChunk];
  std::uint32_t dest[kBatchChunk];
  std::size_t n_fwd = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes[i].st == kDropped) continue;
    dest[i] = static_cast<std::uint32_t>(lanes[i].dip);
    order[n_fwd++] = static_cast<std::uint32_t>(i);
  }
  sort_by_destination(order, n_fwd, dest);
  const net::Message* out[kBatchChunk];
  for (std::size_t i = 0; i < n_fwd;) {
    const std::uint32_t d = dest[order[i]];
    std::size_t k = 0;
    do {
      out[k++] = msgs[order[i++]];
    } while (i < n_fwd && dest[order[i]] == d);
    forward_run(gen, d, out, k);
  }
}

void Mux::release_connection(const PoolGeneration& gen, std::size_t i) {
  auto& active = gen.backends()[i].counters->active;
  if (active > 0) --active;
  // Only the LC family reads active_conns from the views.
  if (gen.policy_uses_conns()) gen.views()[i].active_conns = active;
}

void Mux::handle_fin_chunk(const net::Message* const* msgs, std::size_t n) {
  FlowErase reqs[kBatchChunk];
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].tuple = &msgs[i]->tuple;
    reqs[i].hash = net::hash_tuple(msgs[i]->tuple);
  }
  flows_.erase_batch(reqs, n);

  std::size_t drains_emptied = 0;
  {
    const PoolGeneration& gen = read_gen();
    // Each FIN goes where its flow's data went, so the server closes out
    // too; forwards are grouped per destination like stage F's.
    std::uint32_t order[kBatchChunk];
    std::uint32_t dest[kBatchChunk];
    std::size_t n_fwd = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const FlowErase& r = reqs[i];
      std::optional<std::size_t> idx;
      if (r.found) {
        if (slot_pins_)
          slot_pins_->dec(
              static_cast<std::size_t>(r.hash % slot_pins_->size()));
        idx = gen.index_of(r.id);
        if (!idx) continue;  // backend removed while the flow was live
        release_connection(gen, *idx);
        const auto& b = gen.backends()[*idx];
        if (b.draining && b.counters->active == 0) ++drains_emptied;
      } else if (slot_pins_) {
        // No pin: in hybrid mode the normal close of a stateless flow, whose
        // data went to the displaced previous owner while it is still here
        // (the mid-flow adoption rule), to the current table route otherwise.
        if (const auto* f = gen.exception_filter()) {
          const auto prev = displaced_owner(gen, *f, r.hash);
          if (prev != ExceptionFilter::kNoOwner) idx = gen.index_of_addr(prev);
        }
        if (!idx) idx = gen.table_route(r.hash);
      }
      if (!idx) continue;
      dest[i] = static_cast<std::uint32_t>(*idx);
      order[n_fwd++] = static_cast<std::uint32_t>(i);
    }
    sort_by_destination(order, n_fwd, dest);
    const net::Message* out[kBatchChunk];
    for (std::size_t i = 0; i < n_fwd;) {
      const std::uint32_t d = dest[order[i]];
      std::size_t k = 0;
      do {
        out[k++] = msgs[order[i++]];
      } while (i < n_fwd && dest[order[i]] == d);
      net_.send_burst(gen.backends()[d].addr, out, k);
    }
  }
  // Outside the generation reference (see gc_shard): the completion this
  // triggers publishes. Each emptied drain completes once.
  for (std::size_t k = 0; k < drains_emptied; ++k) note_drain_empty();
}

}  // namespace klb::lb
