#include "lb/mux_pool.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace klb::lb {

namespace {
constexpr const char* kLog = "klb-muxpool";

/// ECMP salt: decorrelates shard choice from the maglev table's backend
/// choice (both start from hash_tuple).
constexpr std::uint64_t kEcmpSalt = 0xecb99a18d7f4a7c1ull;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// One shared maglev table over `backends` (a member's pool, read as one
/// generation). Entry order follows the members' registration order, which
/// tracks the programs' stable relative order, so a rebuild stays
/// minimally disruptive. Ids are DIP address values — identical on every
/// mux by construction, which is what makes one table servable by all of
/// them. Drainers take no slots.
std::shared_ptr<const MaglevTable> build_table(
    const std::vector<GenBackend>& backends, std::size_t min_table_size) {
  std::vector<MaglevEntry> entries;
  for (const auto& b : backends)
    if (!b.draining)
      entries.push_back(MaglevEntry{b.addr.value(), b.weight_units});
  auto table = std::make_shared<MaglevTable>(min_table_size);
  table->build(entries);
  return table;
}

std::unique_ptr<Policy> shared_policy(std::shared_ptr<const MaglevTable> t) {
  auto policy = std::make_unique<SharedMaglevPolicy>();
  policy->set_table(std::move(t));
  return policy;
}
}  // namespace

MuxPool::MuxPool(net::Network& net, net::IpAddr vip, std::size_t mux_count,
                 std::size_t min_table_size, FlowTableConfig flow_cfg,
                 ConsistencyConfig consistency)
    : net_(net), vip_(vip), min_table_size_(min_table_size) {
  mux_count = std::max<std::size_t>(1, mux_count);
  // ECMP spreads the flow space uniformly, so each member expects its
  // even share of the pool-wide flow population.
  flow_cfg.expected_flows /= mux_count;
  muxes_.reserve(mux_count);
  for (std::size_t k = 0; k < mux_count; ++k) {
    auto policy = std::make_unique<SharedMaglevPolicy>();
    // An empty table of the final geometry: hybrid engagement sizes its
    // slot-pin counters from the policy's table in the Mux constructor,
    // and every table published later (retable_into) allocates the same
    // prime slot count, so the filters stay comparable for the pool's
    // whole lifetime.
    policy->set_table(std::make_shared<MaglevTable>(min_table_size_));
    muxes_.push_back(std::make_unique<Mux>(net_, vip_, std::move(policy),
                                           /*attach_to_vip=*/false, flow_cfg,
                                           consistency));
  }
  net_.attach(vip_, this);
}

MuxPool::~MuxPool() { net_.attach(vip_, nullptr); }

std::size_t MuxPool::shard_of(const net::FiveTuple& tuple) const {
  return static_cast<std::size_t>(mix64(net::hash_tuple(tuple) ^ kEcmpSalt) %
                                  muxes_.size());
}

std::shared_ptr<const MaglevTable> MuxPool::table_snapshot(
    std::size_t k) const {
  return muxes_[k]->shared_table_snapshot();
}

std::size_t MuxPool::backend_count() const {
  std::size_t n = 0;
  for (const auto& m : muxes_) n = std::max(n, m->backend_count());
  return n;
}

std::vector<net::IpAddr> MuxPool::backend_addrs() const {
  // The desired (non-draining) pool is identical on every member; drains
  // may complete at different times, but those are excluded here anyway.
  return muxes_.front()->backend_addrs();
}

void MuxPool::apply_program(const PoolProgram& program) {
  util::MutexLock lk(mu_);
  // One version check for the whole pool: either every member commits this
  // transaction or none does, so the members cannot diverge.
  if (program.version <= applied_version_) {
    ++superseded_programs_;
    util::log_warn(kLog) << "discarding stale pool program v"
                         << program.version << " (pool already at v"
                         << applied_version_ << ")";
    return;
  }
  applied_version_ = program.version;

  // One publication per member, carrying the new membership and the new
  // shared table together: no packet can see a drained or parked backend
  // while its table still routes new connections to it.
  std::shared_ptr<const MaglevTable> table;
  const auto retable = retable_into(table);
  for (auto& m : muxes_) m->apply_program(program, retable);
  if (table) ++shared_builds_;
}

Mux::PolicyForPool MuxPool::retable_into(
    std::shared_ptr<const MaglevTable>& table) const {
  // One maglev build per commit, from the first member's final draft
  // (representative: every member applied the same programs, and draining
  // stragglers are excluded from the table either way). Every member gets
  // a fresh policy instance carrying the pointer-equal snapshot.
  return [this, &table](const std::vector<GenBackend>& pool) {
    if (!table) table = build_table(pool, min_table_size_);
    return shared_policy(table);
  };
}

void MuxPool::poll() {
  for (auto& m : muxes_) m->poll();
}

bool MuxPool::fail_backend(net::IpAddr dip) {
  util::MutexLock lk(mu_);
  // Tombstone against the POOL's version sequence (members never issue
  // their own): every member refuses the same set of pre-failure
  // transactions, so they cannot diverge on whether the corpse is served.
  const auto condemned = issued_versions();
  // Rebuild the shared table now: the dead DIP's hash space redistributes
  // to the survivors immediately (its reset flows retry as new
  // connections), instead of blackholing until the next program commits.
  // Built once, from the first serving member's surviving pool, and
  // published in the same generation that drops the corpse. A member not
  // serving the DIP (e.g. its drain completed there first) still records
  // the tombstone, so all members agree on which in-flight transactions
  // may re-admit the address.
  std::shared_ptr<const MaglevTable> table;
  const auto retable = retable_into(table);
  std::vector<Mux*> unserved;
  for (auto& m : muxes_)
    if (!m->fail_backend(dip, condemned, retable)) unserved.push_back(m.get());
  if (!table) return false;
  ++shared_builds_;
  // Members that no longer served the corpse switch to the new table too.
  for (auto* m : unserved) m->set_policy(shared_policy(table));
  return true;
}

std::uint64_t MuxPool::total_forwarded() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->total_forwarded();
  return n;
}

std::uint64_t MuxPool::flows_reset_by_failure() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->flows_reset_by_failure();
  return n;
}

std::uint64_t MuxPool::no_backend_drops() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->no_backend_drops();
  return n;
}

std::uint64_t MuxPool::flows_dropped_by_removal() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->flows_dropped_by_removal();
  return n;
}

std::uint64_t MuxPool::drains_completed() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->drains_completed();
  return n;
}

std::size_t MuxPool::draining_count() const {
  std::size_t n = 0;
  for (const auto& m : muxes_) n += m->draining_count();
  return n;
}

std::size_t MuxPool::affinity_size() const {
  std::size_t n = 0;
  for (const auto& m : muxes_) n += m->affinity_size();
  return n;
}

std::uint64_t MuxPool::new_connections_to(net::IpAddr dip) const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_)
    for (const auto& b : m->backends())  // one snapshot per member
      if (b.addr == dip)
        n += b.counters->connections.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t MuxPool::stale_failed_admissions() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->stale_failed_admissions();
  return n;
}

std::uint64_t MuxPool::generations_published() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->generations_published();
  return n;
}

std::uint64_t MuxPool::generations_retired() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->generations_retired();
  return n;
}

std::size_t MuxPool::pending_retired_generations() const {
  std::size_t n = 0;
  for (const auto& m : muxes_) n += m->pending_retired_generations();
  return n;
}

bool MuxPool::stateless_engaged() const {
  for (const auto& m : muxes_)
    if (!m->stateless_engaged()) return false;
  return true;
}

std::uint64_t MuxPool::stateless_picks() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->stateless_picks();
  return n;
}

std::uint64_t MuxPool::exception_pins() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->exception_pins();
  return n;
}

std::uint64_t MuxPool::affinity_breaks_avoided() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->affinity_breaks_avoided();
  return n;
}

std::uint64_t MuxPool::affinity_breaks() const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_) n += m->affinity_breaks();
  return n;
}

FlowTableMemory MuxPool::flow_memory() const {
  FlowTableMemory out;
  for (const auto& m : muxes_) {
    const auto mem = m->flow_table().memory();
    out.entries += mem.entries;
    out.buckets += mem.buckets;
    out.approx_bytes += mem.approx_bytes;
  }
  return out;
}

void MuxPool::on_message(const net::Message& msg) {
  // The routers' ECMP spray: stateless per-tuple shard choice. A shard is
  // a full Mux — affinity table, counters, drain lifecycle of its own.
  muxes_[shard_of(msg.tuple)]->on_message(msg);
}

void MuxPool::on_batch(const net::Message* const* msgs, std::size_t n) {
  if (n == 1) {
    on_message(*msgs[0]);
    return;
  }
  // Counting-sort partition by ECMP shard (stable: a shard's sub-burst
  // keeps the burst's relative order), then one handle_batch per member.
  const std::size_t shards = muxes_.size();
  if (shards == 1) {
    muxes_[0]->handle_batch(msgs, n);
    return;
  }
  constexpr std::size_t kStack = 64;
  std::uint32_t stack_shard[kStack];
  const net::Message* stack_out[kStack];
  std::vector<std::uint32_t> heap_shard;
  std::vector<const net::Message*> heap_out;
  std::uint32_t* shard_of_msg = stack_shard;
  const net::Message** out = stack_out;
  if (n > kStack) {
    heap_shard.resize(n);
    heap_out.resize(n);
    shard_of_msg = heap_shard.data();
    out = heap_out.data();
  }
  std::vector<std::uint32_t> counts(shards + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    shard_of_msg[i] = static_cast<std::uint32_t>(shard_of(msgs[i]->tuple));
    ++counts[shard_of_msg[i] + 1];
  }
  for (std::size_t k = 1; k <= shards; ++k) counts[k] += counts[k - 1];
  std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t i = 0; i < n; ++i) out[cursor[shard_of_msg[i]]++] = msgs[i];
  for (std::size_t k = 0; k < shards; ++k) {
    const std::size_t begin = counts[k], end = counts[k + 1];
    if (begin != end) muxes_[k]->handle_batch(out + begin, end - begin);
  }
}

}  // namespace klb::lb
