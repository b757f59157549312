#include "lb/mux_pool.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace klb::lb {

namespace {
constexpr const char* kLog = "klb-muxpool";

/// ECMP salt: decorrelates shard choice from the maglev table's backend
/// choice (both start from hash_tuple).
constexpr std::uint64_t kEcmpSalt = 0xecb99a18d7f4a7c1ull;

std::uint64_t mix64(std::uint64_t x) KLB_NONBLOCKING {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
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
  for (std::size_t k = 0; k < mux_count; ++k)
    muxes_.push_back(std::make_unique<Mux>(
        net_, vip_, std::make_unique<MaglevPolicy>(min_table_size_),
        /*attach_to_vip=*/false, flow_cfg, consistency));
  net_.attach(vip_, this);
}

MuxPool::~MuxPool() { net_.attach(vip_, nullptr); }

std::size_t MuxPool::shard_of(const net::FiveTuple& tuple) const
    KLB_NONBLOCKING {
  return static_cast<std::size_t>(mix64(net::hash_tuple(tuple) ^ kEcmpSalt) %
                                  muxes_.size());
}

std::shared_ptr<const MaglevTable> MuxPool::table_snapshot(
    std::size_t k) const {
  return muxes_[k]->table_snapshot();
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
    return std::make_unique<MaglevPolicy>(table);
  };
}

void MuxPool::poll() {
  for (auto& m : muxes_) m->poll();
}

bool MuxPool::fail_backend(net::IpAddr dip) {
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
  for (auto* m : unserved) m->set_policy(retable);
  return true;
}

DataplaneCounters MuxPool::counters() const {
  DataplaneCounters c;
  for (const auto& m : muxes_) c += m->counters();
  c.superseded_programs = superseded_programs_;
  return c;
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

std::uint64_t MuxPool::new_connections_to(net::IpAddr dip) const {
  std::uint64_t n = 0;
  for (const auto& m : muxes_)
    for (const auto& b : m->backends())  // one snapshot per member
      if (b.addr == dip)
        n += b.counters->connections;
  return n;
}

void MuxPool::on_message(const net::Message& msg) {
  // The routers' ECMP spray: stateless per-tuple shard choice. A shard is
  // a full Mux — affinity table, counters, drain lifecycle of its own.
  muxes_[shard_of(msg.tuple)]->on_message(msg);
}

void MuxPool::on_batch(const net::Message* const* msgs,
                       std::size_t n) KLB_NONALLOCATING {
  // Partition by ECMP shard on the stack, kStack messages at a time: one
  // handle_batch per member present, in member order, each sub-burst in
  // the burst's relative order. A pass per member present collects that
  // member's messages and finds the next member, so the scratch does not
  // grow with the pool.
  constexpr std::size_t kStack = 64;
  std::uint32_t shard[kStack];
  const net::Message* out[kStack];
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  for (std::size_t off = 0; off < n; off += kStack) {
    const std::size_t m = std::min(kStack, n - off);
    std::uint32_t next = kNone;
    for (std::size_t i = 0; i < m; ++i) {
      shard[i] = static_cast<std::uint32_t>(shard_of(msgs[off + i]->tuple));
      next = std::min(next, shard[i]);
    }
    while (next != kNone) {
      const std::uint32_t k = next;
      next = kNone;
      std::size_t count = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (shard[i] == k) {
          out[count++] = msgs[off + i];
        } else if (shard[i] > k) {
          next = std::min(next, shard[i]);
        }
      }
      muxes_[k]->handle_batch(out, count);
    }
  }
}

}  // namespace klb::lb
