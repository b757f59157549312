#include "lb/flow_table.hpp"

#include <algorithm>
#include <tuple>

namespace klb::lb {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// First allocation of a shard's slot array.
constexpr std::size_t kMinCapacity = 16;

/// Slots for `n` flows at no more than 3/4 load.
std::size_t capacity_for(std::size_t n) {
  return round_up_pow2(std::max(kMinCapacity, (n * 4 + 2) / 3));
}

/// The tuple packed as a slot's two key words.
std::uint64_t addrs_of(const net::FiveTuple& t) {
  return (std::uint64_t{t.src_ip.value()} << 32) | t.dst_ip.value();
}
std::uint64_t ports_of(const net::FiveTuple& t) {
  return (std::uint64_t{t.src_port} << 32) | (std::uint64_t{t.dst_port} << 16) |
         (std::uint64_t{static_cast<std::uint8_t>(t.proto)} << 8) | 1u;
}

}  // namespace

FlowTable::FlowTable(FlowTableConfig cfg)
    : shards_(round_up_pow2(std::max<std::size_t>(1, cfg.shard_count))) {
  shard_mask_ = shards_.size() - 1;
  gc_scan_budget_ = cfg.gc_scan_budget;
  if (cfg.expected_flows > 0) {
    // Pre-size every shard for its share of the expected population: the
    // fill to that scale then never grows (a 10M-flow growth stalls the
    // shard for the whole re-insertion — the "rehash storm").
    const auto per_shard = cfg.expected_flows / shards_.size() + 1;
    for (auto& s : shards_) s.slots.resize(capacity_for(per_shard));
  }
}

net::FiveTuple FlowTable::tuple_of(const Slot& slot) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(static_cast<std::uint32_t>(slot.addrs >> 32));
  t.dst_ip = net::IpAddr(static_cast<std::uint32_t>(slot.addrs));
  t.src_port = static_cast<std::uint16_t>(slot.ports >> 32);
  t.dst_port = static_cast<std::uint16_t>(slot.ports >> 16);
  t.proto = static_cast<net::Proto>(static_cast<std::uint8_t>(slot.ports >> 8));
  return t;
}

std::size_t FlowTable::find_in(const Shard& s, std::uint64_t hash,
                               const net::FiveTuple& t) {
  if (s.slots.empty()) return kNotFound;
  const std::uint64_t addrs = addrs_of(t);
  const std::uint64_t ports = ports_of(t);
  const std::size_t mask = s.slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = s.slots[i];
    if (slot.ports == ports && slot.addrs == addrs) return i;
    if (slot.ports == 0) return kNotFound;
  }
}

FlowHit FlowTable::lookup_in(Shard& s, std::uint64_t hash,
                             const net::FiveTuple& t, util::SimTime now) {
  const auto i = find_in(s, hash, t);
  if (i == kNotFound) return FlowHit{};
  s.slots[i].last_seen = now;
  return FlowHit{FlowHit::Kind::kAffinity, s.slots[i].backend_id};
}

void FlowTable::erase_at(Shard& s, std::size_t i) {
  const std::size_t mask = s.slots.size() - 1;
  for (std::size_t j = (i + 1) & mask; s.slots[j].ports != 0;
       j = (j + 1) & mask) {
    // The entry at j may fill the hole at i unless its home lies
    // (cyclically) in (i, j]: then it would land before its home.
    const std::size_t home = net::hash_tuple(tuple_of(s.slots[j])) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      s.slots[i] = s.slots[j];
      i = j;
    }
  }
  s.slots[i].ports = 0;
  --s.size;
}

void FlowTable::resize(Shard& s, std::size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(s.slots);
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.ports == 0) continue;
    std::size_t i = net::hash_tuple(tuple_of(slot)) & mask;
    while (s.slots[i].ports != 0) i = (i + 1) & mask;
    s.slots[i] = slot;
  }
}

std::size_t FlowTable::empty_slot(const Shard& s) {
  std::size_t i = 0;
  while (s.slots[i].ports != 0) ++i;
  return i;
}

template <class Doomed, class Gone>
std::size_t FlowTable::sweep(Shard& s, std::size_t start,
                             std::size_t max_entries, std::size_t& examined,
                             Doomed&& doomed, Gone&& gone) {
  const std::size_t cap = s.slots.size();
  if (cap == 0) return 0;
  std::size_t i = start & (cap - 1);
  for (std::size_t visited = 0; visited < cap && max_entries > 0;) {
    Slot& slot = s.slots[i];
    if (slot.ports != 0) {
      ++examined;
      --max_entries;
      if (doomed(slot)) {
        gone(slot);
        // The shift may have moved a later, unexamined entry into i.
        erase_at(s, i);
        continue;
      }
    }
    i = (i + 1) & (cap - 1);
    ++visited;
  }
  return i;
}

FlowHit FlowTable::lookup(const net::FiveTuple& t, util::SimTime now) {
  const auto hash = net::hash_tuple(t);
  return lookup_in(shards_[shard_index(hash)], hash, t, now);
}

void FlowTable::lookup_batch(FlowLookup* reqs, std::size_t n,
                             util::SimTime now) {
  for (std::size_t i = 0; i < n; ++i) {
    FlowLookup& r = reqs[i];
    r.hit = lookup_in(shards_[shard_index(r.hash)], r.hash, *r.tuple, now);
  }
}

void FlowTable::erase_batch(FlowErase* reqs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    erase_in(shards_[shard_index(reqs[i].hash)], reqs[i]);
}

std::optional<std::uint64_t> FlowTable::try_find(
    const net::FiveTuple& t) const {
  const auto hash = net::hash_tuple(t);
  const auto& s = shards_[shard_index(hash)];
  const auto i = find_in(s, hash, t);
  if (i == kNotFound) return std::nullopt;
  return s.slots[i].backend_id;
}

std::pair<std::uint64_t, bool> FlowTable::try_insert(const net::FiveTuple& t,
                                                     std::uint64_t hash,
                                                     std::uint64_t backend_id,
                                                     util::SimTime now) {
  auto& s = shards_[shard_index(hash)];
  if (const auto i = find_in(s, hash, t); i != kNotFound)
    return {s.slots[i].backend_id, false};
  if ((s.size + 1) * 4 > s.slots.size() * 3)
    resize(s, capacity_for(s.size + 1));
  const std::size_t mask = s.slots.size() - 1;
  std::size_t i = hash & mask;
  while (s.slots[i].ports != 0) i = (i + 1) & mask;
  s.slots[i] = Slot{addrs_of(t), ports_of(t), backend_id, now};
  ++s.size;
  ++s.inserts;
  return {backend_id, true};
}

void FlowTable::erase_in(Shard& s, FlowErase& r) {
  const auto i = find_in(s, r.hash, *r.tuple);
  if (i == kNotFound) {
    r.found = false;
    return;
  }
  r.found = true;
  r.id = s.slots[i].backend_id;
  erase_at(s, i);
  ++s.erases;
}

std::optional<std::uint64_t> FlowTable::erase(const net::FiveTuple& t) {
  FlowErase r;
  r.tuple = &t;
  r.hash = net::hash_tuple(t);
  erase_in(shards_[shard_index(r.hash)], r);
  if (!r.found) return std::nullopt;
  return r.id;
}

std::size_t FlowTable::erase_backend(
    std::uint64_t backend_id,
    const std::function<void(const net::FiveTuple&)>& dropped) {
  std::size_t total = 0;
  std::vector<net::FiveTuple> gone;  // reported after the shard's sweep
  for (auto& s : shards_) {
    if (s.size == 0) continue;
    gone.clear();
    std::size_t examined = 0;
    const auto before = s.size;
    sweep(
        s, empty_slot(s), s.size, examined,
        [&](const Slot& f) { return f.backend_id == backend_id; },
        [&](const Slot& f) {
          if (dropped) gone.push_back(tuple_of(f));
        });
    s.erases += before - s.size;
    total += before - s.size;
    if (dropped)
      for (const auto& t : gone) dropped(t);
  }
  return total;
}

std::size_t FlowTable::gc_shard(
    std::size_t k, util::SimTime now, util::SimTime idle,
    const std::function<bool(std::uint64_t)>& alive,
    const std::function<void(const net::FiveTuple&, std::uint64_t, bool)>&
        reclaimed,
    std::size_t max_scan) {
  auto& s = shards_[k & shard_mask_];
  if (max_scan == kScanBudgeted) max_scan = gc_scan_budget_;
  if (s.size == 0) return 0;
  // (tuple, backend_id, dead) per reclaimed flow, gathered during the sweep
  // and reported after it — the callback may reenter the table.
  std::vector<std::tuple<net::FiveTuple, std::uint64_t, bool>> gone;
  bool dead = false;
  const auto doomed = [&](const Slot& f) {
    dead = !alive(f.backend_id);
    return dead || (idle > util::SimTime::zero() && f.last_seen + idle < now);
  };
  const auto reap = [&](const Slot& f) {
    gone.emplace_back(tuple_of(f), f.backend_id, dead);
  };
  std::size_t scanned = 0;
  if (max_scan == kScanAll || max_scan >= s.size) {
    // Unbounded: one lap over the whole shard from an empty slot.
    sweep(s, empty_slot(s), s.size, scanned, doomed, reap);
    s.gc_cursor = 0;
  } else {
    // Bounded: resume at the cursor, examine up to the budget, and park
    // the cursor on the first slot not yet examined.
    s.gc_cursor = sweep(s, s.gc_cursor, max_scan, scanned, doomed, reap);
  }
  s.gc_scanned += scanned;
  s.gc_reclaimed += gone.size();
  if (reclaimed)
    for (const auto& [tuple, id, dead] : gone) reclaimed(tuple, id, dead);
  return gone.size();
}

std::size_t FlowTable::gc(
    util::SimTime now, util::SimTime idle,
    const std::function<bool(std::uint64_t)>& alive,
    const std::function<void(const net::FiveTuple&, std::uint64_t, bool)>&
        reclaimed) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < shards_.size(); ++k)
    n += gc_shard(k, now, idle, alive, reclaimed, kScanAll);
  return n;
}

std::size_t FlowTable::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.size;
  return n;
}

std::size_t FlowTable::shard_size(std::size_t k) const {
  return shards_[k & shard_mask_].size;
}

std::size_t FlowTable::shard_capacity(std::size_t k) const {
  return shards_[k & shard_mask_].slots.size();
}

FlowTableMemory FlowTable::memory() const {
  FlowTableMemory out;
  for (const auto& s : shards_) {
    out.entries += s.size;
    out.slots += s.slots.size();
  }
  out.approx_bytes =
      out.slots * sizeof(Slot) + shards_.size() * sizeof(Shard);
  return out;
}

void FlowTable::for_each(
    const std::function<void(const net::FiveTuple&, std::uint64_t,
                             util::SimTime)>& fn) const {
  for (const auto& s : shards_) {
    for (const Slot& slot : s.slots)
      if (slot.ports != 0) fn(tuple_of(slot), slot.backend_id, slot.last_seen);
  }
}

FlowTableStats FlowTable::stats() const {
  FlowTableStats out;
  for (const auto& s : shards_) {
    out.entries += s.size;
    out.inserts += s.inserts;
    out.erases += s.erases;
    out.gc_reclaimed += s.gc_reclaimed;
    out.gc_scanned += s.gc_scanned;
  }
  return out;
}

}  // namespace klb::lb
