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
std::uint64_t addrs_of(const net::FiveTuple& t) KLB_NONBLOCKING {
  return (std::uint64_t{t.src_ip.value()} << 32) | t.dst_ip.value();
}
std::uint64_t ports_of(const net::FiveTuple& t) KLB_NONBLOCKING {
  return (std::uint64_t{t.src_port} << 32) | (std::uint64_t{t.dst_port} << 16) |
         (std::uint64_t{static_cast<std::uint8_t>(t.proto)} << 8) | 1u;
}

/// Stable counting sort of batch indices by shard: afterwards idx[]
/// enumerates [0, n) grouped by shard_of_req, burst order preserved
/// within a shard. Counting sort beats a comparison sort on the
/// per-packet path twice over — the shard index is computed exactly once
/// per message (by the caller, into shard_of_req) and nothing allocates
/// (std::stable_sort grabs a heap buffer even for a 32-element burst).
/// `counts` must hold `shards` zeroed slots; it is clobbered.
void group_by_shard(const std::uint32_t* shard_of_req, std::size_t n,
                    std::size_t shards, std::uint32_t* counts,
                    std::uint32_t* idx) KLB_NONBLOCKING {
  for (std::size_t i = 0; i < n; ++i) ++counts[shard_of_req[i]];
  std::uint32_t cursor = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto c = counts[s];
    counts[s] = cursor;
    cursor += c;
  }
  for (std::size_t i = 0; i < n; ++i)
    idx[counts[shard_of_req[i]]++] = static_cast<std::uint32_t>(i);
}

/// Grouping scratch for batches whose (n, shard_count) outgrows the stack
/// buffer. Per thread, grown geometrically and reused: the old heap_buf
/// fallback re-allocated on *every* oversized batch (any table with >64
/// shards paid a malloc per burst — exactly the regression class this
/// PR's effect contracts exist to name). Accessed only inside the
/// "flow.scratch_grow" escape: the thread_local wrapper and the rare
/// resize are invisible to the effect analysis.
std::uint32_t* batch_scratch(std::size_t words) {
  thread_local std::vector<std::uint32_t> scratch;
  if (scratch.size() < words) scratch.resize(words);
  return scratch.data();
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
    for (auto& s : shards_) {
      util::MutexLock lk(s.mu);
      s.slots.resize(capacity_for(per_shard));
    }
  }
}

net::FiveTuple FlowTable::tuple_of(const Slot& slot) KLB_NONBLOCKING {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(static_cast<std::uint32_t>(slot.addrs >> 32));
  t.dst_ip = net::IpAddr(static_cast<std::uint32_t>(slot.addrs));
  t.src_port = static_cast<std::uint16_t>(slot.ports >> 32);
  t.dst_port = static_cast<std::uint16_t>(slot.ports >> 16);
  t.proto = static_cast<net::Proto>(static_cast<std::uint8_t>(slot.ports >> 8));
  return t;
}

std::size_t FlowTable::find_locked(const Shard& s, std::uint64_t hash,
                                   const net::FiveTuple& t) KLB_NONBLOCKING {
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

FlowHit FlowTable::lookup_locked(Shard& s, std::uint64_t hash,
                                 const net::FiveTuple& t,
                                 util::SimTime now) KLB_NONBLOCKING {
  const auto i = find_locked(s, hash, t);
  if (i == kNotFound) return FlowHit{};
  s.slots[i].last_seen = now;
  return FlowHit{FlowHit::Kind::kAffinity, s.slots[i].backend_id};
}

void FlowTable::erase_at(Shard& s, std::size_t i) KLB_NONBLOCKING {
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

void FlowTable::resize_locked(Shard& s, std::size_t capacity) {
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

std::size_t FlowTable::empty_slot_locked(const Shard& s) {
  std::size_t i = 0;
  while (s.slots[i].ports != 0) ++i;
  return i;
}

template <class Doomed, class Gone>
std::size_t FlowTable::sweep_locked(Shard& s, std::size_t start,
                                    std::size_t max_entries,
                                    std::size_t& examined, Doomed&& doomed,
                                    Gone&& gone) {
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

FlowHit FlowTable::lookup(const net::FiveTuple& t,
                          util::SimTime now) KLB_NONALLOCATING {
  const auto hash = net::hash_tuple(t);
  auto& s = shards_[shard_index(hash)];
  FlowHit hit;
  KLB_EFFECT_ESCAPE("flow.shard_lock", {
    util::MutexLock lk(s.mu);
    hit = lookup_locked(s, hash, t, now);
  });
  return hit;
}

void FlowTable::lookup_batch(FlowLookup* reqs, std::size_t n,
                             util::SimTime now) KLB_NONALLOCATING {
  if (n == 0) return;
  if (n == 1) {
    auto& s = shards_[shard_index(reqs[0].hash)];
    KLB_EFFECT_ESCAPE("flow.shard_lock", {
      util::MutexLock lk(s.mu);
      reqs[0].hit = lookup_locked(s, reqs[0].hash, *reqs[0].tuple, now);
    });
    return;
  }
  // Group by shard (stable, allocation-free — see group_by_shard), then
  // take each shard lock once for its run.
  constexpr std::size_t kStack = 64;
  std::uint32_t stack_buf[3 * kStack];
  std::uint32_t* buf = stack_buf;
  const std::size_t width = std::max(n, shards_.size());
  if (width > kStack)
    KLB_EFFECT_ESCAPE("flow.scratch_grow", buf = batch_scratch(3 * width));
  std::uint32_t* shard_of_req = buf;
  std::uint32_t* idx = buf + width;
  std::uint32_t* counts = buf + 2 * width;
  std::fill(counts, counts + shards_.size(), 0u);
  for (std::size_t i = 0; i < n; ++i)
    shard_of_req[i] = static_cast<std::uint32_t>(shard_index(reqs[i].hash));
  group_by_shard(shard_of_req, n, shards_.size(), counts, idx);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t shard = shard_of_req[idx[i]];
    auto& s = shards_[shard];
    KLB_EFFECT_ESCAPE("flow.shard_lock", {
      util::MutexLock lk(s.mu);
      do {
        FlowLookup& r = reqs[idx[i]];
        r.hit = lookup_locked(s, r.hash, *r.tuple, now);
        ++i;
      } while (i < n && shard_of_req[idx[i]] == shard);
    });
  }
}

void FlowTable::erase_batch(FlowErase* reqs, std::size_t n) KLB_NONALLOCATING {
  if (n == 0) return;
  if (n == 1) {
    auto& s = shards_[shard_index(reqs[0].hash)];
    KLB_EFFECT_ESCAPE("flow.shard_lock", {
      util::MutexLock lk(s.mu);
      erase_locked(s, reqs[0]);
    });
    return;
  }
  constexpr std::size_t kStack = 64;
  std::uint32_t stack_buf[3 * kStack];
  std::uint32_t* buf = stack_buf;
  const std::size_t width = std::max(n, shards_.size());
  if (width > kStack)
    KLB_EFFECT_ESCAPE("flow.scratch_grow", buf = batch_scratch(3 * width));
  std::uint32_t* shard_of_req = buf;
  std::uint32_t* idx = buf + width;
  std::uint32_t* counts = buf + 2 * width;
  std::fill(counts, counts + shards_.size(), 0u);
  for (std::size_t i = 0; i < n; ++i)
    shard_of_req[i] = static_cast<std::uint32_t>(shard_index(reqs[i].hash));
  group_by_shard(shard_of_req, n, shards_.size(), counts, idx);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t shard = shard_of_req[idx[i]];
    auto& s = shards_[shard];
    KLB_EFFECT_ESCAPE("flow.shard_lock", {
      util::MutexLock lk(s.mu);
      do {
        erase_locked(s, reqs[idx[i]]);
        ++i;
      } while (i < n && shard_of_req[idx[i]] == shard);
    });
  }
}

std::optional<std::uint64_t> FlowTable::try_find(
    const net::FiveTuple& t) const {
  const auto hash = net::hash_tuple(t);
  const auto& s = shards_[shard_index(hash)];
  util::MutexLock lk(s.mu);
  const auto i = find_locked(s, hash, t);
  if (i == kNotFound) return std::nullopt;
  return s.slots[i].backend_id;
}

std::pair<std::uint64_t, bool> FlowTable::try_insert(const net::FiveTuple& t,
                                                     std::uint64_t hash,
                                                     std::uint64_t backend_id,
                                                     util::SimTime now) {
  auto& s = shards_[shard_index(hash)];
  util::MutexLock lk(s.mu);
  if (const auto i = find_locked(s, hash, t); i != kNotFound)
    return {s.slots[i].backend_id, false};
  if ((s.size + 1) * 4 > s.slots.size() * 3)
    resize_locked(s, capacity_for(s.size + 1));
  const std::size_t mask = s.slots.size() - 1;
  std::size_t i = hash & mask;
  while (s.slots[i].ports != 0) i = (i + 1) & mask;
  s.slots[i] = Slot{addrs_of(t), ports_of(t), backend_id, now};
  ++s.size;
  ++s.inserts;
  return {backend_id, true};
}

void FlowTable::erase_locked(Shard& s, FlowErase& r) KLB_NONBLOCKING {
  const auto i = find_locked(s, r.hash, *r.tuple);
  if (i == kNotFound) {
    r.found = false;
    return;
  }
  r.found = true;
  r.id = s.slots[i].backend_id;
  erase_at(s, i);
  ++s.erases;
}

std::optional<std::uint64_t> FlowTable::erase(const net::FiveTuple& t)
    KLB_NONALLOCATING {
  FlowErase r;
  r.tuple = &t;
  r.hash = net::hash_tuple(t);
  auto& s = shards_[shard_index(r.hash)];
  KLB_EFFECT_ESCAPE("flow.shard_lock", {
    util::MutexLock lk(s.mu);
    erase_locked(s, r);
  });
  if (!r.found) return std::nullopt;
  return r.id;
}

std::size_t FlowTable::erase_backend(
    std::uint64_t backend_id,
    const std::function<void(const net::FiveTuple&)>& dropped) {
  std::size_t total = 0;
  std::vector<net::FiveTuple> gone;  // reported after the shard lock drops
  for (auto& s : shards_) {
    gone.clear();
    {
      util::MutexLock lk(s.mu);
      if (s.size == 0) continue;
      std::size_t examined = 0;
      const auto before = s.size;
      sweep_locked(
          s, empty_slot_locked(s), s.size, examined,
          [&](const Slot& f) { return f.backend_id == backend_id; },
          [&](const Slot& f) {
            if (dropped) gone.push_back(tuple_of(f));
          });
      s.erases += before - s.size;
      total += before - s.size;
    }
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
  // (tuple, backend_id, dead) per reclaimed flow, gathered under the lock
  // and reported after it drops — the callback may reenter the table or
  // take caller-side locks without deadlocking against the packet path.
  std::vector<std::tuple<net::FiveTuple, std::uint64_t, bool>> gone;
  {
    util::MutexLock lk(s.mu);
    if (s.size == 0) return 0;
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
      sweep_locked(s, empty_slot_locked(s), s.size, scanned, doomed, reap);
      s.gc_cursor = 0;
    } else {
      // Bounded: resume at the cursor, examine up to the budget, and park
      // the cursor on the first slot not yet examined.
      s.gc_cursor =
          sweep_locked(s, s.gc_cursor, max_scan, scanned, doomed, reap);
    }
    s.gc_scanned += scanned;
    s.gc_reclaimed += gone.size();
  }
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
  for (const auto& s : shards_) {
    util::MutexLock lk(s.mu);
    n += s.size;
  }
  return n;
}

std::size_t FlowTable::shard_size(std::size_t k) const {
  const auto& s = shards_[k & shard_mask_];
  util::MutexLock lk(s.mu);
  return s.size;
}

std::size_t FlowTable::shard_capacity(std::size_t k) const {
  const auto& s = shards_[k & shard_mask_];
  util::MutexLock lk(s.mu);
  return s.slots.size();
}

FlowTableMemory FlowTable::memory() const {
  FlowTableMemory out;
  for (const auto& s : shards_) {
    util::MutexLock lk(s.mu);
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
    util::MutexLock lk(s.mu);
    for (const Slot& slot : s.slots)
      if (slot.ports != 0) fn(tuple_of(slot), slot.backend_id, slot.last_seen);
  }
}

FlowTableStats FlowTable::stats() const {
  FlowTableStats out;
  for (const auto& s : shards_) {
    util::MutexLock lk(s.mu);
    out.entries += s.size;
    out.inserts += s.inserts;
    out.erases += s.erases;
    out.gc_reclaimed += s.gc_reclaimed;
    out.gc_scanned += s.gc_scanned;
  }
  return out;
}

}  // namespace klb::lb
