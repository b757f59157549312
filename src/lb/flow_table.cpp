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

/// Per-entry heap cost of a node-based unordered_map: the stored pair
/// plus the node header (next pointer + cached hash in the common
/// libstdc++/libc++ layouts). An estimate — but build-mode independent,
/// which is what the memory bench's ratio gate needs.
constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);

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
    // fill to that scale then never rehashes (a 10M-flow rehash stalls
    // the shard for the whole re-bucketing — the "rehash storm").
    const auto per_shard = cfg.expected_flows / shards_.size() + 1;
    for (auto& s : shards_) s.flows.reserve(per_shard);
  }
}

FlowHit FlowTable::lookup_locked(Shard& s, const net::FiveTuple& t,
                                 util::SimTime now) KLB_NONBLOCKING {
  const auto it = s.flows.find(t);
  if (it == s.flows.end()) return FlowHit{};
  it->second.last_seen = now;
  return FlowHit{FlowHit::Kind::kAffinity, it->second.backend_id};
}

FlowHit FlowTable::lookup(const net::FiveTuple& t,
                          util::SimTime now) KLB_NONALLOCATING {
  auto& s = shards_[shard_of(t)];
  FlowHit hit;
  KLB_EFFECT_ESCAPE("flow.shard_lock", {
    util::MutexLock lk(s.mu);
    hit = lookup_locked(s, t, now);
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
      reqs[0].hit = lookup_locked(s, *reqs[0].tuple, now);
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
        r.hit = lookup_locked(s, *r.tuple, now);
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
  const auto& s = shards_[shard_of(t)];
  util::MutexLock lk(s.mu);
  const auto it = s.flows.find(t);
  if (it == s.flows.end()) return std::nullopt;
  return it->second.backend_id;
}

std::pair<std::uint64_t, bool> FlowTable::try_insert(const net::FiveTuple& t,
                                                     std::uint64_t backend_id,
                                                     util::SimTime now, bool) {
  auto& s = shards_[shard_of(t)];
  util::MutexLock lk(s.mu);
  const auto [it, inserted] = s.flows.emplace(t, Flow{backend_id, now});
  if (!inserted) return {it->second.backend_id, false};
  ++s.inserts;
  return {backend_id, true};
}

void FlowTable::erase_locked(Shard& s, FlowErase& r) {
  const auto it = s.flows.find(*r.tuple);
  if (it == s.flows.end()) {
    r.found = false;
    return;
  }
  r.found = true;
  r.id = it->second.backend_id;
  s.flows.erase(it);
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
      for (auto it = s.flows.begin(); it != s.flows.end();) {
        if (it->second.backend_id == backend_id) {
          if (dropped) gone.push_back(it->first);
          it = s.flows.erase(it);
          ++s.erases;
          ++total;
        } else {
          ++it;
        }
      }
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
    auto doomed = [&](const Flow& f) {
      const bool dead = !alive(f.backend_id);
      const bool idled =
          idle > util::SimTime::zero() && f.last_seen + idle < now;
      return std::make_pair(dead || idled, dead);
    };
    if (max_scan == kScanAll || max_scan >= s.flows.size()) {
      // Unbounded: one pass over the whole shard, erasing in place.
      s.gc_scanned += s.flows.size();
      s.gc_cursor = 0;
      for (auto it = s.flows.begin(); it != s.flows.end();) {
        const auto [kill, dead] = doomed(it->second);
        if (kill) {
          gone.emplace_back(it->first, it->second.backend_id, dead);
          it = s.flows.erase(it);
          ++s.gc_reclaimed;
        } else {
          ++it;
        }
      }
    } else if (!s.flows.empty()) {
      // Bounded: walk whole buckets from the resume cursor until the scan
      // budget is spent (always finishing the bucket in progress), then
      // park the cursor for the next call. Local iterators cannot erase,
      // so doomed keys are collected and erased by lookup afterwards —
      // still under the same lock acquisition.
      const auto buckets = s.flows.bucket_count();
      std::vector<net::FiveTuple> doomed_keys;
      std::size_t scanned = 0;
      std::size_t b = s.gc_cursor % buckets;
      for (std::size_t visited = 0; visited < buckets && scanned < max_scan;
           ++visited, b = (b + 1) % buckets) {
        for (auto it = s.flows.begin(b); it != s.flows.end(b); ++it) {
          ++scanned;
          if (doomed(it->second).first) doomed_keys.push_back(it->first);
        }
      }
      s.gc_cursor = b;
      s.gc_scanned += scanned;
      for (const auto& key : doomed_keys) {
        const auto it = s.flows.find(key);
        if (it == s.flows.end()) continue;
        gone.emplace_back(it->first, it->second.backend_id,
                          doomed(it->second).second);
        s.flows.erase(it);
        ++s.gc_reclaimed;
      }
    }
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
    n += s.flows.size();
  }
  return n;
}

std::size_t FlowTable::shard_size(std::size_t k) const {
  const auto& s = shards_[k & shard_mask_];
  util::MutexLock lk(s.mu);
  return s.flows.size();
}

std::size_t FlowTable::shard_buckets(std::size_t k) const {
  const auto& s = shards_[k & shard_mask_];
  util::MutexLock lk(s.mu);
  return s.flows.bucket_count();
}

FlowTableMemory FlowTable::memory() const {
  FlowTableMemory out;
  for (const auto& s : shards_) {
    util::MutexLock lk(s.mu);
    out.entries += s.flows.size();
    out.buckets += s.flows.bucket_count();
  }
  using Node = std::pair<const net::FiveTuple, Flow>;
  out.approx_bytes = out.entries * (sizeof(Node) + kNodeOverhead) +
                     out.buckets * sizeof(void*) +
                     shards_.size() * sizeof(Shard);
  return out;
}

void FlowTable::for_each(
    const std::function<void(const net::FiveTuple&, std::uint64_t,
                             util::SimTime)>& fn) const {
  for (const auto& s : shards_) {
    util::MutexLock lk(s.mu);
    for (const auto& [tuple, flow] : s.flows)
      fn(tuple, flow.backend_id, flow.last_seen);
  }
}

FlowTableStats FlowTable::stats() const {
  FlowTableStats out;
  for (const auto& s : shards_) {
    util::MutexLock lk(s.mu);
    out.entries += s.flows.size();
    out.inserts += s.inserts;
    out.erases += s.erases;
    out.gc_reclaimed += s.gc_reclaimed;
    out.gc_scanned += s.gc_scanned;
  }
  return out;
}

}  // namespace klb::lb
