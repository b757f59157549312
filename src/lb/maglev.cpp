#include "lb/maglev.hpp"

#include <algorithm>

#include "net/five_tuple.hpp"
#include "util/weight.hpp"

namespace klb::lb {

namespace {

/// SplitMix64 finalizer: the same mixer the RNG seeds with, used here to
/// derive a backend's (offset, skip) from nothing but its stable id.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

bool is_prime(std::size_t n) {
  if (n < 2) return false;
  if (n % 2 == 0) return n == 2;
  for (std::size_t d = 3; d * d <= n; d += 2)
    if (n % d == 0) return false;
  return true;
}

std::size_t next_prime(std::size_t n) {
  while (!is_prime(n)) ++n;
  return n;
}

}  // namespace

MaglevTable::MaglevTable(std::size_t min_table_size) {
  slots_.assign(next_prime(std::max<std::size_t>(min_table_size, 3)),
                kEmptySlot);
}

void MaglevTable::build(const std::vector<MaglevEntry>& entries) {
  ++builds_;
  const std::size_t m = slots_.size();
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  ids_.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) ids_[i] = entries[i].id;

  std::vector<std::uint32_t> usable;  // entry indexes with positive weight
  std::vector<std::int64_t> weights;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].weight_units <= 0) continue;
    usable.push_back(static_cast<std::uint32_t>(i));
    weights.push_back(entries[i].weight_units);
  }
  if (usable.empty()) return;

  // Largest-remainder slot apportionment — the same algorithm (and code)
  // the controller uses to make weight units sum to kWeightScale, here
  // with the table size as the total: exact to within one slot.
  const auto targets = util::normalize_to_units(
      std::vector<double>(weights.begin(), weights.end()),
      static_cast<std::int64_t>(m));

  // Per-backend permutation state: slot_j = (offset + j * skip) % m. With
  // m prime every skip in [1, m-1] walks all m slots, so the fill below
  // always terminates (sum of targets == m).
  const std::size_t n = usable.size();
  std::vector<std::size_t> offset(n), skip(n), next(n, 0), taken(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t h = mix64(entries[usable[k]].id);
    offset[k] = static_cast<std::size_t>(h % m);
    skip[k] = static_cast<std::size_t>(
                  1 + mix64(h ^ 0x9e3779b97f4a7c15ull) % (m - 1));
  }

  // Round-robin fill: each backend claims the next free slot of its own
  // permutation until it holds its apportioned share. Because permutations
  // depend only on the id, a pool change leaves every surviving backend
  // claiming (almost) the same slots — the minimal-disruption property.
  std::size_t filled = 0;
  while (filled < m) {
    for (std::size_t k = 0; k < n && filled < m; ++k) {
      if (taken[k] >= static_cast<std::size_t>(targets[k])) continue;
      std::size_t pos;
      do {
        pos = (offset[k] + next[k] * skip[k]) % m;
        ++next[k];
      } while (slots_[pos] != kEmptySlot);
      slots_[pos] = usable[k];
      ++taken[k];
      ++filled;
    }
  }
}

void MaglevTable::resolve_slots(std::vector<std::uint32_t>& out) const {
  out.resize(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const auto e = slots_[s];
    out[s] = e == kEmptySlot ? 0xFFFFFFFFu
                             : static_cast<std::uint32_t>(ids_[e]);
  }
}

std::vector<std::size_t> MaglevTable::slot_counts() const {
  std::vector<std::size_t> counts(ids_.size(), 0);
  for (const auto s : slots_)
    if (s != kEmptySlot) ++counts[s];
  return counts;
}

std::size_t MaglevPolicy::pick(const net::FiveTuple& tuple,
                               const std::vector<BackendView>& backends,
                               util::Rng&) KLB_NONALLOCATING {
  if (dirty_ || backends.size() != cached_count_)
    KLB_EFFECT_ESCAPE("policy.maglev_rebuild", rebuild(backends));
  const auto idx = table_.lookup(net::hash_tuple(tuple));
  if (idx == MaglevTable::kEmptySlot) return kNoBackend;
  return idx;  // entries are built 1:1 with backend indexes
}

std::size_t SharedMaglevPolicy::pick(const net::FiveTuple& tuple,
                                     const std::vector<BackendView>& backends,
                                     util::Rng&) KLB_NONALLOCATING {
  if (!table_) return kNoBackend;
  const auto id = table_->lookup_id(net::hash_tuple(tuple));
  if (id == MaglevTable::kNoId) return kNoBackend;
  // The table and the pool commit together, so a miss means the snapshot
  // predates this view; refuse rather than guess. Last match wins, like
  // PoolGeneration::index_of_addr.
  for (std::size_t i = backends.size(); i-- > 0;) {
    const auto& b = backends[i];
    if (b.addr.value() != id) continue;
    return b.weight_units > 0 ? i : kNoBackend;
  }
  return kNoBackend;
}

void MaglevPolicy::rebuild(const std::vector<BackendView>& backends) {
  std::vector<MaglevEntry> entries(backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    entries[i].id = backends[i].addr.value();
    entries[i].weight_units =
        backends[i].enabled ? backends[i].weight_units : 0;
  }
  table_.build(entries);
  cached_count_ = backends.size();
  dirty_ = false;
}

}  // namespace klb::lb
