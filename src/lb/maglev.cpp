#include "lb/maglev.hpp"

#include <algorithm>

#include "lb/pool_generation.hpp"
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
  const std::size_t m = slots_.size();
  ids_.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) ids_[i] = entries[i].id;

  std::vector<std::uint32_t> usable;  // entry indexes with positive weight
  std::vector<std::int64_t> weights;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].weight_units <= 0) continue;
    usable.push_back(static_cast<std::uint32_t>(i));
    weights.push_back(entries[i].weight_units);
  }
  // The fill below claims every slot whenever any entry has weight, so
  // only a table with no weight at all has slots to clear.
  if (usable.empty()) {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    return;
  }

  // Largest-remainder slot apportionment — the same algorithm (and code)
  // the controller uses to make weight units sum to kWeightScale, here
  // with the table size as the total: exact to within one slot.
  const auto targets = util::normalize_to_units(
      std::vector<double>(weights.begin(), weights.end()),
      static_cast<std::int64_t>(m));

  // Per-backend permutation: slot_j = (offset + j * skip) % m. With m
  // prime every skip in [1, m-1] walks all m slots, so the fill below
  // always terminates (sum of targets == m). pos[k] is backend k's next
  // slot; since pos and skip are both below m, one conditional subtract
  // after each step keeps it equal to the % form without a division.
  const std::size_t n = usable.size();
  std::vector<std::size_t> pos(n), skip(n), taken(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t h = mix64(entries[usable[k]].id);
    pos[k] = static_cast<std::size_t>(h % m);
    skip[k] = static_cast<std::size_t>(
                  1 + mix64(h ^ 0x9e3779b97f4a7c15ull) % (m - 1));
  }

  // Round-robin fill: each backend claims the next free slot of its own
  // permutation until it holds its apportioned share. Because permutations
  // depend only on the id, a pool change leaves every surviving backend
  // claiming (almost) the same slots — the minimal-disruption property.
  // The probes test a local occupancy bitmap (m bits: 8 KB at the default
  // size, so it stays in L1) rather than the slot array itself.
  std::vector<std::uint64_t> occupied((m + 63) / 64, 0);
  std::size_t filled = 0;
  while (filled < m) {
    for (std::size_t k = 0; k < n && filled < m; ++k) {
      if (taken[k] >= static_cast<std::size_t>(targets[k])) continue;
      std::size_t& p = pos[k];
      const auto step = [&] {
        p += skip[k];
        if (p >= m) p -= m;
      };
      while (occupied[p >> 6] >> (p & 63) & 1) step();
      occupied[p >> 6] |= std::uint64_t{1} << (p & 63);
      slots_[p] = usable[k];
      step();
      ++taken[k];
      ++filled;
    }
  }
}

std::vector<std::size_t> MaglevTable::slot_counts() const {
  std::vector<std::size_t> counts(ids_.size(), 0);
  for (const auto s : slots_)
    if (s != kEmptySlot) ++counts[s];
  return counts;
}

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

std::size_t MaglevPolicy::pick(const net::FiveTuple& tuple,
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
    return b.enabled && b.weight_units > 0 ? i : kNoBackend;
  }
  return kNoBackend;
}

}  // namespace klb::lb
