#include "lb/maglev.hpp"

#include <algorithm>
#include <stdexcept>

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

/// The prime slot count for `min_table_size`. The fill keeps slot
/// positions in 32 bits, so a table holds at most ~2^31 slots (8 GB).
std::size_t table_size_for(std::size_t min_table_size) {
  if (min_table_size > (std::size_t{1} << 31))
    throw std::length_error("MaglevTable: more than 2^31 slots");
  return next_prime(std::max<std::size_t>(min_table_size, 3));
}

/// Probes per group of a refill scan: the scan's unroll width.
constexpr std::size_t kProbeGroup = 8;
/// Most free slots one refill asks for ahead of a backend's claims.
constexpr std::size_t kRunAhead = 64;

/// One backend's permutation walk during a build: slot_j = (offset + j *
/// skip) % m. `next` is the first slot of the walk not yet scanned. The
/// backend's buffered candidates are ahead[base + head, base + count).
struct Walk {
  std::uint32_t next = 0;
  std::uint32_t skip = 0;
  std::uint32_t left = 0;  // slots still to claim
  std::uint32_t head = 0;
  std::uint32_t count = 0;
  std::size_t base = 0;
};

/// (a + b) % m for a, b < m: one conditional subtract, as a mask so that
/// it compiles to no branch.
std::size_t add_mod(std::size_t a, std::size_t b, std::size_t m) {
  const std::size_t s = a + b;
  return s - (m & (std::size_t{0} - (s >= m)));
}

bool is_free(const std::vector<std::uint64_t>& occupied, std::size_t s) {
  return (~occupied[s >> 6] >> (s & 63)) & 1;
}

/// Refills `w`'s buffer `out` with the free slots of its walk from
/// w.next, in walk order, scanning whole groups until it holds at least
/// `limit`; `out` must hold limit + kProbeGroup - 1 slots. Each probe
/// stores its slot and adds its free bit to the count, so the scan
/// branches once per group, not once per probe. Every slot the walk
/// scanned before w.next is taken, so all free slots lie ahead of it: a
/// scan that runs on past a lap only re-collects slots already earlier in
/// the buffer, which claims then skip as taken. The caller's `limit`
/// never exceeds the free slots left, so the scan stops within one lap
/// plus a group.
void refill(Walk& w, std::uint32_t* out,
            const std::vector<std::uint64_t>& occupied, std::size_t m,
            std::size_t limit) {
  // stride[j] = (j + 1) * skip % m, so a group's probes are independent
  // adds off one position.
  std::size_t stride[kProbeGroup];
  stride[0] = w.skip;
  for (std::size_t j = 1; j < kProbeGroup; ++j)
    stride[j] = add_mod(stride[j - 1], w.skip, m);
  std::uint32_t count = 0;
  std::size_t p = w.next;
  do {
    out[count] = static_cast<std::uint32_t>(p);
    count += is_free(occupied, p);
    for (std::size_t j = 0; j + 1 < kProbeGroup; ++j) {
      const std::size_t s = add_mod(p, stride[j], m);
      out[count] = static_cast<std::uint32_t>(s);
      count += is_free(occupied, s);
    }
    p = add_mod(p, stride[kProbeGroup - 1], m);
  } while (count < limit);
  w.next = static_cast<std::uint32_t>(p);
  w.head = 0;
  w.count = count;
}

}  // namespace

MaglevTable::MaglevTable(std::size_t min_table_size)
    : size_(table_size_for(min_table_size)),
      slots_(new std::uint32_t[size_]) {
  std::fill_n(slots_.get(), size_, kEmptySlot);
}

MaglevTable::MaglevTable(std::size_t min_table_size,
                         const std::vector<MaglevEntry>& entries)
    : size_(table_size_for(min_table_size)),
      slots_(new std::uint32_t[size_]) {
  build(entries);
}

void MaglevTable::build(const std::vector<MaglevEntry>& entries) {
  const std::size_t m = size_;
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
    std::fill_n(slots_.get(), m, kEmptySlot);
    return;
  }

  // Largest-remainder slot apportionment — the same algorithm (and code)
  // the controller uses to make weight units sum to kWeightScale, here
  // with the table size as the total: exact to within one slot.
  const auto targets = util::normalize_to_units(
      std::vector<double>(weights.begin(), weights.end()),
      static_cast<std::int64_t>(m));

  // With m prime every skip in [1, m-1] walks all m slots, and the
  // targets sum to m, so the fill below always terminates. Positions and
  // strides are below m, so one conditional subtract after an add keeps a
  // walk equal to the % form without a division.
  //
  // A refill asks for min(kRunAhead, the backend's remaining target, half
  // its share of the free slots) candidates. The last bound keeps the
  // candidates from going stale before their claims: between two claims
  // of one backend every other backend claims once, so in a pool of
  // thousands a long run-ahead is mostly taken by the time it is reached.
  // No bound exceeds the free slots left (the remaining targets sum to
  // them), so a refill stops within one lap of its walk.
  const std::size_t n = usable.size();
  // Half a backend's share of the whole table: no later bound exceeds it,
  // so it sizes the buffers.
  const std::size_t half_share = std::max<std::size_t>(1, m / (2 * n));
  std::vector<Walk> walks(n);
  std::size_t scratch = 0;
  for (std::size_t k = 0; k < n; ++k) {
    Walk& w = walks[k];
    const std::uint64_t h = mix64(entries[usable[k]].id);
    w.next = static_cast<std::uint32_t>(h % m);
    w.skip = static_cast<std::uint32_t>(
        1 + mix64(h ^ 0x9e3779b97f4a7c15ull) % (m - 1));
    w.left = static_cast<std::uint32_t>(targets[k]);
    w.base = scratch;
    scratch +=
        std::min<std::size_t>({kRunAhead, w.left, half_share}) + kProbeGroup;
  }
  std::vector<std::uint32_t> ahead(scratch);

  // Round-robin fill: each backend claims the next free slot of its own
  // permutation until it holds its apportioned share. Because permutations
  // depend only on the id, a pool change leaves every surviving backend
  // claiming (almost) the same slots — the minimal-disruption property.
  // A claim takes the first buffered candidate still free, refilling the
  // buffer when it runs dry: by the run-ahead invariant that is the slot a
  // one-probe-at-a-time walk would stop at. Probes test a local occupancy
  // bitmap (m bits: 8 KB at the default size, so it stays in L1) rather
  // than the slot array itself.
  std::vector<std::uint64_t> occupied((m + 63) / 64, 0);
  std::size_t filled = 0;
  while (filled < m) {
    for (std::size_t k = 0; k < n && filled < m; ++k) {
      Walk& w = walks[k];
      if (w.left == 0) continue;
      std::uint32_t* buffer = ahead.data() + w.base;
      std::uint32_t p = 0;
      do {
        if (w.head == w.count) {
          const std::size_t half_free_share =
              std::max<std::size_t>(1, (m - filled) / (2 * n));
          refill(w, buffer, occupied, m,
                 std::min<std::size_t>({kRunAhead, w.left, half_free_share}));
        }
        p = buffer[w.head++];
      } while (!is_free(occupied, p));
      occupied[p >> 6] |= std::uint64_t{1} << (p & 63);
      slots_[p] = usable[k];
      --w.left;
      ++filled;
    }
  }
}

std::vector<std::size_t> MaglevTable::slot_counts() const {
  std::vector<std::size_t> counts(ids_.size(), 0);
  for (std::size_t i = 0; i < size_; ++i)
    if (slots_[i] != kEmptySlot) ++counts[slots_[i]];
  return counts;
}

std::shared_ptr<const MaglevTable> build_table(
    const std::vector<GenBackend>& backends, std::size_t min_table_size) {
  std::vector<MaglevEntry> entries;
  for (const auto& b : backends)
    if (!b.draining)
      entries.push_back(MaglevEntry{b.addr.value(), b.weight_units});
  return std::make_shared<const MaglevTable>(min_table_size, entries);
}

std::size_t MaglevPolicy::pick(const net::FiveTuple& tuple,
                               const std::vector<BackendView>& backends,
                               util::Rng&) {
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
