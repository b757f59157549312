#include "lb/policy.hpp"

#include <stdexcept>

#include "lb/maglev.hpp"
#include "server/dip_server.hpp"
#include "util/weight.hpp"

namespace klb::lb {

const std::vector<std::size_t>& Policy::usable(
    const std::vector<BackendView>& backends, bool need_weight) {
  if (usable_dirty_ || backends.size() != usable_pool_size_ ||
      need_weight != usable_need_weight_) {
    usable_.clear();
    usable_.reserve(backends.size());
    for (std::size_t i = 0; i < backends.size(); ++i) {
      if (!backends[i].enabled) continue;
      if (need_weight && backends[i].weight_units <= 0) continue;
      usable_.push_back(i);
    }
    usable_pool_size_ = backends.size();
    usable_need_weight_ = need_weight;
    usable_dirty_ = false;
  }
  return usable_;
}

std::size_t RoundRobin::pick(const net::FiveTuple&,
                             const std::vector<BackendView>& backends,
                             util::Rng&) {
  const auto& idx = usable(backends, /*need_weight=*/false);
  if (idx.empty()) return kNoBackend;
  return idx[counter_++ % idx.size()];
}

std::size_t SmoothWeightedRoundRobin::pick(
    const net::FiveTuple&, const std::vector<BackendView>& backends,
    util::Rng&) {
  const auto& idx = usable(backends, /*need_weight=*/true);
  if (membership_dirty_ || current_.size() != backends.size()) {
    // Credits are index-keyed: reset them whenever the index -> backend
    // mapping changed (any membership difference, same-size swaps
    // included), but keep them across pure reweights so the smoothing
    // stays smooth through controller reprogramming.
    bool changed = members_.size() != backends.size();
    for (std::size_t i = 0; !changed && i < backends.size(); ++i)
      changed = members_[i] != backends[i].addr.value();
    if (changed) {
      current_.assign(backends.size(), 0);
      members_.resize(backends.size());
      for (std::size_t i = 0; i < backends.size(); ++i)
        members_[i] = backends[i].addr.value();
    }
    membership_dirty_ = false;
  }

  std::int64_t total = 0;
  std::size_t best = kNoBackend;
  for (const auto i : idx) {
    current_[i] += backends[i].weight_units;
    total += backends[i].weight_units;
    if (best == kNoBackend || current_[i] > current_[best]) best = i;
  }
  if (best == kNoBackend) return kNoBackend;
  current_[best] -= total;
  return best;
}

std::size_t LeastConnection::pick(const net::FiveTuple&,
                                  const std::vector<BackendView>& backends,
                                  util::Rng& rng) {
  const auto& idx = usable(backends, /*need_weight=*/false);
  if (idx.empty()) return kNoBackend;
  // Count the ties, draw one, walk to it: no scratch list to allocate.
  std::uint64_t best_conns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t ties = 0;
  for (const auto i : idx) {
    if (backends[i].active_conns < best_conns) {
      best_conns = backends[i].active_conns;
      ties = 1;
    } else if (backends[i].active_conns == best_conns) {
      ++ties;
    }
  }
  auto k = rng.uniform_int(ties);
  for (const auto i : idx)
    if (backends[i].active_conns == best_conns && k-- == 0) return i;
  return kNoBackend;  // unreachable: k < ties
}

std::size_t WeightedLeastConnection::pick(
    const net::FiveTuple&, const std::vector<BackendView>& backends,
    util::Rng& rng) {
  const auto& idx = usable(backends, /*need_weight=*/true);
  if (idx.empty()) return kNoBackend;
  // +1 so empty backends still differentiate by weight.
  auto score = [&](std::size_t i) {
    return (static_cast<double>(backends[i].active_conns) + 1.0) /
           static_cast<double>(backends[i].weight_units);
  };
  // The ties are the last new best (at `first`) and every later backend
  // within tolerance of it. Count them, draw one, walk to it.
  double best_score = std::numeric_limits<double>::infinity();
  std::size_t first = 0;
  std::uint64_t ties = 0;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const double s = score(idx[k]);
    if (s < best_score - 1e-12) {
      best_score = s;
      first = k;
      ties = 1;
    } else if (s <= best_score + 1e-12) {
      ++ties;
    }
  }
  auto r = rng.uniform_int(ties);
  for (std::size_t k = first; k < idx.size(); ++k)
    if (score(idx[k]) <= best_score + 1e-12 && r-- == 0) return idx[k];
  return kNoBackend;  // unreachable: r < ties
}

std::size_t RandomPolicy::pick(const net::FiveTuple&,
                               const std::vector<BackendView>& backends,
                               util::Rng& rng) {
  const auto& idx = usable(backends, /*need_weight=*/false);
  if (idx.empty()) return kNoBackend;
  return idx[rng.uniform_int(static_cast<std::uint64_t>(idx.size()))];
}

std::size_t WeightedRandom::pick(const net::FiveTuple&,
                                 const std::vector<BackendView>& backends,
                                 util::Rng& rng) {
  const auto& idx = usable(backends, /*need_weight=*/true);
  if (idx.empty()) return kNoBackend;
  if (weights_dirty_ || weights_.size() != idx.size()) {
    weights_.resize(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k)
      weights_[k] = static_cast<double>(backends[idx[k]].weight_units);
    weights_dirty_ = false;
  }
  const auto k = rng.weighted_index(weights_);
  return k < idx.size() ? idx[k] : kNoBackend;
}

std::size_t PowerOfTwoCpu::pick(const net::FiveTuple&,
                                const std::vector<BackendView>& backends,
                                util::Rng& rng) {
  const auto& idx = usable(backends, /*need_weight=*/false);
  if (idx.empty()) return kNoBackend;
  if (idx.size() == 1) return idx[0];
  const auto a = idx[rng.uniform_int(static_cast<std::uint64_t>(idx.size()))];
  std::size_t b = a;
  while (b == a)
    b = idx[rng.uniform_int(static_cast<std::uint64_t>(idx.size()))];
  auto cpu = [](const BackendView& v) {
    return v.server ? v.server->cpu_utilization_now() : 0.0;
  };
  return cpu(backends[a]) <= cpu(backends[b]) ? a : b;
}

std::size_t HashTuple::pick(const net::FiveTuple& tuple,
                            const std::vector<BackendView>& backends,
                            util::Rng&) {
  // usable() can allocate only when it rebuilds its cache after
  // invalidate(); a steady-state pick reads the cached list.
  const auto& idx = usable(backends, /*need_weight=*/false);
  if (idx.empty()) return kNoBackend;
  return idx[net::hash_tuple(tuple) % idx.size()];
}

std::unique_ptr<Policy> make_policy(const std::string& name) {
  if (name == "rr") return std::make_unique<RoundRobin>();
  if (name == "wrr") return std::make_unique<SmoothWeightedRoundRobin>();
  if (name == "lc") return std::make_unique<LeastConnection>();
  if (name == "wlc") return std::make_unique<WeightedLeastConnection>();
  if (name == "random") return std::make_unique<RandomPolicy>();
  if (name == "wrandom") return std::make_unique<WeightedRandom>();
  if (name == "p2") return std::make_unique<PowerOfTwoCpu>();
  if (name == "hash") return std::make_unique<HashTuple>();
  if (name == "maglev") return std::make_unique<MaglevPolicy>();
  throw std::invalid_argument("unknown LB policy: " + name);
}

}  // namespace klb::lb
