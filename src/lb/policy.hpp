// DIP-selection policies for the MUX dataplane.
//
// These are the algorithms the paper evaluates against (§2.1, §6.2): round
// robin, least connection, random, power-of-two, 5-tuple hash — each in
// unweighted and (where supported) weighted flavours. A policy picks a
// backend for each *new* connection; existing connections stay pinned by
// the MUX's affinity table.
//
// Picks are hot-path calls: the base class caches the usable-index list
// (enabled backends, positive weight where required) and rebuilds it only
// on invalidate() or a pool-size change, so a steady-state pick never
// heap-allocates (ISSUE 5). The Mux calls invalidate() on every pool
// mutation; direct users that mutate their BackendView vector (tests,
// benches) must do the same — a size change is detected automatically, a
// pure weight/enable change is not.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/five_tuple.hpp"
#include "util/effects.hpp"
#include "util/rng.hpp"

namespace klb::server {
class DipServer;
}

namespace klb::lb {

class MaglevTable;

/// The dataplane's per-backend view handed to a policy on every pick.
struct BackendView {
  net::IpAddr addr;
  std::int64_t weight_units = 0;  // programmed weight, util::kWeightScale = 1.0
  bool enabled = true;  // false while draining: no new connections
  std::uint64_t active_conns = 0;  // tracked by the MUX (proxy-visible FINs)
  /// Non-owning; only the power-of-two policy reads CPU from it. Real P2
  /// deployments get this signal from an agent — exactly the dependency
  /// KnapsackLB avoids (§6.4) — so it lives here, not in the controller.
  const server::DipServer* server = nullptr;
};

inline constexpr std::size_t kNoBackend = std::numeric_limits<std::size_t>::max();

class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;
  /// true when picks read the MUX-tracked connection counts (LC family):
  /// the MUX keeps the policy views' active_conns fresh only then, and
  /// pins such a policy's new connections inside the pick critical
  /// section so the next pick already sees them.
  virtual bool uses_connection_counts() const { return false; }
  /// Choose a backend index for a new connection, or kNoBackend.
  virtual std::size_t pick(const net::FiveTuple& tuple,
                           const std::vector<BackendView>& backends,
                           util::Rng& rng) = 0;
  /// The backend pool changed (weights, membership, drain flags). Drops
  /// the cached usable list; overrides that keep extra per-pool state
  /// (WRR's smoothing credits) must chain up.
  virtual void invalidate() { usable_dirty_ = true; }
  /// Duplicate this policy, carrying rotation/smoothing state forward so a
  /// pool-generation swap doesn't restart RR at index 0 or drop WRR
  /// credits. The clone is independent: mutating it never touches the
  /// original (generations each own their policy instance).
  virtual std::unique_ptr<Policy> clone() const = 0;
  /// The maglev table snapshot backing this policy's deterministic picks,
  /// or null when it has none. Non-null means the Mux resolves every new
  /// connection from the table itself (ids are DIP address values) and
  /// never calls pick(); it also enables the stateless fast path
  /// (lb/consistency.hpp). The snapshot is immutable (build_table in
  /// lb/maglev.hpp makes it).
  virtual std::shared_ptr<const MaglevTable> maglev_table() const {
    return nullptr;
  }

 protected:
  /// Indices of enabled backends (positive weight too when `need_weight`),
  /// cached across picks — rebuilt only after invalidate() or when the
  /// pool size changed. Returns a reference: no per-pick allocation.
  const std::vector<std::size_t>& usable(
      const std::vector<BackendView>& backends, bool need_weight);

 private:
  std::vector<std::size_t> usable_;
  std::size_t usable_pool_size_ = 0;
  bool usable_need_weight_ = false;
  bool usable_dirty_ = true;
};

/// Factory by policy name: "rr", "wrr", "lc", "wlc", "random", "wrandom",
/// "p2", "hash", "maglev". Throws std::invalid_argument for unknown names.
std::unique_ptr<Policy> make_policy(const std::string& name);

// --- concrete policies (exposed for direct construction in tests) ---------

/// Plain round robin: rotate over enabled backends.
class RoundRobin : public Policy {
 public:
  std::string name() const override { return "rr"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RoundRobin>(*this);  // carries the rotation point
  }
  std::size_t pick(const net::FiveTuple&, const std::vector<BackendView>&,
                   util::Rng&) override;

 private:
  std::uint64_t counter_ = 0;
};

/// Nginx-style smooth weighted round robin. With equal weights this
/// degenerates to plain RR; weight updates take effect on the next pick
/// (smoothing credits survive a pure reweight, like nginx's). Membership
/// is re-checked after invalidate(): credits are index-keyed, so carrying
/// them across a membership change used to hand a departed backend's
/// accumulated credit to whichever newcomer inherited its index — the
/// same-size transactional swap made that invisible to the old
/// size-only reset (ISSUE 5).
class SmoothWeightedRoundRobin : public Policy {
 public:
  std::string name() const override { return "wrr"; }
  std::unique_ptr<Policy> clone() const override {
    // Carries the smoothing credits: a reweight-only generation swap must
    // stay as smooth as nginx's in-place reweight.
    return std::make_unique<SmoothWeightedRoundRobin>(*this);
  }
  void invalidate() override {
    Policy::invalidate();
    membership_dirty_ = true;
  }
  std::size_t pick(const net::FiveTuple&, const std::vector<BackendView>&,
                   util::Rng&) override;

 private:
  std::vector<std::int64_t> current_;
  std::vector<std::uint32_t> members_;  // addr per index, aligned with current_
  bool membership_dirty_ = true;
};

/// Least connection: fewest MUX-tracked active connections wins; random
/// tie-break so equal backends share evenly.
class LeastConnection : public Policy {
 public:
  std::string name() const override { return "lc"; }
  bool uses_connection_counts() const override { return true; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<LeastConnection>(*this);
  }
  std::size_t pick(const net::FiveTuple&, const std::vector<BackendView>&,
                   util::Rng&) override;

 private:
  std::vector<std::size_t> ties_;  // scratch, reused across picks
};

/// Weighted least connection (HAProxy semantics): fewest conns/weight.
class WeightedLeastConnection : public Policy {
 public:
  std::string name() const override { return "wlc"; }
  bool uses_connection_counts() const override { return true; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<WeightedLeastConnection>(*this);
  }
  std::size_t pick(const net::FiveTuple&, const std::vector<BackendView>&,
                   util::Rng&) override;

 private:
  std::vector<std::size_t> ties_;  // scratch, reused across picks
};

/// Uniform random over enabled backends.
class RandomPolicy : public Policy {
 public:
  std::string name() const override { return "random"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RandomPolicy>(*this);
  }
  std::size_t pick(const net::FiveTuple&, const std::vector<BackendView>&,
                   util::Rng&) override;
};

/// Weighted random: probability proportional to programmed weight.
class WeightedRandom : public Policy {
 public:
  std::string name() const override { return "wrandom"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<WeightedRandom>(*this);
  }
  void invalidate() override {
    Policy::invalidate();
    weights_dirty_ = true;
  }
  std::size_t pick(const net::FiveTuple&, const std::vector<BackendView>&,
                   util::Rng&) override;

 private:
  std::vector<double> weights_;  // aligned with the cached usable list
  bool weights_dirty_ = true;
};

/// Power-of-two-choices on CPU utilization (§6.2's P2): sample two distinct
/// backends, route to the one with lower instantaneous CPU.
class PowerOfTwoCpu : public Policy {
 public:
  std::string name() const override { return "p2"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<PowerOfTwoCpu>(*this);
  }
  std::size_t pick(const net::FiveTuple&, const std::vector<BackendView>&,
                   util::Rng&) override;
};

/// Azure-LB-style 5-tuple hash: unweighted, affinity comes for free.
class HashTuple : public Policy {
 public:
  std::string name() const override { return "hash"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<HashTuple>(*this);
  }
  /// Tuple-deterministic and, steady-state, allocation-free: hash + one
  /// indexed read of the cached usable list. The post-invalidate() cache
  /// rebuild is the "policy.usable_rebuild" escape.
  std::size_t pick(const net::FiveTuple& tuple,
                   const std::vector<BackendView>&, util::Rng&)
      KLB_NONALLOCATING override;
};

}  // namespace klb::lb
