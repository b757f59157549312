// Stateless-fast-path subsystem: per-generation exception filters for
// tuple-deterministic policies (ROADMAP item 2, the stateful/stateless
// hybrid argued by Cohen et al., "LB Scalability: Achieving the Right
// Balance Between Being Stateful and Stateless").
//
// The observation: with a Maglev-style table, a flow's pick is a pure
// function of its 5-tuple *while its table slot keeps the same owner*. A
// per-flow pin is only load-bearing for the small set of "exception"
// flows whose slot's owner changed recently — everyone else can be routed
// by hash alone, with no FlowTable insert, no FIN bookkeeping, and no GC.
// At 10M concurrent flows that is the difference between a multi-GB
// connection table and a few MB of pinned exceptions.
//
// Three pieces:
//
//   * GenerationDiff — control-plane-only engine owned by the Mux. On
//     every generation publish it diffs the new table snapshot slot by
//     slot against the last snapshot it diffed (which it keeps: tables
//     are immutable and shared with their generations), and emits an
//     immutable ExceptionFilter for the generation being published. It
//     remembers, per slot, the last *breaking* change (a non-empty owner
//     replaced) and the owner that change displaced.
//   * ExceptionFilter — the immutable product, carried by (and destroyed
//     with) its PoolGeneration. A compact slot bitmap ("changed within the
//     last `history` publishes") plus a sparse slot -> previous-owner map.
//     The packet path reads it through the current generation.
//   * SlotPinCounts — live pinned-exception-flow counts per slot (fixed
//     size, allocated once). A slot with live pins stays on
//     the exception path even after its change ages out of the filter
//     window, so a pinned flow is never prematurely routed by hash (the
//     "no premature unpin" invariant; see ISSUE 8's churn tests).
//
// Routing decision (Mux::process_chunk_pinned):
//
//     slot unchanged && no live pins        -> route by hash, stateless
//     slot changed, mid-flow, prev alive    -> adopt: pin to prev owner
//     slot changed, mid-flow, prev gone     -> affinity break (counted)
//     slot changed, opener                  -> pin to the current pick: a
//                                              stateless open would be
//                                              indistinguishable mid-flow
//                                              from the pre-change flows
//                                              and get mis-adopted
//     policy non-deterministic / no table   -> always pin (legacy path)
//
// Stateless flows adopt a pin on their first packet after their slot's
// owner moves. The one documented hole: a flow silent across more than
// `history` consecutive publishes that span a change of its slot cannot
// be adopted (its previous owner has aged out of the filter) and breaks —
// the same trade the stateless half of the literature makes. Size
// `history` to the programming rate, or keep such flows on a pinning
// policy.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/effects.hpp"

namespace klb::lb {

class MaglevTable;

/// Mux-level knobs for the stateless fast path. `stateless = false` (the
/// default) keeps the classic pin-every-flow dataplane byte-for-byte.
struct ConsistencyConfig {
  bool stateless = false;
  /// A changed slot stays on the exception path for this many publishes
  /// (>= 1). Larger windows tolerate longer flow silences across churn at
  /// the cost of more exception pins.
  std::size_t history = 8;
  /// Quiescence window a drainer must be idle for before its drain may
  /// auto-complete (stateless mode only). Stateless flows hold no pin, so
  /// `active == 0` alone no longer proves a drainer empty — their traffic
  /// is the only evidence they exist. Every request the drainer serves
  /// re-arms the window (see Mux::drain_ripe), so live flows keep their
  /// backend as long as their inter-packet gaps stay under the grace;
  /// flows silent for longer are adopted by the filter on their next
  /// packet, or break once it forgets. Size it past the service-time tail:
  /// a flow whose response is in flight when the window closes forwards
  /// nothing until the response lands. Microseconds of sim time.
  std::int64_t drain_grace_us = 1'000'000;
};

/// Immutable per-generation exception summary. Readers access it through
/// a pinned PoolGeneration; it is reclaimed with the generation.
class ExceptionFilter {
 public:
  /// Sentinel owner: "no previous owner recorded" / empty slot. Owner ids
  /// are DIP address values (MaglevTable ids), which fit in 32 bits.
  static constexpr std::uint32_t kNoOwner = 0xFFFFFFFFu;

  ExceptionFilter(std::uint64_t seq, std::size_t table_size)
      : seq_(seq), table_size_(table_size),
        bits_((table_size + 63) / 64, 0) {}

  /// True when `slot`'s owner changed within the filter window. Packet
  /// path: one bitmap word read, nonblocking.
  bool is_exception(std::size_t slot) const KLB_NONBLOCKING {
    return (bits_[slot >> 6] >> (slot & 63)) & 1u;
  }
  /// The owner displaced by `slot`'s most recent in-window change —
  /// where this slot's pre-change stateless flows actually live. kNoOwner
  /// when the slot is not flagged (or the change emptied from nothing).
  /// A read-only find on the frozen map: no allocation, no lock.
  std::uint32_t prev_owner(std::size_t slot) const KLB_NONBLOCKING {
    const auto it = prev_.find(static_cast<std::uint32_t>(slot));
    return it == prev_.end() ? kNoOwner : it->second;
  }

  std::uint64_t seq() const KLB_NONBLOCKING { return seq_; }
  std::size_t table_size() const KLB_NONBLOCKING { return table_size_; }
  /// Flagged slots (observability; the testbed reports it).
  std::size_t exception_slots() const { return exception_count_; }

 private:
  friend class GenerationDiff;

  void flag(std::size_t slot, std::uint32_t prev) {
    bits_[slot >> 6] |= 1ull << (slot & 63);
    ++exception_count_;
    if (prev != kNoOwner) prev_.emplace(static_cast<std::uint32_t>(slot), prev);
  }

  std::uint64_t seq_ = 0;
  std::size_t table_size_ = 0;
  std::size_t exception_count_ = 0;
  std::vector<std::uint64_t> bits_;
  std::unordered_map<std::uint32_t, std::uint32_t> prev_;
};

/// Live exception-pin counts per table slot. Fixed size (allocated once
/// in the Mux constructor): the packet path increments on pin, decrements
/// on unpin (FIN / GC / backend removal), and reads one counter per
/// packet — no allocation. Counts are exact because
/// in stateless mode *every* FlowTable insert and erase passes through
/// them, regardless of which path created the pin.
class SlotPinCounts {
 public:
  explicit SlotPinCounts(std::size_t slots) : counts_(slots) {}

  SlotPinCounts(const SlotPinCounts&) = delete;
  SlotPinCounts& operator=(const SlotPinCounts&) = delete;

  std::size_t size() const KLB_NONBLOCKING { return counts_.size(); }

  void inc(std::size_t slot) KLB_NONBLOCKING { ++counts_[slot]; }
  /// Floored at zero (mirrors the active-connection counters): a stray
  /// decrement must not wrap a neighbouring slot's protection away.
  void dec(std::size_t slot) KLB_NONBLOCKING {
    if (counts_[slot] > 0) --counts_[slot];
  }
  std::uint32_t count(std::size_t slot) const KLB_NONBLOCKING {
    return counts_[slot];
  }
  /// Sum over all slots — O(slots), control/observability path only.
  std::uint64_t total() const;

 private:
  std::vector<std::uint32_t> counts_;
};

/// Control-plane diff engine: one per Mux, run at each of its
/// publications.
class GenerationDiff {
 public:
  explicit GenerationDiff(ConsistencyConfig cfg);

  /// Diff `table` against the last snapshot diffed and build the filter
  /// for the generation being published as `seq`; a pointer-equal
  /// snapshot (a drain completion) moves nothing. Returns nullptr
  /// (stateless disengaged for this generation) when the table's size
  /// does not match the first-seen size — a policy swap changed table
  /// geometry, so slot indexes are incomparable. This is the one geometry
  /// check of the hybrid dataplane; it logs once per disengagement.
  std::shared_ptr<const ExceptionFilter> on_publish(
      std::shared_ptr<const MaglevTable> table, std::uint64_t seq);

  /// Publishes diffed so far (the window clock).
  std::uint64_t publishes() const { return publishes_; }

 private:
  ConsistencyConfig cfg_;
  std::uint64_t publishes_ = 0;
  bool disengaged_ = false;  // the last publish had incomparable geometry
  std::shared_ptr<const MaglevTable> last_;  // the last snapshot diffed
  std::vector<std::uint32_t> prev_;      // owner displaced by the last change
  std::vector<std::uint64_t> changed_at_;  // publish count of it (0 = never)
};

}  // namespace klb::lb
