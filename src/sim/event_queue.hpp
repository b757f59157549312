// Cancellable priority queue of timestamped events.
//
// Events fire in (time, sequence) order so that same-timestamp events run
// in schedule order — required for deterministic replays.
//
// Layout. Every pending event owns one record in a slab of fixed-size
// chunks; a 4-ary min-heap of (time, key) entries orders them. Records
// never move (the slab grows by whole chunks), so a callback runs in place
// even while it schedules enough events to grow the slab. A key packs the
// event's schedule sequence number above its slot index. It is the
// EventId, the heap's tie-break (sequence order), and the record's
// occupancy stamp: a record is live exactly while it holds the key of the
// event it carries. A slot's generation is therefore its occupant's
// sequence number, which no later occupant repeats:
//
//   * cancel() is O(1): check the stamp, destroy the callback, push the
//     slot on the free list — the record is reusable at once;
//   * a stale id (fired or cancelled) never matches the slot's next
//     occupant, so it can never cancel it;
//   * a cancelled event's heap entry stays behind and is dropped when it
//     surfaces, by the same stamp check.
//
// The 64-bit key leaves room for 2^24 pending events and 2^40 schedules
// per queue; schedule() throws std::length_error past either.
//
// reserve() takes a sequence number without scheduling anything, and
// schedule_reserved() later schedules one event with it. A deadline list
// (sim/deadline_list.hpp) takes one per deadline when it is set and arms
// its single event with the due deadline's ticket, so the deadline fires
// in exactly the same-time order a per-deadline event would have had.
//
// Callbacks are any void() callable, moved (never copied) into the
// record's inline storage; one larger than kInlineBytes is boxed on the
// heap. The fabric's per-hop capture fits inline, so once the slab and the
// heap have grown to a run's high-water mark a packet hop schedules, fires
// and frees without touching the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace klb::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;
/// A reserved place in the same-time order (a schedule sequence number).
using Ticket = std::uint64_t;

class EventQueue {
 public:
  /// Callback bytes stored in the record itself (a record is two cache
  /// lines). The fabric's [this, to, Message] hop needs 88 with gcc 12.
  static constexpr std::size_t kInlineBytes = 104;

  /// True when a callable of type F lives in its record, not on the heap.
  template <class F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t);

  EventQueue() = default;
  ~EventQueue() {
    for (std::uint32_t slot = 0; slot < capacity_; ++slot) {
      Record& r = record(slot);
      if (r.key != kInvalidEvent) r.call(r.storage, Action::kDestroy);
    }
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Returns a handle for cancel().
  template <class F>
  EventId schedule(util::SimTime at, F&& fn) {
    return schedule_reserved(at, reserve(), std::forward<F>(fn));
  }

  /// Take the next place in the same-time order without scheduling
  /// anything. Spend it once, on schedule_reserved(), or never.
  Ticket reserve() {
    if (next_seq_ > kMaxSeq) throw std::length_error("EventQueue: sequence");
    return next_seq_++;
  }

  /// Schedule `fn` at `at` in the place `ticket` took: among events at
  /// `at` it runs as if it had been scheduled when reserve() returned the
  /// ticket. The ticket must come from this queue's reserve() and be
  /// spent at most once (its sequence number is the event's identity).
  template <class F>
  EventId schedule_reserved(util::SimTime at, Ticket ticket, F&& fn) {
    using Fn = std::decay_t<F>;
    if (free_head_ == kNoSlot) grow();
    // Construct first, unlink second: a throwing callable leaves the slot
    // on the free list.
    const std::uint32_t slot = free_head_;
    Record& r = record(slot);
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(r.storage)) Fn(std::forward<F>(fn));
      r.call = &call_inline<Fn>;
    } else {
      ::new (static_cast<void*>(r.storage)) Fn*(new Fn(std::forward<F>(fn)));
      r.call = &call_boxed<Fn>;
    }
    free_head_ = r.next_free;
    const EventId key = (ticket << kSlotBits) | slot;
    r.key = key;
    push_heap(Entry{at, key});
    ++live_;
    return key;
  }

  /// Cancel a pending event. Safe to call with an already-fired or
  /// already-cancelled id, and with kInvalidEvent.
  void cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
    if (id == kInvalidEvent || slot >= capacity_) return;
    Record& r = record(slot);
    if (r.key != id) return;
    r.key = kInvalidEvent;
    --live_;
    r.call(r.storage, Action::kDestroy);
    release_slot(slot);
  }

  /// Live (scheduled, not yet fired or cancelled) events.
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the next live event; SimTime::max() when empty. Drops the
  /// heap entries of cancelled events it finds on top.
  util::SimTime next_time() {
    skip_dead();
    return heap_.empty() ? util::SimTime::max() : heap_.front().at;
  }

  /// Pop and run the next live event, in place in its record. Precondition:
  /// next_time() was the last call and found a live event. The caller must
  /// advance its clock to that time first, so the callback observes the
  /// event's own timestamp.
  void pop_and_run() {
    const EventId key = heap_.front().key;
    pop_heap();
    const auto slot = static_cast<std::uint32_t>(key & kSlotMask);
    Record& r = record(slot);
    // Spent before it runs: a cancel() of this id from inside the callback
    // is a no-op, and the slot stays reserved until the callback is gone.
    r.key = kInvalidEvent;
    --live_;
    r.call(r.storage, Action::kRun);
    release_slot(slot);
  }

 private:
  enum class Action { kRun, kDestroy };  // kRun runs, then destroys

  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  static constexpr EventId kMaxSeq = (EventId{1} << (64 - kSlotBits)) - 1;
  static constexpr int kChunkBits = 8;  // 256 records, 32 KiB per chunk
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct alignas(64) Record {
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*call)(void*, Action);
    EventId key;  // the occupant's id while live, kInvalidEvent while free
    std::uint32_t next_free;
  };
  static_assert(sizeof(Record) == 128, "a record is two cache lines");

  struct Entry {
    util::SimTime at;
    EventId key;
  };

  template <class Fn>
  static void call_inline(void* p, Action a) {
    Fn& fn = *std::launder(static_cast<Fn*>(p));
    if (a == Action::kRun) fn();
    fn.~Fn();
  }
  template <class Fn>
  static void call_boxed(void* p, Action a) {
    Fn* fn = *std::launder(static_cast<Fn**>(p));
    if (a == Action::kRun) (*fn)();
    delete fn;
  }

  Record& record(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunk - 1)];
  }

  void release_slot(std::uint32_t slot) {
    record(slot).next_free = free_head_;
    free_head_ = slot;
  }
  /// One more chunk of records; its slots join the free list lowest first.
  void grow() {
    if (capacity_ + kChunk - 1 > kSlotMask)
      throw std::length_error("EventQueue: slab full");
    chunks_.push_back(std::make_unique<Record[]>(kChunk));
    for (std::uint32_t i = kChunk; i-- > 0;) release_slot(capacity_ + i);
    capacity_ += kChunk;
  }

  /// (time, key) as one unsigned 128-bit number, so before() is a single
  /// branch-free compare. Flipping the time's sign bit maps signed order
  /// onto unsigned order.
  static unsigned __int128 rank(const Entry& e) {
    const auto t =
        static_cast<std::uint64_t>(e.at.us()) ^ (std::uint64_t{1} << 63);
    return (static_cast<unsigned __int128>(t) << 64) | e.key;
  }
  static bool before(const Entry& a, const Entry& b) {
    return rank(a) < rank(b);
  }
  void push_heap(Entry e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
  }
  /// Place `e` at hole `i` or above it, moving larger parents down.
  void sift_up(std::size_t i, Entry e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  /// Bottom-up pop: the hole at the root sinks to a leaf along the smaller
  /// children (a branch-free min of four per level, no compare against the
  /// moved element), then the old last entry, which belongs near the
  /// bottom, sifts up from there. Keys are unique, so the pop order is the
  /// (time, key) order whatever the heap's layout.
  void pop_heap() {
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    Entry* h = heap_.data();
    std::size_t i = 0;
    for (std::size_t first = 1; first + 4 <= n; first = 4 * i + 1) {
      const std::size_t a = first + before(h[first + 1], h[first]);
      const std::size_t b = first + 2 + before(h[first + 3], h[first + 2]);
      const std::size_t best = before(h[b], h[a]) ? b : a;
      h[i] = h[best];
      i = best;
    }
    if (const std::size_t first = 4 * i + 1; first < n) {
      std::size_t best = first;  // a last parent with fewer than 4 leaves
      for (std::size_t c = first + 1; c < n; ++c)
        if (before(h[c], h[best])) best = c;
      h[i] = h[best];
      i = best;
    }
    sift_up(i, last);
  }
  void skip_dead() {
    while (!heap_.empty()) {
      const EventId key = heap_.front().key;
      if (record(static_cast<std::uint32_t>(key & kSlotMask)).key == key)
        return;
      pop_heap();
    }
  }

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<Entry> heap_;
  std::uint32_t capacity_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  EventId next_seq_ = 1;
};

}  // namespace klb::sim
