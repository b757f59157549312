// Timeouts for a stream of requests that share one fixed timeout.
//
// With a constant timeout, deadlines come due in the order they were set,
// so one FIFO and at most one armed Simulation event cover them all:
// push() appends (deadline, key) and arms the timer only if the list was
// empty; the timer fires at the front deadline, expires that request if it
// is still pending, drops every answered entry now at the front, and
// re-arms at the next. An answer cancels nothing; its entry is dropped the
// next time the timer reaches it. The event heap therefore holds one timer
// per list however many requests are in flight, and no cancelled entries.
//
// Same-time order is that of a per-request timer. push() takes a ticket
// (Simulation::reserve_order) at the moment such a timer would have been
// scheduled, and the timer is armed with the front entry's ticket. A
// deadline thus fires before a response that reaches the requester at the
// same microsecond (its hop was scheduled after the request was sent),
// and after same-time events scheduled before it. Virtual results are the
// same as with per-request timers.
//
// Single-threaded, like the Simulation it schedules on. The destructor
// cancels the armed timer, so an owner may be destroyed while deadlines
// are pending.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "util/time.hpp"

namespace klb::sim {

template <class Key>
class DeadlineList {
 public:
  /// `pending(key)`: the request is still unanswered. `expire(key)`: its
  /// deadline came while it was pending. Both run from the timer only.
  DeadlineList(Simulation& sim, util::SimTime timeout,
               std::function<bool(const Key&)> pending,
               std::function<void(const Key&)> expire)
      : sim_(sim), timeout_(timeout), pending_(std::move(pending)),
        expire_(std::move(expire)) {}

  ~DeadlineList() { sim_.cancel(armed_); }
  DeadlineList(const DeadlineList&) = delete;
  DeadlineList& operator=(const DeadlineList&) = delete;

  /// A request went out now: it expires `timeout` from now unless
  /// pending(key) turns false first.
  void push(const Key& key) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] =
        Entry{sim_.now() + timeout_, sim_.reserve_order(), key};
    if (++size_ == 1) arm();
  }

  /// Entries not yet dropped, answered ones included.
  std::size_t size() const { return size_; }

 private:
  struct Entry {
    util::SimTime deadline;
    Ticket ticket;
    Key key;
  };

  const Entry& front() const { return ring_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }

  void arm() {
    armed_ = sim_.schedule_reserved(front().deadline, front().ticket,
                                    [this] { fire(); });
  }

  void fire() {
    armed_ = kInvalidEvent;
    // The front stays listed while expire() runs, so a push() from inside
    // it (the owner's next request) does not arm a second timer.
    const Key key = front().key;
    if (pending_(key)) expire_(key);
    pop_front();
    while (size_ > 0 && !pending_(front().key)) pop_front();
    if (size_ > 0) arm();
  }

  /// Double the ring, unwrapping it so the oldest entry lands at 0.
  void grow() {
    std::vector<Entry> bigger(ring_.empty() ? 64 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(bigger);
    head_ = 0;
  }

  Simulation& sim_;
  util::SimTime timeout_;
  std::function<bool(const Key&)> pending_;
  std::function<void(const Key&)> expire_;
  std::vector<Entry> ring_;  // power-of-two capacity
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  EventId armed_ = kInvalidEvent;
};

}  // namespace klb::sim
