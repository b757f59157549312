// The discrete-event simulation kernel.
//
// A Simulation owns the virtual clock, the event queue, and the root RNG.
// Components hold a reference to it and schedule callbacks. The kernel is
// single-threaded; determinism comes from the (time, sequence) event order
// and from all randomness being forked off the root RNG at construction
// time (never during the run, so component construction order is the only
// thing that matters).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace klb::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  util::SimTime now() const { return now_; }
  util::Rng& rng() { return rng_; }

  /// Schedule `fn` (any void() callable, moved into the queue) to run
  /// `delay` after the current time.
  template <class F>
  EventId schedule_in(util::SimTime delay, F&& fn) {
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute virtual time (must be >= now()).
  /// A past-due `at` is clamped to now(): the event still runs, but its
  /// intended ordering against already-executed events is lost. That is
  /// normally a bug in the caller, so the clamp is counted and logged
  /// instead of silent.
  template <class F>
  EventId schedule_at(util::SimTime at, F&& fn) {
    return queue_.schedule(clamp_late(at), std::forward<F>(fn));
  }

  /// Take a place in the same-time event order now, to schedule into
  /// later with schedule_reserved() (see EventQueue::reserve).
  Ticket reserve_order() { return queue_.reserve(); }

  /// schedule_at() in the place `ticket` took: among events at `at`, `fn`
  /// runs as if it had been scheduled when the ticket was taken.
  template <class F>
  EventId schedule_reserved(util::SimTime at, Ticket ticket, F&& fn) {
    return queue_.schedule_reserved(clamp_late(at), ticket,
                                    std::forward<F>(fn));
  }

  /// Number of schedule_at() calls whose target time was already in the
  /// past and got clamped to now(). Zero in a healthy run.
  std::uint64_t late_events() const { return late_events_; }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Run until the event queue drains or the clock passes `until`.
  /// Returns the number of events executed. The clock is advanced to each
  /// event's timestamp before its callback runs, and through idle time to
  /// `until` at the end (unless `until` is the drain-everything sentinel).
  std::uint64_t run_until(util::SimTime until) {
    std::uint64_t executed = 0;
    while (!queue_.empty()) {
      const util::SimTime at = queue_.next_time();
      if (at > until) break;
      now_ = at;
      queue_.pop_and_run();
      ++executed;
    }
    if (now_ < until && until < util::SimTime::max()) now_ = until;
    return executed;
  }

  /// Run for `duration` of additional virtual time.
  std::uint64_t run_for(util::SimTime duration) {
    return run_until(now_ + duration);
  }

  /// Drain every pending event regardless of time (mainly for tests).
  std::uint64_t run_all() { return run_until(util::SimTime::max()); }

  std::size_t pending_events() const { return queue_.size(); }

 private:
  util::SimTime clamp_late(util::SimTime at) {
    if (at >= now_) return at;
    ++late_events_;
    util::log_debug("sim") << "late event clamped to now(): scheduled at "
                           << at.us() << "us, now " << now_.us() << "us ("
                           << (now_ - at).us() << "us late, " << late_events_
                           << " total)";
    return now_;
  }

  util::SimTime now_ = util::SimTime::zero();
  EventQueue queue_;
  util::Rng rng_;
  std::uint64_t late_events_ = 0;
};

/// Repeating timer bound to a Simulation. Starts on start(), stops on
/// stop() or destruction. The callback may call stop() on its own timer.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulation& sim, util::SimTime period,
                std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// First firing after `initial_delay` (defaults to one period).
  void start(util::SimTime initial_delay = util::SimTime::micros(-1)) {
    stop();
    running_ = true;
    const auto delay =
        initial_delay.us() < 0 ? period_ : initial_delay;
    pending_ = sim_.schedule_in(delay, [this] { fire(); });
  }

  void stop() {
    if (pending_ != kInvalidEvent) sim_.cancel(pending_);
    pending_ = kInvalidEvent;
    running_ = false;
  }

  bool running() const { return running_; }

  void set_period(util::SimTime period) { period_ = period; }
  util::SimTime period() const { return period_; }

 private:
  void fire() {
    pending_ = kInvalidEvent;
    fn_();
    if (running_) pending_ = sim_.schedule_in(period_, [this] { fire(); });
  }

  Simulation& sim_;
  util::SimTime period_;
  std::function<void()> fn_;
  EventId pending_ = kInvalidEvent;
  bool running_ = false;
};

/// One-shot events scheduled for an owner whose callbacks capture it. The
/// scope keeps the id of every event that has not fired yet and cancels
/// them all when it is destroyed, so the owner may go away while they are
/// pending. schedule_in() schedules exactly as Simulation::schedule_in().
class EventScope {
 public:
  explicit EventScope(Simulation& sim) : sim_(sim) {}
  ~EventScope() {
    for (const auto& entry : pending_) sim_.cancel(entry.second);
  }
  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;

  template <class F>
  void schedule_in(util::SimTime delay, F&& fn) {
    const std::uint64_t token = next_token_++;
    const EventId id = sim_.schedule_in(
        delay, [this, token, fn = std::forward<F>(fn)]() mutable {
          pending_.erase(token);
          fn();
        });
    pending_.emplace(token, id);
  }

 private:
  Simulation& sim_;
  std::uint64_t next_token_ = 0;
  std::unordered_map<std::uint64_t, EventId> pending_;
};

}  // namespace klb::sim
