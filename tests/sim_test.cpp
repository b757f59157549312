// DES kernel tests: event ordering, cancellation, timers, determinism,
// reserved tickets and deadline lists.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/deadline_list.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace klb::sim {
namespace {

using util::SimTime;
using namespace util::literals;

TEST(EventQueue, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_in(30_ms, [&] { order.push_back(3); });
  sim.schedule_in(10_ms, [&] { order.push_back(1); });
  sim.schedule_in(20_ms, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ms);
}

TEST(EventQueue, SameTimestampRunsInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_in(5_ms, [&order, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const auto id = sim.schedule_in(10_ms, [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventQueue, CancelAfterFireIsSafe) {
  Simulation sim;
  const auto id = sim.schedule_in(1_ms, [] {});
  sim.run_all();
  sim.cancel(id);  // must not crash or corrupt
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int count = 0;
  sim.schedule_in(10_ms, [&] { ++count; });
  sim.schedule_in(20_ms, [&] { ++count; });
  sim.run_until(15_ms);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 15_ms);  // clock advances through idle time
  sim.run_until(25_ms);
  EXPECT_EQ(count, 2);
}

TEST(Simulation, EventsScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1_ms, recurse);
  };
  sim.schedule_in(1_ms, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 5_ms);
}

TEST(Simulation, ScheduleAtPastClampsToNow) {
  Simulation sim;
  sim.schedule_in(10_ms, [] {});
  sim.run_all();
  EXPECT_EQ(sim.late_events(), 0u);
  bool fired = false;
  sim.schedule_at(5_ms, [&] { fired = true; });  // in the past
  EXPECT_EQ(sim.late_events(), 1u);  // the clamp is counted, not silent
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulation sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10_ms, [&] { ++fires; });
  timer.start();
  sim.run_until(55_ms);
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, InitialDelayZeroFiresImmediately) {
  Simulation sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10_ms, [&] { ++fires; });
  timer.start(SimTime::zero());
  sim.run_until(25_ms);
  EXPECT_EQ(fires, 3);  // t=0, 10, 20
}

TEST(PeriodicTimer, StopFromInsideCallback) {
  Simulation sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10_ms, [&] {
    if (++fires == 3) timer.stop();
  });
  timer.start();
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulation sim;
  int fires = 0;
  {
    PeriodicTimer timer(sim, 10_ms, [&] { ++fires; });
    timer.start();
  }
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(fires, 0);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_in(SimTime::micros(static_cast<std::int64_t>(
                          sim.rng().uniform_int(std::uint64_t{1000}))),
                      [&values, &sim] { values.push_back(sim.rng().next()); });
    }
    sim.run_all();
    return values;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// --- EventQueue against a reference (time, seq) priority queue ---------------

// Random schedule / cancel / pop interleavings, checked step by step
// against an ordered set of (time, schedule order) keys: the pop order,
// the reported next time, size() and empty() must all agree, and
// cancelling a fired, cancelled or never-issued id must change nothing.
TEST(EventQueue, MatchesReferenceQueueUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    EventQueue q;
    // Reference: (time, schedule order) -> id; ids of live events.
    std::set<std::pair<std::int64_t, std::uint64_t>> ref;
    std::map<EventId, std::pair<std::int64_t, std::uint64_t>> live;
    std::vector<EventId> spent;  // fired or cancelled
    std::uint64_t order = 0;
    std::int64_t now = 0;
    std::uint64_t ran = ~std::uint64_t{0};
    for (int step = 0; step < 20'000; ++step) {
      const auto op = rng.uniform_int(std::uint64_t{10});
      if (op < 5) {
        // Same-time bursts are common: ties must resolve in schedule order.
        const auto at = now + static_cast<std::int64_t>(
                                  rng.uniform_int(std::uint64_t{50}));
        const auto mine = order++;
        const auto id = q.schedule(SimTime::micros(at), [&ran, mine] {
          ran = mine;
        });
        ASSERT_NE(id, kInvalidEvent);
        ASSERT_EQ(live.count(id), 0u) << "id reused while live";
        live[id] = {at, mine};
        ref.insert({at, mine});
      } else if (op < 7 && !live.empty()) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.uniform_int(live.size())));
        q.cancel(it->first);
        ref.erase(it->second);
        spent.push_back(it->first);
        live.erase(it);
      } else if (op < 8 && !spent.empty()) {
        q.cancel(spent[rng.uniform_int(spent.size())]);  // must be a no-op
      } else if (!ref.empty()) {
        const auto expect = *ref.begin();
        ASSERT_EQ(q.next_time(), SimTime::micros(expect.first));
        now = expect.first;
        q.pop_and_run();
        ASSERT_EQ(ran, expect.second);
        ref.erase(ref.begin());
        for (auto it = live.begin(); it != live.end(); ++it) {
          if (it->second == expect) {
            spent.push_back(it->first);
            live.erase(it);
            break;
          }
        }
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
      if (ref.empty()) {
        ASSERT_EQ(q.next_time(), SimTime::max());
      }
    }
  }
}

// A fired event's slot is free for the next schedule; cancelling the old
// id must not reach the new occupant.
TEST(EventQueue, StaleIdNeverCancelsTheSlotsNextOccupant) {
  Simulation sim;
  int first = 0, second = 0;
  const auto a = sim.schedule_in(1_ms, [&] { ++first; });
  sim.run_all();
  const auto b = sim.schedule_in(1_ms, [&] { ++second; });
  EXPECT_NE(a, b);
  sim.cancel(a);  // fired: a no-op
  const auto c = sim.schedule_in(2_ms, [&] { ++second; });
  sim.cancel(c);
  sim.cancel(c);  // cancelled twice: still only c is gone
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

// A running event's id is already spent: cancelling it from inside its own
// callback must neither destroy the callback nor free its record, which
// the next schedule would otherwise overwrite while the callback runs.
TEST(EventQueue, CancellingTheRunningEventFromItsCallbackIsANoOp) {
  Simulation sim;
  EventId self = kInvalidEvent;
  const std::array<std::uint64_t, 4> pattern{11, 22, 33, 44};
  int later = 0;
  bool intact = false;
  std::size_t pending = 0;
  self = sim.schedule_in(1_ms, [&, pattern] {
    sim.cancel(self);
    sim.schedule_in(1_ms, [&later] { ++later; });
    pending = sim.pending_events();
    intact = pattern == std::array<std::uint64_t, 4>{11, 22, 33, 44};
  });
  sim.run_all();
  EXPECT_TRUE(intact);
  EXPECT_EQ(pending, 1u);
  EXPECT_EQ(later, 1);
}

// A callback runs in place in its record: scheduling thousands of events
// from inside it grows the slab, and its own captures must survive that.
TEST(EventQueue, CallbackMayGrowTheSlabWhileItRuns) {
  Simulation sim;
  std::array<std::uint64_t, 8> pattern{};
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = 0x5a5a0000 + i;
  int fired = 0;
  bool intact = false;
  sim.schedule_in(1_ms, [&sim, &fired, &intact, pattern] {
    for (int i = 0; i < 5'000; ++i)
      sim.schedule_in(SimTime::micros(1 + i % 7), [&fired] { ++fired; });
    intact = true;
    for (std::size_t i = 0; i < pattern.size(); ++i)
      intact = intact && pattern[i] == 0x5a5a0000 + i;
  });
  sim.run_all();
  EXPECT_TRUE(intact);
  EXPECT_EQ(fired, 5'000);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// size()/empty() count live events only: a cancelled event's heap entry
// may linger until it surfaces, but it is never counted or run.
TEST(EventQueue, SizeAndEmptyCountLiveEventsOnly) {
  EventQueue q;
  int fired = 0;
  const auto a = q.schedule(SimTime::micros(10), [&] { ++fired; });
  const auto b = q.schedule(SimTime::micros(20), [&] { ++fired; });
  const auto c = q.schedule(SimTime::micros(30), [&] { ++fired; });
  q.cancel(a);
  q.cancel(c);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime::micros(20));
  q.cancel(b);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime::max());
  EXPECT_EQ(fired, 0);
}

// Callbacks are moved, never copied: move-only captures work, captures
// too large for a record are boxed, and every callback is destroyed
// exactly once — whether it fires, is cancelled, or is still pending when
// the queue goes away.
TEST(EventQueue, CallbacksAreMovedAndDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    std::array<char, 4 * EventQueue::kInlineBytes> big{};
    big[0] = 'x';
    auto owned = std::make_unique<int>(41);
    q.schedule(SimTime::micros(1), [token, p = std::move(owned)] { ++*token; });
    q.schedule(SimTime::micros(2), [token, big] { *token += big[0] == 'x'; });
    const auto cancelled = q.schedule(SimTime::micros(3), [token] { ++*token; });
    q.schedule(SimTime::micros(4), [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 5);
    q.cancel(cancelled);
    EXPECT_EQ(token.use_count(), 4);
    for (int i = 0; i < 2; ++i) {
      q.next_time();
      q.pop_and_run();
    }
    EXPECT_EQ(*token, 2);
    EXPECT_EQ(token.use_count(), 2);  // the 4 us event is still pending
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ReservedTicketKeepsItsPlaceAmongSameTimeEvents) {
  EventQueue q;
  std::vector<char> order;
  const Ticket early = q.reserve();
  q.schedule(SimTime::micros(5), [&] { order.push_back('a'); });
  const Ticket late = q.reserve();
  q.schedule(SimTime::micros(5), [&] { order.push_back('b'); });
  // Scheduled last, but in the places the tickets took.
  q.schedule_reserved(SimTime::micros(5), late, [&] { order.push_back('L'); });
  q.schedule_reserved(SimTime::micros(5), early, [&] { order.push_back('E'); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<char>{'E', 'a', 'L', 'b'}));
}

TEST(DeadlineList, ExpiresPendingEntriesWhereAPerRequestTimerWould) {
  // Ten requests 10 us apart with a 100 us timeout; the odd ones are
  // answered. One timer expires the even ones at exactly push + 100 us,
  // between the same-time events scheduled before and after each push.
  Simulation sim(1);
  std::set<int> answered;
  std::vector<std::string> log;
  DeadlineList<int> deadlines(
      sim, 100_us, [&](const int& k) { return answered.count(k) == 0; },
      [&](const int& k) {
        log.push_back("expire " + std::to_string(k) + " @" +
                      std::to_string(sim.now().us()));
      });
  for (int k = 0; k < 10; ++k) {
    sim.schedule_at(SimTime::micros(10 * k), [&, k] {
      const auto tag = std::to_string(k);
      sim.schedule_in(100_us, [&log, tag] { log.push_back("before " + tag); });
      deadlines.push(k);
      sim.schedule_in(100_us, [&log, tag] { log.push_back("after " + tag); });
      if (k % 2 == 1)
        sim.schedule_in(50_us, [&answered, k] { answered.insert(k); });
    });
  }
  sim.run_all();
  std::vector<std::string> want;
  for (int k = 0; k < 10; ++k) {
    want.push_back("before " + std::to_string(k));
    if (k % 2 == 0)
      want.push_back("expire " + std::to_string(k) + " @" +
                     std::to_string(10 * k + 100));
    want.push_back("after " + std::to_string(k));
  }
  EXPECT_EQ(log, want);
  EXPECT_EQ(deadlines.size(), 0u);
}

TEST(DeadlineList, DestructorCancelsTheTimer) {
  Simulation sim(1);
  int expired = 0;
  {
    DeadlineList<int> deadlines(
        sim, 1_ms, [](const int&) { return true; },
        [&](const int&) { ++expired; });
    deadlines.push(1);
    deadlines.push(2);
    EXPECT_EQ(sim.pending_events(), 1u);  // one timer for both
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_all();
  EXPECT_EQ(expired, 0);
}

}  // namespace
}  // namespace klb::sim
