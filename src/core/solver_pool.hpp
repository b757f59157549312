// A fixed-size worker pool for ILP recomputations (§5 at fleet scale).
//
// The paper runs one ILP per VIP on a shared controller VM; with hundreds
// of VIPs the wall-clock bottleneck is solver time, not the slot budget.
// SolverPool turns the coordinator's granted solves into jobs drained by N
// worker threads. Only the pure compute (Controller::solve_ilp) runs on
// workers; all state mutation (weight programming, counters, dirty flags)
// stays on the sim thread, applied back in VIP order so results are
// bit-identical to a serial run.
//
// The pool is deliberately minimal: submit closures, then wait() for one
// job's ticket — the coordinator applies each VIP as soon as its own solve
// is done. No futures, no shutdown races — the destructor joins after
// draining the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace klb::core {

class SolverPool {
 public:
  using Job = std::function<void()>;
  /// A submitted job's place in submission order (0, 1, 2, ...).
  using Ticket = std::uint64_t;

  /// `threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit SolverPool(int threads = 0);
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Enqueue a job. Jobs must not touch simulation state; they may only
  /// write to storage the submitter reads back after wait().
  Ticket submit(Job job) KLB_EXCLUDES(mu_);

  /// Block until job `ticket` has finished executing (not merely been
  /// dequeued); later jobs may still be queued or running. What the job
  /// wrote is visible on return, and a finished ticket returns at once.
  void wait(Ticket ticket) KLB_EXCLUDES(mu_);

  std::size_t thread_count() const { return workers_.size(); }

  /// Jobs executed over the pool's lifetime (stats for benches).
  std::uint64_t jobs_run() const KLB_EXCLUDES(mu_);

 private:
  void worker_loop() KLB_EXCLUDES(mu_);

  /// Dequeued in ticket order, so a job is finished iff its ticket is
  /// below dequeued_ and not among the running ones.
  bool finished(Ticket ticket) const KLB_REQUIRES(mu_);

  mutable util::Mutex mu_{"klb.solver.queue"};
  util::CondVar work_cv_;   // workers wait for jobs
  util::CondVar done_cv_;   // wait() waits for jobs to finish
  std::deque<Job> queue_ KLB_GUARDED_BY(mu_);
  Ticket dequeued_ KLB_GUARDED_BY(mu_) = 0;  // tickets below were dequeued
  std::vector<Ticket> running_ KLB_GUARDED_BY(mu_);  // dequeued, not finished
  std::uint64_t jobs_run_ KLB_GUARDED_BY(mu_) = 0;
  bool stopping_ KLB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace klb::core
