#include "core/solver_pool.hpp"

#include <algorithm>

namespace klb::core {

SolverPool::SolverPool(int threads) {
  std::size_t n = threads > 0 ? static_cast<std::size_t>(threads)
                              : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

SolverPool::~SolverPool() {
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

SolverPool::Ticket SolverPool::submit(Job job) {
  Ticket ticket;
  {
    util::MutexLock lock(mu_);
    ticket = dequeued_ + queue_.size();
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
  return ticket;
}

bool SolverPool::finished(Ticket ticket) const {
  return ticket < dequeued_ &&
         std::find(running_.begin(), running_.end(), ticket) == running_.end();
}

void SolverPool::wait(Ticket ticket) {
  util::MutexLock lock(mu_);
  // Explicit loop rather than a predicate lambda: the analysis treats
  // lambda bodies as separate functions, so guarded reads stay inline.
  while (!finished(ticket)) done_cv_.wait(mu_);
}

std::uint64_t SolverPool::jobs_run() const {
  util::MutexLock lock(mu_);
  return jobs_run_;
}

void SolverPool::worker_loop() {
  for (;;) {
    Job job;
    Ticket ticket;
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      ticket = dequeued_++;
      running_.push_back(ticket);
    }
    job();
    {
      util::MutexLock lock(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), ticket));
      ++jobs_run_;
    }
    done_cv_.notify_all();
  }
}

}  // namespace klb::core
