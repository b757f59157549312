#include "core/drain.hpp"

#include "util/logging.hpp"
#include "util/weight.hpp"

namespace klb::core {

void DrainEstimator::run(net::IpAddr dip, std::size_t dip_index, double l0_ms,
                         DoneFn done) {
  if (running_) {
    done(std::nullopt);
    return;
  }
  running_ = true;
  dip_ = dip;
  dip_index_ = dip_index;
  l0_ms_ = l0_ms;
  done_ = std::move(done);
  phase_started_ = sim_.now();
  last_seen_sample_ = sim_.now();

  set_target_weight(cfg_.high_weight);
  polls_.schedule_in(cfg_.poll_interval, [this] { poll_loading(); });
}

void DrainEstimator::set_target_weight(double w) {
  // Target DIP gets w; everyone else splits the rest equally. (The
  // estimator is an offline calibration tool; the paper runs it against
  // production pools the same way, accepting the brief skew.) The
  // transaction is keyed by address, so pool renumbering between polls
  // cannot redirect the extreme weight onto the wrong DIP — and it is
  // weights-only, so a membership change racing through the programming
  // delay is not reverted by the estimator's stale view of the pool.
  const auto addrs = lb_.backend_addrs();
  const auto n = addrs.size();
  const double rest =
      n > 1 ? (1.0 - w) / static_cast<double>(n - 1) : (1.0 - w);
  lb::PoolProgram p(lb_.issue_version());
  p.weights_only = true;
  for (const auto addr : addrs)
    p.add(addr, util::weight_to_units(addr == dip_ ? w : rest));
  lb_.apply_program(p);
}

std::optional<double> DrainEstimator::fresh_latency() const {
  const auto sample = store_.latest(vip_, dip_);
  if (!sample) return std::nullopt;
  if (sample->at <= last_seen_sample_) return std::nullopt;
  return sample->avg_latency_ms;
}

void DrainEstimator::poll_loading() {
  if (!running_) return;
  const auto latency = fresh_latency();
  if (latency) {
    const auto sample = store_.latest(vip_, dip_);
    last_seen_sample_ = sample->at;
    if (*latency >= cfg_.elevated_factor * l0_ms_) {
      // Elevated: cut the weight to 0 and time the recovery.
      t1_ = sim_.now();
      set_target_weight(0.0);
      polls_.schedule_in(cfg_.poll_interval, [this] { poll_draining(); });
      return;
    }
  }
  if (sim_.now() - phase_started_ > cfg_.max_load_time) {
    util::log_warn("klb-drain") << "could not elevate latency on "
                                << dip_.str() << "; aborting";
    finish(std::nullopt);
    return;
  }
  polls_.schedule_in(cfg_.poll_interval, [this] { poll_loading(); });
}

void DrainEstimator::poll_draining() {
  if (!running_) return;
  const auto latency = fresh_latency();
  if (latency) {
    const auto sample = store_.latest(vip_, dip_);
    last_seen_sample_ = sample->at;
    if (*latency <= cfg_.recovered_factor * l0_ms_) {
      finish(sim_.now() - t1_);
      return;
    }
  }
  if (sim_.now() - t1_ > cfg_.max_drain_time) {
    finish(std::nullopt);
    return;
  }
  polls_.schedule_in(cfg_.poll_interval, [this] { poll_draining(); });
}

void DrainEstimator::finish(std::optional<util::SimTime> result) {
  running_ = false;
  // Restore an equal split before reporting. normalize_to_units spreads
  // the kWeightScale % n remainder instead of leaking it (a flat
  // kWeightScale / n per entry under-programs the pool whenever n does
  // not divide the scale).
  const auto addrs = lb_.backend_addrs();
  if (!addrs.empty()) {
    const auto units = util::normalize_to_units(
        std::vector<double>(addrs.size(), 1.0));
    lb::PoolProgram p(lb_.issue_version());
    p.weights_only = true;  // restore weights, never touch membership
    for (std::size_t i = 0; i < addrs.size(); ++i) p.add(addrs[i], units[i]);
    lb_.apply_program(p);
  }
  if (done_) done_(result);
}

}  // namespace klb::core
