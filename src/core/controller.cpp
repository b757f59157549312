#include "core/controller.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/weight.hpp"

namespace klb::core {

namespace {
constexpr const char* kLog = "klb-controller";
}

Controller::Controller(sim::Simulation& sim, net::IpAddr vip,
                       std::vector<net::IpAddr> dips,
                       store::LatencyStore& store, lb::PoolProgrammer& lb,
                       ControllerConfig cfg)
    : sim_(sim), vip_(vip), store_(store), lb_(lb), cfg_(cfg),
      scheduler_(IlpWeights(cfg.ilp)), ilp_(cfg.ilp), dynamics_(cfg.dynamics),
      timer_(sim, cfg.round_interval, [this] { tick(); }) {
  dips_.reserve(dips.size());
  for (const auto addr : dips) {
    DipState s;
    s.addr = addr;
    s.explorer = WeightExplorer(cfg_.explorer);
    dips_.push_back(std::move(s));
  }
  weights_.assign(dips_.size(), 0.0);
}

void Controller::start() {
  start_managed();
  timer_.start();
}

void Controller::start_managed() {
  // Bootstrap: everything starts at an equal split so the service carries
  // traffic while l0 measurements cycle through (the scheduler will park
  // NeedL0 DIPs at weight 0 one round at a time).
  std::vector<double> equal(dips_.size(), equal_share());
  program(equal);
}

void Controller::stop() { timer_.stop(); }

double Controller::equal_share() const {
  const auto n = std::max<std::size_t>(1, alive_count());
  return 1.0 / static_cast<double>(n);
}

std::size_t Controller::alive_count() const {
  std::size_t n = 0;
  for (const auto& d : dips_)
    if (d.phase != DipPhase::kFailed) ++n;
  return n;
}

std::optional<std::size_t> Controller::index_of(net::IpAddr addr) const {
  for (std::size_t i = 0; i < dips_.size(); ++i)
    if (dips_[i].addr == addr) return i;
  return std::nullopt;
}

std::optional<double> Controller::weight_of(net::IpAddr addr) const {
  const auto i = index_of(addr);
  if (!i) return std::nullopt;
  return weights_[*i];
}

bool Controller::all_ready() const {
  bool any = false;
  for (const auto& d : dips_) {
    if (d.phase == DipPhase::kFailed) continue;
    if (d.phase != DipPhase::kReady) return false;
    any = true;
  }
  return any;
}

void Controller::tick() {
  if (tick_prepare()) apply_ilp(solve_ilp());
}

bool Controller::tick_prepare() {
  ++rounds_;
  // Dataplane maintenance rides the controller tick: complete drains the
  // packet path flagged, reclaim retired pool generations.
  lb_.poll();
  process_samples();
  maybe_refresh();

  const bool measuring =
      std::any_of(dips_.begin(), dips_.end(), [](const DipState& d) {
        return d.phase == DipPhase::kNeedL0 || d.phase == DipPhase::kExploring;
      });
  if (measuring) {
    run_measurement_round();
    return false;
  }
  apply_dynamics();
  return ilp_dirty_;
}

void Controller::process_samples() {
  const auto trust_after = last_program_at_ + cfg_.drain_allowance;
  for (std::size_t i = 0; i < dips_.size(); ++i) {
    auto& d = dips_[i];
    const auto sample = store_.latest(vip_, d.addr);
    if (!sample) continue;
    if (sample->at <= d.last_sample_at) continue;  // already consumed
    if (sample->at < trust_after) continue;        // pre-drain: stale view
    d.last_sample_at = sample->at;
    handle_sample(i, *sample);
  }
}

void Controller::handle_sample(std::size_t i, const store::LatencySample& s) {
  auto& d = dips_[i];

  // Failure detection (§4.5): a round with zero successful probes.
  if (s.all_failed()) {
    if (d.phase != DipPhase::kFailed) {
      ++failures_;
      util::log_info(kLog) << "DIP " << d.addr.str()
                           << " failed (no probe responses); removing";
      d.phase = DipPhase::kFailed;
      d.awaiting_measurement = false;
      ilp_dirty_ = true;
    }
    return;
  }

  if (d.phase == DipPhase::kFailed) {
    // Probes answer again: re-admit through a fresh exploration.
    util::log_info(kLog) << "DIP " << d.addr.str() << " recovered";
    d.phase = DipPhase::kNeedL0;
    d.explorer.restart();
    d.curve.clear();
    ilp_dirty_ = true;
    return;
  }

  d.last_latency_ms = s.avg_latency_ms;

  switch (d.phase) {
    case DipPhase::kNeedL0: {
      // Only a sample taken while the DIP held weight 0 measures l0. (A
      // single-DIP pool can never shed its traffic; accept the sample as
      // an l0 approximation — the probe load is negligible either way.)
      if ((weights_[i] <= 1e-9 || alive_count() == 1) && !s.saw_drops()) {
        d.explorer.set_l0(s.avg_latency_ms);
        d.explorer.begin(equal_share());
        d.phase = DipPhase::kExploring;
      }
      break;
    }
    case DipPhase::kExploring: {
      if (!d.awaiting_measurement) break;
      d.awaiting_measurement = false;
      const bool finished =
          d.explorer.observe(s.avg_latency_ms, s.saw_drops());
      if (finished) {
        d.curve.clear();
        for (const auto& pt : d.explorer.history())
          d.curve.add_point(pt.weight, pt.latency_ms, pt.dropped);
        // l0 anchors the low end of the curve.
        d.curve.add_point(0.0, d.explorer.l0_ms(), false);
        if (d.curve.fit(2)) {
          d.curve.set_wmax(d.explorer.wmax());
          d.phase = DipPhase::kReady;
          d.curve_built_at = sim_.now();
          ilp_dirty_ = true;
          util::log_info(kLog)
              << "DIP " << d.addr.str() << " ready: wmax="
              << d.explorer.wmax() << " after " << d.explorer.iterations()
              << " iterations";
        } else {
          // Degenerate exploration (e.g. all points dropped): try again.
          d.explorer.restart();
          d.explorer.begin(equal_share());
        }
      }
      break;
    }
    case DipPhase::kReady:
    case DipPhase::kFailed:
      break;
  }
}

void Controller::run_measurement_round() {
  std::vector<MeasurementRequest> requests;
  std::vector<const fit::WeightLatencyCurve*> curves(dips_.size(), nullptr);
  std::vector<bool> alive(dips_.size(), true);

  // Parking a DIP at weight 0 (for l0) pushes its share onto the others,
  // so only a bounded fraction of the pool parks per round; the rest keep
  // carrying traffic and wait for their turn (FIFO by request seq).
  const auto max_l0_parks = std::max<std::size_t>(
      1, (alive_count() + 3) / 4);  // ~25% of the pool
  std::size_t l0_parks = 0;

  for (std::size_t i = 0; i < dips_.size(); ++i) {
    auto& d = dips_[i];
    alive[i] = d.phase != DipPhase::kFailed;
    if (d.phase == DipPhase::kReady) curves[i] = &d.curve;

    if (d.phase == DipPhase::kNeedL0) {
      if (d.request_seq == 0) d.request_seq = ++seq_counter_;
      if (l0_parks < max_l0_parks && alive_count() > 1) {
        ++l0_parks;
        requests.push_back(MeasurementRequest{i, 0.0, MeasurePriority::kNormal,
                                              d.request_seq});
      }
      // Unparked NeedL0 DIPs issue no request: the residual split keeps
      // them serving at a plain share meanwhile.
    } else if (d.phase == DipPhase::kExploring && d.explorer.started()) {
      if (d.request_seq == 0) d.request_seq = ++seq_counter_;
      MeasurePriority prio = MeasurePriority::kNormal;
      if (d.explorer.has_l0() &&
          d.last_latency_ms >
              cfg_.overload_latency_factor * d.explorer.l0_ms())
        prio = MeasurePriority::kOverloaded;
      if (d.curve_built_at > util::SimTime::zero())
        prio = MeasurePriority::kRefresh;  // re-exploration of a known DIP
      requests.push_back(MeasurementRequest{i, d.explorer.next_weight(), prio,
                                            d.request_seq});
    }
  }

  const auto schedule = scheduler_.schedule(requests, curves, alive);
  for (std::size_t i = 0; i < dips_.size(); ++i) {
    auto& d = dips_[i];
    d.awaiting_measurement =
        schedule.measured[i] && d.phase == DipPhase::kExploring;
    d.scheduled_weight = schedule.weights[i];
    if (schedule.measured[i]) d.request_seq = 0;  // request satisfied
  }
  program(schedule.weights);
}

void Controller::apply_dynamics() {
  std::vector<const fit::WeightLatencyCurve*> curves(dips_.size(), nullptr);
  std::vector<DipObservation> observations;
  for (std::size_t i = 0; i < dips_.size(); ++i) {
    auto& d = dips_[i];
    if (d.phase != DipPhase::kReady) continue;
    curves[i] = &d.curve;
    if (weights_[i] <= 1e-9) continue;  // parked DIPs carry no signal
    if (d.last_sample_at + cfg_.round_interval * 2.0 < sim_.now())
      continue;  // stale
    observations.push_back(DipObservation{i, weights_[i], d.last_latency_ms});
  }

  const auto assessment = dynamics_.assess(curves, observations);
  const int need = std::max(1, dynamics_.config().consecutive_samples);

  if (assessment.traffic_change) {
    ++traffic_streak_;
    pending_traffic_delta_ = assessment.traffic_delta;
  } else {
    traffic_streak_ = 0;
  }

  std::vector<int> deviated(dips_.size(), 0);
  for (std::size_t k = 0; k < assessment.capacity_changed.size(); ++k) {
    const auto i = assessment.capacity_changed[k];
    deviated[i] = 1;
    dips_[i].pending_delta = assessment.capacity_delta[k];
  }

  if (traffic_streak_ >= need) {
    traffic_streak_ = 0;
    ++traffic_rescales_;
    util::log_info(kLog) << "traffic change detected; rescaling all curves by "
                         << pending_traffic_delta_;
    for (auto& d : dips_)
      if (d.phase == DipPhase::kReady) d.curve.rescale(pending_traffic_delta_);
    for (auto& d : dips_) d.deviation_streak = 0;
    ilp_dirty_ = true;
    return;
  }

  for (std::size_t i = 0; i < dips_.size(); ++i) {
    auto& d = dips_[i];
    if (d.phase != DipPhase::kReady) continue;
    d.deviation_streak = deviated[i] ? d.deviation_streak + 1 : 0;
    if (d.deviation_streak >= need) {
      d.deviation_streak = 0;
      ++capacity_rescales_;
      util::log_info(kLog) << "capacity change on DIP " << d.addr.str()
                           << "; delta " << d.pending_delta;
      d.curve.rescale(d.pending_delta);
      ilp_dirty_ = true;
    }
  }
}

void Controller::maybe_refresh() {
  if (cfg_.refresh_interval <= util::SimTime::zero()) return;

  // Capacity share currently under refresh: approximate each DIP's share
  // of capacity by its current weight.
  double refreshing = 0.0;
  for (std::size_t i = 0; i < dips_.size(); ++i)
    if (dips_[i].phase == DipPhase::kExploring &&
        dips_[i].curve_built_at > util::SimTime::zero())
      refreshing += weights_[i];

  for (std::size_t i = 0; i < dips_.size(); ++i) {
    auto& d = dips_[i];
    if (d.phase != DipPhase::kReady) continue;
    if (sim_.now() - d.curve_built_at < cfg_.refresh_interval) continue;
    // Budget: stay under the capacity fraction. Small pools get a relaxed
    // bound (one average-sized DIP at a time) so refreshes are not
    // starved, but a DIP holding a large share of the traffic never
    // refreshes while carrying it — re-exploring it would distort the
    // whole service (the paper's 5% cap exists for exactly this reason).
    const double budget = std::max(
        cfg_.refresh_capacity_fraction,
        1.5 / static_cast<double>(std::max<std::size_t>(1, alive_count())));
    if (weights_[i] > budget) continue;
    if (refreshing > 0.0 && refreshing + weights_[i] > budget) continue;
    refreshing += weights_[i];
    util::log_info(kLog) << "refreshing curve for DIP " << d.addr.str();
    d.explorer.restart();
    d.explorer.begin(std::max(weights_[i], equal_share() * 0.25));
    d.phase = DipPhase::kExploring;  // curve_built_at stays set: refresh class
  }
}

Controller::IlpSolveOutcome Controller::solve_ilp() const {
  IlpSolveOutcome out;
  std::vector<const fit::WeightLatencyCurve*> curves;
  for (std::size_t i = 0; i < dips_.size(); ++i) {
    if (dips_[i].phase != DipPhase::kReady) continue;
    out.index.push_back(i);
    curves.push_back(&dips_[i].curve);
  }
  if (curves.empty()) return out;
  out.attempted = true;
  out.result = ilp_.compute(curves, 1.0);
  return out;
}

void Controller::apply_ilp(const IlpSolveOutcome& out) {
  if (!out.attempted) return;  // no ready curves yet: stay dirty

  ++ilp_runs_;
  last_ilp_elapsed_ = out.result.elapsed;
  if (!out.result.feasible) {
    // Degenerate (e.g. sum of wmax < 1 after failures): proportional to
    // wmax keeps everyone maximally utilized without a better signal.
    util::log_warn(kLog) << "steady-state ILP infeasible; "
                            "falling back to wmax-proportional weights";
    std::vector<double> prop(dips_.size(), 0.0);
    for (const auto i : out.index)
      prop[i] = std::max(dips_[i].curve.wmax(), 1e-6);
    program(util::normalize_weights(prop));
    ilp_dirty_ = false;
    return;
  }

  std::vector<double> weights(dips_.size(), 0.0);
  for (std::size_t k = 0; k < out.index.size(); ++k)
    weights[out.index[k]] = out.result.weights[k];
  program(weights);
  ilp_dirty_ = false;
}

std::size_t Controller::add_dip(net::IpAddr addr) {
  DipState s;
  s.addr = addr;
  s.explorer = WeightExplorer(cfg_.explorer);
  dips_.push_back(std::move(s));
  weights_.push_back(0.0);
  // One transaction admits the newcomer (parked at 0 — it enters the
  // NeedL0 lifecycle) and restates the incumbents' weights: membership and
  // weights can no longer race, they are the same commit.
  program(weights_);
  ilp_dirty_ = true;
  util::log_info(kLog) << "scale-out: DIP " << addr.str() << " joined ("
                       << dips_.size() << " in pool)";
  return dips_.size() - 1;
}

bool Controller::remove_dip(std::size_t i) {
  if (i >= dips_.size()) return false;
  util::log_info(kLog) << "scale-in: DIP " << dips_[i].addr.str()
                       << " draining out (" << dips_.size() - 1 << " remain)";
  // The leaver rides the same transaction as the survivors' reweight, as a
  // kDraining entry: the dataplane parks it, keeps serving its pinned
  // flows, and completes the removal when the last one drains — the
  // manual weight-0 + wait + remove sequencing is gone (§4.7's connection
  // draining, now owned by the dataplane).
  const std::vector<lb::PoolEntry> leaver{
      lb::PoolEntry{dips_[i].addr, 0, lb::BackendState::kDraining}};
  dips_.erase(dips_.begin() + static_cast<std::ptrdiff_t>(i));
  weights_.erase(weights_.begin() + static_cast<std::ptrdiff_t>(i));
  program(weights_, leaver);
  ilp_dirty_ = true;
  return true;
}

void Controller::mark_failed(std::size_t i) {
  if (i >= dips_.size()) return;
  auto& d = dips_[i];
  if (d.phase == DipPhase::kFailed) return;
  ++failures_;
  util::log_info(kLog) << "DIP " << d.addr.str()
                       << " reported failed (ops feed); removing from rotation";
  d.phase = DipPhase::kFailed;
  d.awaiting_measurement = false;
  ilp_dirty_ = true;
}

void Controller::inject_ready_curve(std::size_t i, fit::WeightLatencyCurve curve) {
  auto& d = dips_[i];
  d.curve = std::move(curve);
  d.phase = DipPhase::kReady;
  d.curve_built_at = sim_.now();
  d.explorer.set_l0(d.curve.latency_at(0.0));
  ilp_dirty_ = true;
}

void Controller::program(const std::vector<double>& weights,
                         const std::vector<lb::PoolEntry>& extra) {
  weights_ = weights;
  // A failed DIP is not part of the desired pool: restating it as a
  // kActive entry would re-admit a corpse the dataplane already dropped
  // (clearing its failure tombstone) — and an *enabled* weight-0 backend
  // is still picked by the unweighted policies (RR/LC/hash). Its weight
  // is zeroed and its entry omitted; a recovered DIP re-enters through
  // the NeedL0 lifecycle, whose program deliberately re-lists it.
  for (std::size_t i = 0; i < dips_.size(); ++i)
    if (dips_[i].phase == DipPhase::kFailed) weights_[i] = 0.0;
  double total = 0.0;
  for (const double w : weights_) total += (w > 0.0 ? w : 0.0);
  // Largest-remainder normalization keeps the programmed units summing to
  // exactly kWeightScale (per-entry rounding can drift by a few units when
  // the ILP grid does not divide the scale). All-zero vectors program as
  // zeros — normalize's equal-split fallback must not resurrect a pool the
  // controller meant to park.
  std::vector<std::int64_t> units(weights_.size(), 0);
  if (total > 0.0) units = util::normalize_to_units(weights_);
  // One transaction describes the entire desired pool — every live DIP the
  // controller tracks, in stable order (minimal maglev disruption), plus
  // any lifecycle riders (a draining leaver). The dataplane commits it
  // atomically; a racing membership change produces a newer version that
  // supersedes this one whole.
  lb::PoolProgram p(lb_.issue_version());
  p.entries.reserve(dips_.size() + extra.size());
  for (std::size_t i = 0; i < dips_.size(); ++i) {
    if (dips_[i].phase == DipPhase::kFailed) continue;
    p.add(dips_[i].addr, units[i]);
  }
  for (const auto& e : extra) p.entries.push_back(e);
  lb_.apply_program(p);
  last_program_at_ = sim_.now();
}

}  // namespace klb::core
