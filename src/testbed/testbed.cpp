#include "testbed/testbed.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "util/logging.hpp"
#include "util/weight.hpp"

namespace klb::testbed {

namespace {
const net::IpAddr kVip{10, 0, 0, 1};
const net::IpAddr kDipBase{10, 1, 0, 1};
const net::IpAddr kClientBase{10, 2, 0, 1};
const net::IpAddr kKlmAddr{10, 3, 0, 1};
const net::IpAddr kStoreAddr{10, 3, 0, 2};
}  // namespace

std::vector<DipSpec> table3_specs() {
  std::vector<DipSpec> specs;
  for (const auto& vm : server::table3_pool()) specs.push_back(DipSpec{vm, 1.0, 0.0});
  return specs;
}

std::vector<DipSpec> three_dip_specs(double hc1, double hc2, double lc) {
  return {DipSpec{server::kDs1v2, hc1, 0.0}, DipSpec{server::kDs1v2, hc2, 0.0},
          DipSpec{server::kDs1v2, lc, 0.0}};
}

Testbed::Testbed(std::vector<DipSpec> specs, TestbedConfig cfg)
    : cfg_(cfg), specs_(std::move(specs)) {
  sim_ = std::make_unique<sim::Simulation>(cfg_.seed);
  const std::size_t shards = std::max<std::size_t>(1, cfg_.driver_shards);
  if (shards > 1) {
    const auto window = cfg_.driver_window > util::SimTime::zero()
                            ? cfg_.driver_window
                            : cfg_.fabric.base_latency;
    driver_ = std::make_unique<sim::ShardedDriver>(*sim_, shards, window);
  }
  net_ = std::make_unique<net::Network>(*sim_, cfg_.fabric);
  if (driver_) net_->set_driver(driver_.get());
  vip_ = kVip;
  if (driver_) {
    // The VIP is anycast — the mux packet path runs on whichever shard
    // sent to it, which is the whole scaling win — when every shard would
    // route a given tuple identically (thread-safe AND order-insensitive).
    // Stateful policies (rr/lc family) mutate pick state per packet, so
    // their mux stays pinned to shard 0.
    const bool tuple_deterministic = cfg_.mux_count > 1 ||
                                     cfg_.policy == "maglev" ||
                                     cfg_.policy == "hash";
    driver_->set_owner(vip_.value(), tuple_deterministic
                                         ? sim::ShardedDriver::kAnycast
                                         : 0);
  }

  // Construction is single-threaded, but make_dip and the pool bookkeeping
  // require the control lock, so hold it for the wiring below.
  util::MutexLock lk(mu_);

  // DIPs.
  std::vector<net::IpAddr> dip_addrs;
  for (const auto& spec : specs_) {
    dips_.push_back(make_dip(spec));
    dip_addrs.push_back(dips_.back()->address());
  }
  desired_weights_.assign(dips_.size(), 1.0);  // equal split until programmed

  // MUX + LB control plane. One Mux runs the configured policy; a pool
  // ECMP-shards the VIP over mux_count members sharing one maglev build
  // per program (the policy knob does not apply there). Either way the
  // pool is bootstrapped by one program, committed now.
  lb::FlowTableConfig flow_cfg;
  flow_cfg.expected_flows = cfg_.expected_flows;
  lb::ConsistencyConfig consistency;
  consistency.stateless = cfg_.stateless_dataplane;
  if (cfg_.mux_count > 1) {
    pool_ = std::make_unique<lb::MuxPool>(*net_, vip_, cfg_.mux_count,
                                          lb::MaglevTable::kDefaultMinSize,
                                          flow_cfg, consistency);
  } else {
    mux_ = std::make_unique<lb::Mux>(*net_, vip_, lb::make_policy(cfg_.policy),
                                     /*attach_to_vip=*/true, flow_cfg,
                                     consistency);
  }
  dataplane().apply_program(live_pool_program(dataplane().issue_version()));
  lb_ctrl_ = std::make_unique<lb::LbController>(*sim_, dataplane(),
                                                cfg_.programming_delay);

  // Latency store (engine shared between the wire server and the typed
  // facade the controller reads).
  kv_engine_ = std::make_shared<store::KvEngine>(
      [this] { return sim_->now(); });
  kv_server_ = std::make_unique<store::KvServer>(*net_, kStoreAddr, kv_engine_);
  lat_store_ = std::make_unique<store::LatencyStore>(kv_engine_);

  // KLM.
  klm_ = std::make_unique<klm::Klm>(*net_, kKlmAddr, vip_, dip_addrs,
                                    kStoreAddr, cfg_.klm);
  klm_->start();

  // Clients at load_fraction of healthy capacity: one pool per driver
  // shard, each offering an even split of the rate from its own shard.
  offered_rps_ = cfg_.load_fraction * healthy_capacity_rps_locked();
  workload::ClientConfig ccfg;
  ccfg.requests_per_session = cfg_.requests_per_session;
  std::uint64_t total_cap = 0;
  if (cfg_.closed_loop_factor > 0.0) {
    // Nominal in-flight ~= offered * (service + queueing headroom + RTT).
    const double nominal_latency_s =
        cfg_.dip.demand_core_ms / 1e3 * 2.0 + 0.001;
    total_cap = static_cast<std::uint64_t>(
        std::max(4.0, std::ceil(cfg_.closed_loop_factor * offered_rps_ *
                                nominal_latency_s /
                                std::max(1.0, cfg_.requests_per_session))));
  }
  for (std::size_t p = 0; p < shards; ++p) {
    // 256 addresses per pool keeps the per-shard IP ranges disjoint.
    const auto base = kClientBase.next(static_cast<std::uint32_t>(p) * 256);
    if (driver_) {
      // Register owners before construction: the pool forks its RNG from
      // (and binds its cancellable events to) its owner shard's sim.
      for (int i = 0; i < ccfg.client_ips; ++i)
        driver_->set_owner(base.next(static_cast<std::uint32_t>(i)).value(),
                           static_cast<std::uint32_t>(p));
    }
    auto pool_cfg = ccfg;
    if (total_cap > 0)
      pool_cfg.max_outstanding_sessions =
          std::max<std::uint64_t>(1, (total_cap + shards - 1) / shards);
    client_pools_.push_back(std::make_unique<workload::ClientPool>(
        *net_, base, vip_,
        workload::TrafficPattern(offered_rps_ / static_cast<double>(shards)),
        pool_cfg));
    client_pools_.back()->start();
  }

  // Dataplane heartbeat (see testbed.hpp): poll() at tick rate regardless
  // of whether a controller runs. It lives on shard 0 and is safe against
  // packet processing on other shards: poll's drain sweeps and generation
  // reclamation only take control-plane locks and try-locks the packet
  // path never holds across a window.
  dataplane_poll_ = std::make_unique<sim::PeriodicTimer>(
      *sim_, util::SimTime::millis(50), [this] { dataplane().poll(); });
  dataplane_poll_->start();

  // KnapsackLB controller (optional).
  if (cfg_.use_knapsacklb) {
    controller_ = std::make_unique<core::Controller>(
        *sim_, vip_, dip_addrs, *lat_store_, *lb_ctrl_, cfg_.controller);
    controller_->start();
  }
}

Testbed::~Testbed() {
  if (controller_) controller_->stop();
  for (auto& c : client_pools_) c->stop();
  if (klm_) klm_->stop();
}

void Testbed::run_for(util::SimTime duration) {
  if (driver_) {
    driver_->run_for(duration);
  } else {
    sim_->run_for(duration);
  }
}

bool Testbed::run_until_ready(util::SimTime limit) {
  if (!controller_) return false;
  const auto deadline = sim_->now() + limit;
  while (sim_->now() < deadline) {
    if (controller_->all_ready()) return true;
    run_for(cfg_.controller.round_interval);
  }
  return controller_->all_ready();
}

void Testbed::reset_stats() {
  util::MutexLock lk(mu_);
  for (auto& d : dips_) d->reset_stats();
  for (auto& c : client_pools_) c->recorder().reset();
  if (pool_) {
    for (std::size_t k = 0; k < pool_->mux_count(); ++k)
      pool_->mux(k).reset_counters();
  } else {
    mux_->reset_counters();
  }
}

std::unique_ptr<server::DipServer> Testbed::make_dip(const DipSpec& spec) {
  auto dip_cfg = cfg_.dip;
  dip_cfg.vm = spec.vm;
  const auto addr = kDipBase.next(next_dip_offset_++);
  auto dip = std::make_unique<server::DipServer>(*net_, addr, dip_cfg);
  dip->set_capacity_factor(spec.capacity_factor);
  dip->set_stolen_cores(spec.stolen_cores);
  // Round-robin shard ownership by construction order (stable across
  // churn: offsets are never reused). The DIP's service events then run on
  // its shard, spreading server work across cores like the clients.
  if (driver_)
    driver_->set_owner(addr.value(),
                       static_cast<std::uint32_t>((next_dip_offset_ - 1) %
                                                  driver_->shard_count()));
  return dip;
}

std::optional<std::size_t> Testbed::index_of(net::IpAddr addr) const {
  util::MutexLock lk(mu_);
  for (std::size_t i = 0; i < dips_.size(); ++i)
    if (dips_[i]->address() == addr) return i;
  return std::nullopt;
}

std::size_t Testbed::scale_out(DipSpec spec) {
  util::MutexLock lk(mu_);
  auto dip = make_dip(spec);
  const auto addr = dip->address();
  specs_.push_back(spec);
  dips_.push_back(std::move(dip));
  // Fair share relative to the incumbents: the mean of their desired
  // weights (an all-parked pool hands the newcomer a unit weight).
  double mean = 1.0;
  if (!desired_weights_.empty()) {
    double sum = 0.0;
    for (const double w : desired_weights_) sum += w;
    if (sum > 0.0) mean = sum / static_cast<double>(desired_weights_.size());
  }
  desired_weights_.push_back(mean);
  klm_->add_dip(addr);  // probed from the next KLM round on
  if (controller_) {
    // One transaction admits the newcomer parked at 0; it enters the
    // NeedL0 -> Exploring -> Ready lifecycle and the ILP folds it in once
    // its curve fits — traffic keeps flowing off the incumbents meanwhile.
    controller_->add_dip(addr);
  } else {
    program_live_pool(std::nullopt);
  }
  refresh_offered_load();
  util::log_info("klb-testbed")
      << "scale-out: DIP " << addr.str() << " (" << spec.vm.name
      << ") joined; live pool " << dips_.size();
  return dips_.size() - 1;
}

bool Testbed::scale_in(std::size_t i) {
  util::MutexLock lk(mu_);
  if (i >= dips_.size()) {
    util::log_warn("klb-testbed") << "scale_in(" << i << ") out of range ("
                                  << dips_.size() << " live DIPs)";
    return false;
  }
  const auto addr = dips_[i]->address();
  // Deregister measurement first: a probe round racing the drain must not
  // write samples for a DIP the controller no longer owns.
  klm_->remove_dip(addr);
  lat_store_->forget(vip_, addr);
  // The server keeps running until Testbed destruction: the dataplane
  // serves its pinned flows to completion (that is the graceful part).
  retired_dips_.push_back(std::move(dips_[i]));
  dips_.erase(dips_.begin() + static_cast<std::ptrdiff_t>(i));
  specs_.erase(specs_.begin() + static_cast<std::ptrdiff_t>(i));
  desired_weights_.erase(desired_weights_.begin() +
                         static_cast<std::ptrdiff_t>(i));
  if (controller_) {
    if (const auto ci = controller_->index_of(addr))
      controller_->remove_dip(*ci);
  } else {
    program_live_pool(addr);
  }
  refresh_offered_load();
  util::log_info("klb-testbed") << "scale-in: DIP " << addr.str()
                                << " draining; live pool " << dips_.size();
  return true;
}

bool Testbed::fail_dip(std::size_t i) {
  util::MutexLock lk(mu_);
  if (i >= dips_.size()) {
    util::log_warn("klb-testbed") << "fail_dip(" << i << ") out of range ("
                                  << dips_.size() << " live DIPs)";
    return false;
  }
  const auto addr = dips_[i]->address();
  dips_[i]->set_alive(false);
  klm_->remove_dip(addr);
  lat_store_->forget(vip_, addr);
  // Dataplane first: the dead DIP's share redistributes to the survivors
  // immediately (its pinned flows are counted as reset; clients retry).
  if (pool_) {
    pool_->fail_backend(addr);
  } else {
    mux_->fail_backend(addr);
  }
  // Ops-feed report: faster than waiting for a §4.5 probe blackout.
  if (controller_) {
    if (const auto ci = controller_->index_of(addr))
      controller_->mark_failed(*ci);
  }
  retired_dips_.push_back(std::move(dips_[i]));
  dips_.erase(dips_.begin() + static_cast<std::ptrdiff_t>(i));
  specs_.erase(specs_.begin() + static_cast<std::ptrdiff_t>(i));
  desired_weights_.erase(desired_weights_.begin() +
                         static_cast<std::ptrdiff_t>(i));
  // The failure leaves the survivors' weights as programmed; without a
  // controller to rerun, restate the live pool normalized over them.
  if (!controller_) program_live_pool(std::nullopt);
  refresh_offered_load();
  util::log_info("klb-testbed") << "failure: DIP " << addr.str()
                                << " down; live pool " << dips_.size();
  return true;
}

lb::PoolProgram Testbed::live_pool_program(std::uint64_t version) const {
  const auto units = util::normalize_to_units(desired_weights_);
  lb::PoolProgram p(version);
  for (std::size_t k = 0; k < dips_.size(); ++k)
    p.add(dips_[k]->address(), units[k], lb::BackendState::kActive,
          dips_[k].get());
  return p;
}

void Testbed::program_live_pool(std::optional<net::IpAddr> draining_leaver) {
  auto p = live_pool_program(lb_ctrl_->issue_version());
  if (draining_leaver) p.add(*draining_leaver, 0, lb::BackendState::kDraining);
  lb_ctrl_->apply_program(p);
}

void Testbed::refresh_offered_load() {
  if (!cfg_.rescale_load_on_churn) return;
  offered_rps_ = cfg_.load_fraction * healthy_capacity_rps_locked();
  const double per_pool =
      offered_rps_ / static_cast<double>(client_pools_.size());
  for (auto& c : client_pools_)
    c->set_pattern(workload::TrafficPattern(per_pool));
}

void Testbed::set_static_weights(const std::vector<double>& weights) {
  util::MutexLock lk(mu_);
  // A wrong-sized vector must stay loud: a whole-pool transaction built
  // from it would silently decommission the unlisted DIPs.
  if (weights.size() != dips_.size()) {
    util::log_warn("klb-testbed")
        << "set_static_weights: " << weights.size() << " weights for "
        << dips_.size() << " DIPs; ignoring";
    return;
  }
  desired_weights_ = weights;
  program_live_pool(std::nullopt);
}

std::vector<DipMetrics> Testbed::metrics() const {
  util::MutexLock lk(mu_);
  std::vector<DipMetrics> out;
  // Merge the per-shard pools' attributions (Welford moments compose
  // exactly). One pool — the common case — merges trivially.
  std::map<net::IpAddr, util::Welford> per_dip;
  for (const auto& c : client_pools_)
    for (const auto& [addr, w] : c->recorder().per_dip())
      per_dip[addr].merge(w);
  // Join the dataplane's weights by DIP address: after any membership
  // change the dataplane's registration order and the live spec list
  // diverge, so a positional join would attribute weights to the wrong
  // DIP. Draining leftovers are parked at 0 and not part of the live pool.
  // One snapshot: a drain sweep may publish between separate reads.
  std::unordered_map<std::uint32_t, double> weight_by_addr;
  for (const auto& b : mux0().backends())
    if (!b.draining)
      weight_by_addr[b.addr.value()] = util::units_to_weight(b.weight_units);
  for (std::size_t i = 0; i < dips_.size(); ++i) {
    DipMetrics m;
    m.addr = dips_[i]->address();
    m.vm_type = specs_[i].vm.name;
    m.cpu_utilization = dips_[i]->cpu_utilization();
    m.drops = dips_[i]->dropped();
    // A live DIP the dataplane does not serve yet (admission still in the
    // programming delay) reads weight 0 rather than someone else's.
    const auto wit = weight_by_addr.find(m.addr.value());
    m.weight = wit != weight_by_addr.end() ? wit->second : 0.0;
    const auto it = per_dip.find(m.addr);
    if (it != per_dip.end()) {
      m.client_latency_ms = it->second.mean();
      m.client_requests = it->second.count();
    }
    out.push_back(m);
  }
  return out;
}

DataplaneMetrics Testbed::dataplane_metrics() const {
  DataplaneMetrics out;
  const auto add = [&out](const lb::Mux& m) {
    out.flows_reset_by_failure += m.flows_reset_by_failure();
    out.flows_gced_idle += m.flows_gced_idle();
    out.flows_dropped_by_removal += m.flows_dropped_by_removal();
    out.no_backend_drops += m.no_backend_drops();
    out.drains_completed += m.drains_completed();
    out.stale_failed_admissions += m.stale_failed_admissions();
    out.affinity_entries += m.affinity_size();
    out.generations_published += m.generations_published();
    out.generations_retired += m.generations_retired();
    out.pending_retired_generations += m.pending_retired_generations();
    out.stateless_picks += m.stateless_picks();
    out.exception_pins += m.exception_pins();
    out.affinity_breaks_avoided += m.affinity_breaks_avoided();
    out.affinity_breaks += m.affinity_breaks();
    const auto mem = m.flow_table().memory();
    out.flow_table_bytes += mem.approx_bytes;
    out.flow_table_capacity += mem.buckets;
  };
  if (pool_) {
    for (std::size_t k = 0; k < pool_->mux_count(); ++k) add(pool_->mux(k));
  } else {
    add(*mux_);
  }
  return out;
}

double Testbed::overall_latency_ms() const {
  util::Welford all;
  for (const auto& c : client_pools_) all.merge(c->recorder().overall());
  return all.mean();
}

double Testbed::overall_p99_ms() const {
  if (client_pools_.size() == 1)
    return client_pools_.front()->recorder().percentile_ms(0.99);
  // Sharded runs: exact percentile over the merged raw samples (the
  // per-pool log-histograms do not merge).
  std::vector<double> lat;
  for (const auto& c : client_pools_) {
    const auto& raw = c->recorder().raw_latencies_ms();
    lat.insert(lat.end(), raw.begin(), raw.end());
  }
  if (lat.empty()) return 0.0;
  const auto k = static_cast<std::ptrdiff_t>(
      0.99 * static_cast<double>(lat.size() - 1));
  std::nth_element(lat.begin(), lat.begin() + k, lat.end());
  return lat[static_cast<std::size_t>(k)];
}

std::uint64_t Testbed::client_successes() const {
  std::uint64_t n = 0;
  for (const auto& c : client_pools_) n += c->recorder().overall().count();
  return n;
}

std::uint64_t Testbed::client_timeouts() const {
  std::uint64_t n = 0;
  for (const auto& c : client_pools_) n += c->recorder().timeouts();
  return n;
}

std::uint64_t Testbed::client_requests_sent() const {
  std::uint64_t n = 0;
  for (const auto& c : client_pools_) n += c->requests_sent();
  return n;
}

std::uint64_t Testbed::client_sessions_started() const {
  std::uint64_t n = 0;
  for (const auto& c : client_pools_) n += c->sessions_started();
  return n;
}

double Testbed::healthy_capacity_rps_locked() const {
  double total = 0.0;
  for (const auto& spec : specs_) {
    const double per_core_rps =
        spec.vm.speed / (cfg_.dip.demand_core_ms / 1e3);
    total += per_core_rps * spec.vm.cores;
  }
  return total;
}

}  // namespace klb::testbed
