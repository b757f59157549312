#include "testbed/testbed.hpp"

#include <algorithm>
#include <cmath>
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
  net_ = std::make_unique<net::Network>(*sim_, cfg_.fabric);
  vip_ = kVip;

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

  // Clients at load_fraction of healthy capacity.
  offered_rps_ = cfg_.load_fraction * healthy_capacity_rps();
  workload::ClientConfig ccfg;
  ccfg.requests_per_session = cfg_.requests_per_session;
  if (cfg_.closed_loop_factor > 0.0) {
    // Nominal in-flight ~= offered * (service + queueing headroom + RTT).
    const double nominal_latency_s =
        cfg_.dip.demand_core_ms / 1e3 * 2.0 + 0.001;
    ccfg.max_outstanding_sessions = static_cast<std::uint64_t>(
        std::max(4.0, std::ceil(cfg_.closed_loop_factor * offered_rps_ *
                                nominal_latency_s /
                                std::max(1.0, cfg_.requests_per_session))));
  }
  clients_ = std::make_unique<workload::ClientPool>(
      *net_, kClientBase, vip_, workload::TrafficPattern(offered_rps_), ccfg);
  clients_->start();

  // Dataplane heartbeat (see testbed.hpp): poll() at tick rate regardless
  // of whether a controller runs.
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
  clients_->stop();
  if (klm_) klm_->stop();
}

void Testbed::run_for(util::SimTime duration) { sim_->run_for(duration); }

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
  for (auto& d : dips_) d->reset_stats();
  clients_->recorder().reset();
}

std::unique_ptr<server::DipServer> Testbed::make_dip(const DipSpec& spec) {
  auto dip_cfg = cfg_.dip;
  dip_cfg.vm = spec.vm;
  const auto addr = kDipBase.next(next_dip_offset_++);
  auto dip = std::make_unique<server::DipServer>(*net_, addr, dip_cfg);
  dip->set_capacity_factor(spec.capacity_factor);
  dip->set_stolen_cores(spec.stolen_cores);
  return dip;
}

std::optional<std::size_t> Testbed::index_of(net::IpAddr addr) const {
  for (std::size_t i = 0; i < dips_.size(); ++i)
    if (dips_[i]->address() == addr) return i;
  return std::nullopt;
}

std::size_t Testbed::scale_out(DipSpec spec) {
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
  offered_rps_ = cfg_.load_fraction * healthy_capacity_rps();
  clients_->set_pattern(workload::TrafficPattern(offered_rps_));
}

void Testbed::set_static_weights(const std::vector<double>& weights) {
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
  std::vector<DipMetrics> out;
  const auto& per_dip = clients_->recorder().per_dip();
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

lb::DataplaneCounters Testbed::dataplane_counters() const {
  return pool_ ? pool_->counters() : mux_->counters();
}

double Testbed::overall_latency_ms() const {
  return clients_->recorder().overall().mean();
}

double Testbed::overall_p99_ms() const {
  return clients_->recorder().percentile_ms(0.99);
}

double Testbed::healthy_capacity_rps() const {
  double total = 0.0;
  for (const auto& spec : specs_) {
    const double per_core_rps =
        spec.vm.speed / (cfg_.dip.demand_core_ms / 1e3);
    total += per_core_rps * spec.vm.cores;
  }
  return total;
}

}  // namespace klb::testbed
