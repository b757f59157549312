// Experiment composition: the simulated equivalent of the paper's 41-VM
// Azure deployment (§6 Setup).
//
// A Testbed wires together, on one virtual-time Simulation:
//   - N DIP servers (VM types + noisy-neighbor knobs),
//   - one MUX with a selectable policy behind a VIP,
//   - the HAProxy-like LB control plane (weight programming with delay),
//   - an open-loop client pool driving a fraction of cluster capacity,
//   - the KLM prober + RESP latency store,
//   - optionally the KnapsackLB controller.
//
// Benches and examples construct a Testbed, run phases of virtual time,
// and read per-DIP CPU / client-observed latency off it. reset_stats()
// opens a new measurement window for those; the dataplane's counters are
// cumulative and never reset, so a window's dataplane figure is the
// difference of two dataplane_counters() snapshots.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "klm/klm.hpp"
#include "lb/dns_lb.hpp"
#include "lb/lb_controller.hpp"
#include "lb/mux.hpp"
#include "lb/mux_pool.hpp"
#include "server/dip_server.hpp"
#include "sim/simulation.hpp"
#include "store/kv_server.hpp"
#include "workload/client.hpp"

namespace klb::testbed {

struct DipSpec {
  server::VmType vm = server::kDs1v2;
  double capacity_factor = 1.0;  // cache-thrash slowdown (1.0 = healthy)
  double stolen_cores = 0.0;     // antagonist-held vCPUs
};

struct TestbedConfig {
  std::uint64_t seed = 1;
  std::string policy = "wrr";  // lb policy for the MUX
  /// Offered load as a fraction of the pool's healthy capacity (the paper
  /// runs at 70%).
  double load_fraction = 0.70;
  double requests_per_session = 4.0;
  /// Closed-loop concurrency, as a multiple of the nominal in-flight
  /// request count (offered_rps x ~unloaded latency). 0 = open loop.
  /// The paper's clients were fixed-concurrency load generators, which is
  /// what keeps overloaded-DIP latency at a few multiples of healthy
  /// rather than backlog-bound.
  double closed_loop_factor = 5.0;
  server::DipConfig dip;  // shared service-demand model
  klm::KlmConfig klm;
  core::ControllerConfig controller;
  bool use_knapsacklb = false;
  util::SimTime programming_delay = util::SimTime::millis(200);
  /// MUXes ECMP-sharded behind the VIP. 1 = a single Mux running `policy`;
  /// >1 = a lb::MuxPool whose members share one maglev build per program
  /// version (`policy` is ignored — the pool runs "maglev").
  std::size_t mux_count = 1;
  /// Recompute the offered load (load_fraction x live healthy capacity)
  /// after every scale_out/scale_in/fail_dip, so the load tracks the pool
  /// the way a front-door autoscaler would. false keeps the offered rate
  /// fixed at construction-time capacity — the paper's figures hold load
  /// constant through failures.
  bool rescale_load_on_churn = true;
  /// Opt the dataplane into the stateless fast path (lb/consistency.hpp):
  /// flows on unchanged maglev slots route by hash with no flow-table
  /// entry; only exception flows pin. Requires a maglev-table policy
  /// (mux_count > 1 always qualifies; a single Mux needs policy =
  /// "maglev"), and is ignored with a warning otherwise.
  bool stateless_dataplane = false;
  /// Expected concurrent flows pool-wide: pre-reserves the flow-table
  /// shards so filling to that scale never rehashes. 0 = default growth.
  std::size_t expected_flows = 0;
  /// Fabric latency model.
  net::FabricConfig fabric;
};

/// Per-DIP metrics snapshot for reporting.
struct DipMetrics {
  net::IpAddr addr;
  std::string vm_type;
  double cpu_utilization = 0.0;       // server-side, window average
  double client_latency_ms = 0.0;     // mean over client requests
  std::uint64_t client_requests = 0;
  std::uint64_t drops = 0;
  double weight = 0.0;                // current MUX weight
};

class Testbed {
 public:
  Testbed(std::vector<DipSpec> specs, TestbedConfig cfg);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- run control ----------------------------------------------------------
  void run_for(util::SimTime duration);
  /// Run until the KnapsackLB controller reports every DIP Ready (requires
  /// use_knapsacklb). Returns false if `limit` elapses first.
  bool run_until_ready(util::SimTime limit);
  /// Clear the measurement windows (after warmup / before a window): DIP
  /// CPU windows and client recorders. Dataplane counters are cumulative
  /// and untouched — take a dataplane_counters() snapshot here instead.
  void reset_stats();

  // --- topology access --------------------------------------------------------
  sim::Simulation& sim() { return *sim_; }
  net::Network& network() { return *net_; }
  std::size_t dip_count() const { return dips_.size(); }
  server::DipServer& dip(std::size_t i) { return *dips_[i]; }
  /// The single Mux, or the pool's first member (mux_count > 1) — all
  /// members serve identical programs, so member 0 answers pool-shape
  /// questions (weights, membership).
  lb::Mux& mux() { return pool_ ? pool_->mux(0) : *mux_; }
  /// The pool when mux_count > 1, else nullptr.
  lb::MuxPool* mux_pool() { return pool_.get(); }
  /// The dataplane behind the LB controller (the Mux or the MuxPool).
  lb::PoolProgrammer& dataplane() {
    return pool_ ? static_cast<lb::PoolProgrammer&>(*pool_)
                 : static_cast<lb::PoolProgrammer&>(*mux_);
  }
  lb::LbController& lb_controller() { return *lb_ctrl_; }
  workload::ClientPool& clients() { return *clients_; }
  /// Pool-generic reads for callers that sum over client pools; the
  /// testbed drives exactly one, so `p` must be 0.
  std::size_t client_pool_count() const { return 1; }
  workload::ClientPool& client_pool(std::size_t /*p*/) { return *clients_; }
  std::uint64_t client_successes() const {
    return clients_->recorder().overall().count();
  }
  std::uint64_t client_timeouts() const {
    return clients_->recorder().timeouts();
  }
  std::uint64_t client_requests_sent() const {
    return clients_->requests_sent();
  }
  klm::Klm& klm() { return *klm_; }
  store::LatencyStore& latency_store() { return *lat_store_; }
  core::Controller* controller() { return controller_.get(); }
  net::IpAddr vip() const { return vip_; }

  /// Program static weights (units of weight 1.0 per DIP, normalized
  /// internally) through the LB controller — the "operator sets weights by
  /// core count" baselines.
  void set_static_weights(const std::vector<double>& weights);

  // --- live pool churn --------------------------------------------------------
  // The paper's headline scenarios (Fig. 15 failures, Fig. 16 capacity
  // change) happen on a live pool. These ops run at virtual-run time, while
  // traffic flows: they construct/tear down the DipServer, register or
  // deregister the DIP with the KLM prober and the latency store, and drive
  // the controller (when enabled) so membership, weights, and measurement
  // all move through the same transactional path the dataplane serves.

  /// Scale-out: bring up a fresh DipServer on a never-reused address, start
  /// probing it, and admit it to the pool. With KnapsackLB on, the newcomer
  /// enters the NeedL0 -> Exploring -> Ready lifecycle and is folded into
  /// the ILP once its curve fits; without, it joins at a fair share of the
  /// current weights. Returns the new DIP's live index.
  std::size_t scale_out(DipSpec spec);

  /// Graceful scale-in of live DIP `i`: the dataplane parks it (kDraining),
  /// keeps serving its pinned flows, and completes the removal when the
  /// last one drains — zero flows reset. The server keeps running until the
  /// Testbed is destroyed so in-flight work finishes; KLM and the latency
  /// store forget the DIP immediately. Returns false for an out-of-range
  /// index.
  bool scale_in(std::size_t i);

  /// Abrupt failure of live DIP `i` (host death): the server stops
  /// answering, the dataplane drops it now (its pinned flows are counted
  /// as reset, clients retry on survivors), and the controller is told via
  /// the ops feed (mark_failed) instead of waiting out a probe blackout.
  /// The failure itself rescales nothing: the survivors' new weights come
  /// from the controller's rerun, or (without one) from a program
  /// restating the live pool. Returns false for an out-of-range index.
  bool fail_dip(std::size_t i);

  /// Live index of the DIP serving `addr`, if it is in the live pool.
  std::optional<std::size_t> index_of(net::IpAddr addr) const;

  /// Servers removed from the live pool but kept constructed (drainers
  /// serving pinned flows out; failed hosts that no longer answer).
  std::size_t retired_count() const { return retired_dips_.size(); }

  // --- metrics ---------------------------------------------------------------
  std::vector<DipMetrics> metrics() const;
  /// The dataplane's cumulative counters: the single Mux's, or the
  /// MuxPool's sum over its members (see lb::DataplaneCounters).
  lb::DataplaneCounters dataplane_counters() const;
  /// Mean client latency over the current window.
  double overall_latency_ms() const;
  double overall_p99_ms() const;
  /// Healthy-pool capacity in requests/sec (speed-weighted, ignoring
  /// current antagonists).
  double healthy_capacity_rps() const;
  double offered_rps() const { return offered_rps_; }

 private:
  /// Build one DipServer from a spec on the next fresh address.
  std::unique_ptr<server::DipServer> make_dip(const DipSpec& spec);
  /// The live pool at its desired weights, each entry carrying its DIP's
  /// server (P2 reads it): the bootstrap and every no-controller program.
  lb::PoolProgram live_pool_program(std::uint64_t version) const;
  /// No-controller reprogramming: restate the (already mutated) live pool
  /// at its desired weights in one transaction, with `draining_leaver`
  /// appended as a kDraining rider. Emitted from the testbed's own desired
  /// view, never read back from the dataplane — a back-to-back churn op
  /// must not restate the pre-commit state of a program still riding the
  /// programming delay (that would, e.g., resurrect a drainer as Active).
  void program_live_pool(std::optional<net::IpAddr> draining_leaver);
  /// Re-derive offered load from the live spec list (rescale_load_on_churn).
  void refresh_offered_load();
  const lb::Mux& mux0() const { return pool_ ? pool_->mux(0) : *mux_; }

  TestbedConfig cfg_;

  /// Declared before every component: each schedules and cancels events
  /// on it, so it must outlive them all.
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  net::IpAddr vip_;
  std::vector<DipSpec> specs_;
  std::vector<std::unique_ptr<server::DipServer>> dips_;
  /// Scaled-in or failed servers, parked until destruction: a drainer must
  /// keep serving its pinned flows, and a failed host must stay bound (and
  /// silent) rather than free its address for reuse.
  std::vector<std::unique_ptr<server::DipServer>> retired_dips_;
  std::uint32_t next_dip_offset_ = 0;  // never reused
  /// Desired weights for the live pool (index-aligned with dips_), used by
  /// the no-controller programming path; with KnapsackLB on, the
  /// controller owns the weights and this is only bookkeeping.
  std::vector<double> desired_weights_;
  std::unique_ptr<lb::Mux> mux_;        // mux_count == 1
  std::unique_ptr<lb::MuxPool> pool_;   // mux_count > 1
  std::unique_ptr<lb::LbController> lb_ctrl_;
  std::shared_ptr<store::KvEngine> kv_engine_;
  std::unique_ptr<store::KvServer> kv_server_;
  std::unique_ptr<store::LatencyStore> lat_store_;
  std::unique_ptr<klm::Klm> klm_;
  std::unique_ptr<workload::ClientPool> clients_;
  std::unique_ptr<core::Controller> controller_;
  /// Control-plane heartbeat: Mux::poll() is a tick-rate contract (drain
  /// sweeps, generation reclamation), and the KnapsackLB controller's loop
  /// only covers it when one is running. The testbed polls unconditionally
  /// so controllerless scenarios complete grace-deferred drains too (the
  /// stateless fast path defers completion past the quiescence window).
  /// Declared last: destroyed first, so no tick fires into torn-down
  /// components.
  std::unique_ptr<sim::PeriodicTimer> dataplane_poll_;
  double offered_rps_ = 0.0;
};

/// The paper's Table 3 pool: 16x DS1v2 + 8x DS2v2 + 4x DS3v2 + 2x F8sv2.
std::vector<DipSpec> table3_specs();

/// §2.1's three-DIP pool at the given capacity factors (e.g. {1, 1, 0.6}).
std::vector<DipSpec> three_dip_specs(double hc1, double hc2, double lc);

}  // namespace klb::testbed
