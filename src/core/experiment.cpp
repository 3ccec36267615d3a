#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mutsvc::core {

namespace {
TestbedConfig testbed_for(const apps::AppDriver& driver, HarnessCalibration cal,
                          const ExperimentSpec& spec) {
  TestbedConfig t = cal.testbed;
  t.db_colocated = driver.db_colocated;
  t.db_shards = spec.shard.shards;
  return t;
}

comp::RuntimeConfig runtime_config_for(const HarnessCalibration& cal,
                                       const ExperimentSpec& spec) {
  comp::RuntimeConfig cfg = cal.runtime;
  cfg.coalesce_quantum = spec.shard.coalesce_quantum;
  cfg.flow = spec.flow;
  return cfg;
}

}  // namespace

Experiment::Experiment(const apps::AppDriver& driver, ExperimentSpec spec,
                       HarnessCalibration cal)
    : driver_(driver),
      spec_(spec),
      cal_(cal),
      sim_(spec.seed),
      topo_(sim_),
      nodes_(build_testbed(topo_, testbed_for(driver, cal, spec))),
      net_(sim_, topo_),
      http_(net_, cal.http),
      rmi_(net_, cal.rmi),
      collector_(spec.warmup) {
  db_ = std::make_unique<db::Database>(topo_, nodes_.db_nodes, cal_.db_cost);
  driver_.install_database(*db_);
  // Install the policy before the runtime copies the transport config for
  // its dedicated update transport.
  rmi_.set_resilience(spec_.resilience);
  comp::DeploymentPlan plan = spec_.custom_plan
                                  ? spec_.custom_plan(nodes_)
                                  : build_plan(*driver_.app, *driver_.meta, nodes_, spec_.level);
  // Per-caller-node RMI streams: a node's draw sequence does not depend on
  // how calls from other nodes interleave. Stream seeds are pure functions
  // of (root seed, name).
  rmi_.partition_streams(topo_.node_count());
  runtime_ = std::make_unique<comp::Runtime>(sim_, topo_, net_, rmi_, *db_, *driver_.app,
                                             std::move(plan), runtime_config_for(cal_, spec_));
  driver_.bind_entities(*runtime_);
  if (spec_.placement.enabled) {
    // Versioned runtime bindings + live migration + controller (DESIGN
    // §17). The policy is built fresh per Experiment through the config's
    // factory, so a sweep slot reusing one spec can never leak a previous
    // trial's bindings or hysteresis state into the next trial.
    bindings_ = std::make_unique<comp::BindingTable>(runtime_->plan());
    runtime_->set_binding_table(bindings_.get());
    migrator_ = std::make_unique<comp::MigrationManager>(sim_, *runtime_, *bindings_,
                                                         spec_.placement.migration);
    if (spec_.placement.policy) {
      controller_ = std::make_unique<comp::PlacementController>(sim_, *runtime_, *bindings_,
                                                                *migrator_, spec_.placement);
    }
  }
  if (spec_.flow.enabled && spec_.flow.wan_rate_bps > 0.0) {
    net_.set_wan_rate_limit(spec_.flow.wan_rate_bps, spec_.flow.wan_burst_bytes);
  }
  if (!spec_.fault_plan.empty()) {
    faults_ = std::make_unique<net::FaultInjector>(sim_, topo_, spec_.fault_plan);
    faults_->set_restart_listener(
        [this](net::NodeId n) { runtime_->clear_node_caches(n); });
    net_.set_fault_injector(faults_.get());
    faults_->arm();
  }
}

sim::FifoResource& Experiment::thread_pool(net::NodeId server) {
  auto it = thread_pools_.find(server);
  if (it == thread_pools_.end()) {
    it = thread_pools_
             .emplace(server, std::make_unique<sim::FifoResource>(
                                  sim_, cal_.container_threads,
                                  topo_.node(server).name + ".threads"))
             .first;
  }
  return *it->second;
}

sim::Task<workload::RequestOutcome> Experiment::execute(net::NodeId client_node,
                                                        const workload::PageRequest& request) {
  net::NodeId server = runtime_->plan().entry_point(client_node);
  // Admission control (flow control §1): a deterministic token bucket per
  // entry node sheds excess pages up front — the cheapest place to refuse
  // work is before any of it happens. Refusal is instant (no sim time).
  if (spec_.flow.enabled && spec_.flow.admission_rate > 0.0) {
    auto it = admission_.find(server);
    if (it == admission_.end()) {
      it = admission_
               .emplace(server, net::TokenBucket{spec_.flow.admission_rate,
                                                 spec_.flow.admission_burst})
               .first;
    }
    if (!it->second.try_acquire(sim_.now())) {
      ++rejected_admission_;
      co_return workload::RequestOutcome::kRejected;
    }
  }
  ++admitted_;
  if (spec_.placement.enabled) {
    // The controller's load signal: pages entering at this server. A plain
    // registry counter — no events, so enabling placement without a policy
    // stays byte-identical.
    runtime_->metrics(server).inc(comp::PlacementController::kEntryPagesCounter);
  }
  const int max_page_retries = spec_.resilience.enabled ? spec_.resilience.http_retries : 0;
  for (int attempt = 0;;) {
    enum class Outcome { kOk, kUnreachable, kFailed };
    Outcome out = Outcome::kOk;
    try {
      co_await execute_at(client_node, server, request);
    } catch (const net::NoRouteError&) {
      out = Outcome::kUnreachable;  // co_await is illegal in a catch block
    } catch (const net::NetError&) {
      out = Outcome::kFailed;  // lost messages / open breaker: transient
    }
    if (out == Outcome::kOk) co_return workload::RequestOutcome::kOk;

    if (out == Outcome::kUnreachable) {
      // Connection attempt to a dead/partitioned server: the client notices
      // after a connect timeout.
      co_await sim_.wait(spec_.failover_timeout);
      if (!spec_.failover_enabled || server == nodes_.main_server) {
        ++dropped_;
        co_return workload::RequestOutcome::kFailed;
      }
      // §1: "client requests can utilize several entry points into the
      // service" — fall back to the main server. Switching entry points does
      // not consume the retry budget, so transient faults on the fallback
      // path still get the policy's whole-page retries.
      ++failovers_;
      server = nodes_.main_server;
      continue;
    }

    // Transient failure: the browser retries the whole page (when the
    // resilience policy allows) after a short pause.
    if (attempt >= max_page_retries) {
      ++dropped_;
      co_return workload::RequestOutcome::kFailed;
    }
    ++attempt;
    co_await sim_.wait(sim::ms(200 * attempt));
  }
}

sim::Task<void> Experiment::execute_at(net::NodeId client_node, net::NodeId server,
                                       const workload::PageRequest& request,
                                       comp::TraceSink* trace) {
  // The HTTP transport owns the root span and the exclusive http-wire
  // accounting (elapsed minus the handler's window); the handler bills the
  // thread-pool wait and everything the runtime does below it.
  co_await http_.request(client_node, server, request.request_bytes,
                         [this, server, &request, trace]() -> sim::Task<net::Bytes> {
                           const sim::SimTime s0 = sim_.now();
                           sim::FifoResource& pool = thread_pool(server);
                           co_await pool.acquire();
                           if (trace) {
                             const sim::SimTime s1 = sim_.now();
                             trace->add(comp::SpanKind::kQueueing, s1 - s0);
                             if (s1 > s0) {
                               trace->leaf(comp::SpanKind::kQueueing, "thread-queue",
                                           server.value(), server.value(), s0, s1);
                             }
                           }
                           try {
                             (void)co_await runtime_->invoke(server, request.component,
                                                             request.method, request.args,
                                                             trace, request.session_key);
                           } catch (...) {
                             pool.release();
                             throw;
                           }
                           pool.release();
                           co_return request.response_bytes;
                         },
                         trace);
}

sim::Task<void> Experiment::execute_traced(net::NodeId client_node,
                                           const workload::PageRequest& request,
                                           comp::TraceSink& sink) {
  sink.set_trace_id(++trace_counter_);
  const net::NodeId server = runtime_->plan().entry_point(client_node);
  co_await execute_at(client_node, server, request, &sink);
}

void Experiment::enable_metrics(sim::Duration window) {
  metrics_window_ = window;
  runtime_->enable_transport_metrics();
  stats::Histogram& h = runtime_->metrics(nodes_.main_server).histogram("response_ms");
  collector_.set_observer([&h](double ms) { h.observe(ms); });
}

sim::Task<void> Experiment::metrics_sampler(sim::SimTime end) {
  while (sim_.now() < end) {
    co_await sim_.wait(metrics_window_);
    runtime_->sample_metrics(sim_.now(), metrics_window_);
    if (spec_.flow.enabled) {
      for (const auto& [node, bucket] : admission_) {
        stats::MetricsRegistry& reg = runtime_->metrics(node);
        reg.set_counter("flow.admission.admitted", bucket.admitted());
        reg.set_counter("flow.admission.rejected", bucket.rejected());
      }
      stats::MetricsRegistry& main = runtime_->metrics(nodes_.main_server);
      main.set_counter("flow.wan.throttled", net_.wan_throttled());
      main.set_counter("flow.wan.throttle_ms",
                       static_cast<std::uint64_t>(net_.wan_throttle_time().as_millis()));
    }
  }
}

void Experiment::start_load(sim::SimTime end) {
  if (!driver_.fsm_browser_model || !driver_.fsm_writer_model) {
    throw std::invalid_argument("Experiment: the '" + driver_.name +
                                "' driver provides no FSM script models");
  }
  const bool has_envelope =
      !spec_.fsm_load.arrivals.empty() ||
      std::any_of(spec_.fsm_load.group_arrivals.begin(), spec_.fsm_load.group_arrivals.end(),
                  [](const workload::RateEnvelope& e) { return !e.empty(); });
  if (spec_.open_loop_arrivals && has_envelope) {
    throw std::invalid_argument(
        "Experiment: open_loop_arrivals is mutually exclusive with the fsm_load arrival "
        "envelopes — express the arrival process as one or the other");
  }
  const std::shared_ptr<const workload::FsmScriptModel> browser =
      driver_.fsm_browser_model(spec_.fsm_load.zipf_s);
  const std::shared_ptr<const workload::FsmScriptModel> writer =
      driver_.fsm_writer_model(spec_.fsm_load.zipf_s);
  const auto group_count = static_cast<double>(1 + nodes_.remote_clients.size());
  const double per_group = spec_.total_request_rate / group_count;

  auto start_group = [&](std::size_t gi, net::NodeId client, stats::ClientGroup group,
                         const std::string& tag) {
    workload::SessionFsmEngine::Config cfg;
    cfg.think_time = spec_.loadgen.think_time;
    cfg.between_sessions = spec_.loadgen.between_sessions;
    // Per-group salt for the sticky session routing keys — pure function of
    // (seed, tag), no RNG draw.
    cfg.session_salt = sim::Rng::named_seed(spec_.seed, tag + "-key");
    auto engine = std::make_unique<workload::SessionFsmEngine>(sim_, *this, collector_, cfg);
    const std::uint8_t b = engine->add_kind(browser, client, group);
    const std::uint8_t w = engine->add_kind(writer, client, group);
    const std::uint64_t bseed = sim::Rng::named_seed(spec_.seed, tag + "-browser");
    const std::uint64_t wseed = sim::Rng::named_seed(spec_.seed, tag + "-writer");
    // A group-specific envelope (diurnal antiphase across sites) overrides
    // the even split of the shared envelope; it is this group's whole
    // session-arrival rate, split only browser/writer.
    const workload::RateEnvelope* per_group_env =
        gi < spec_.fsm_load.group_arrivals.size() && !spec_.fsm_load.group_arrivals[gi].empty()
            ? &spec_.fsm_load.group_arrivals[gi]
            : nullptr;
    if (spec_.open_loop_arrivals) {
      engine->start_open_loop(b, w, per_group, spec_.browser_fraction, end,
                              sim::Rng::named_seed(spec_.seed, tag + "-open"));
    } else if (per_group_env != nullptr) {
      engine->start_arrivals(b, per_group_env->scaled(spec_.browser_fraction), end, bseed);
      engine->start_arrivals(w, per_group_env->scaled(1.0 - spec_.browser_fraction), end,
                             wseed);
    } else if (!spec_.fsm_load.arrivals.empty()) {
      // The envelope is the combined session-arrival rate: split evenly
      // across groups, then browser/writer by the spec mix.
      const double share = 1.0 / group_count;
      engine->start_arrivals(
          b, spec_.fsm_load.arrivals.scaled(share * spec_.browser_fraction), end, bseed);
      engine->start_arrivals(
          w, spec_.fsm_load.arrivals.scaled(share * (1.0 - spec_.browser_fraction)), end,
          wseed);
    } else {
      // §3.3 closed-loop client fleet: round(rate * think_time) recurring
      // sessions per group unless sessions_per_group overrides the size.
      std::size_t total = spec_.fsm_load.sessions_per_group;
      workload::ClientSplit split;
      if (total == 0) {
        split = workload::split_clients(per_group, spec_.browser_fraction,
                                        spec_.loadgen.think_time);
      } else {
        auto browsers = static_cast<std::size_t>(
            std::llround(static_cast<double>(total) * spec_.browser_fraction));
        browsers = std::min(browsers, total);
        split.browsers = static_cast<int>(browsers);
        split.writers = static_cast<int>(total - browsers);
      }
      engine->start_population(b, static_cast<std::size_t>(split.browsers), end, bseed);
      engine->start_population(w, static_cast<std::size_t>(split.writers), end, wseed);
    }
    fsm_engines_.push_back(std::move(engine));
  };

  start_group(0, nodes_.local_clients, stats::ClientGroup::kLocal, "fsm-local");
  for (std::size_t i = 0; i < nodes_.remote_clients.size(); ++i) {
    start_group(i + 1, nodes_.remote_clients[i], stats::ClientGroup::kRemote,
                "fsm-remote-" + std::to_string(i));
  }
}

void Experiment::run() {
  const sim::SimTime end = sim::SimTime::origin() + spec_.duration;
  start_load(end);

  if (metrics_window_ > sim::Duration::zero()) {
    sim_.spawn(metrics_sampler(end));
  }
  if (controller_ != nullptr) controller_->start(end);

  // Utilization accounting starts after warm-up, like the measurements.
  for (std::uint32_t i = 0; i < topo_.node_count(); ++i) {
    sim_.schedule_at(sim::SimTime::origin() + spec_.warmup, [this, i] {
      topo_.node(net::NodeId{i}).cpu->reset_utilization();
    });
  }

  sim_.run_until(end);
}

}  // namespace mutsvc::core
